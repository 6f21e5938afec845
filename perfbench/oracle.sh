#!/bin/sh
# Sufficiency oracle for `premsel minimize`: reads candidate ids on stdin,
# one per line, and exits 0 iff they include every id listed in the file
# named by $1 (one id per line, distinct).  The oracle is monotone, so the
# 1-minimal answer is exactly that file's id set.
need=$(grep -c . "$1")
have=$(grep -Fxc -f "$1")
[ "$have" -eq "$need" ]
