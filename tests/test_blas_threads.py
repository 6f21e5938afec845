"""The ranking commands run OpenBLAS on one thread unless a thread
variable is set; ``minimize`` leaves the environment as it found it.

Each check runs in a fresh interpreter, since OpenBLAS reads the
variables once, when numpy first runs, and the test process has run
numpy already.  Threads are counted through ``/proc/self/task``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from premsel.cli import BLAS_THREAD_VARS

pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="counts threads through Linux's /proc")

TOY = Path(__file__).resolve().parent.parent / "data" / "toy"
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# Runs one command through premsel.cli.main, then prints the process's
# thread count and the OPENBLAS_NUM_THREADS it ends with.
SCRIPT = """\
import os, sys
import premsel.cli
premsel.cli.main(sys.argv[1:])
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def environment(**variables):
    """This process's environment without any thread variable, plus ``variables``."""
    return {**{k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}, **variables}


def threads_after(command, env, script=SCRIPT):
    result = subprocess.run([sys.executable, "-c", script, *command], capture_output=True,
                            text=True, env=env, stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr
    count, variable = result.stdout.splitlines()[-1].split()
    return int(count), None if variable == "None" else variable


def corpus():
    return ["-f", str(TOY / "formulas.p"), "--deps", str(TOY / "deps.txt")]


def eval_mor(out_dir):
    return ["eval", *corpus(), "--ranker", "mor", "--out-dir", str(out_dir)]


@pytest.mark.parametrize("command", [
    ["eval", "--ranker", "mor"],
    ["eval", "--ranker", "nb"],
    ["rank", "--ranker", "mor", "--conjecture", "th_plus_succ"],
    ["emit", "--mode", "advised", "--ranker", "mor", "-n", "2"],
], ids=["eval-mor", "eval-nb", "rank", "emit-advised"])
def test_ranking_commands_run_one_thread_when_no_variable_is_set(tmp_path, command):
    argv = [*command, *corpus(), "--out-dir", str(tmp_path)]
    assert threads_after(argv, environment()) == (1, "1")


def test_bushy_emit_leaves_the_environment_alone(tmp_path):
    argv = ["emit", *corpus(), "--mode", "bushy", "--out-dir", str(tmp_path)]
    assert threads_after(argv, environment()) == (1, None)


@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS starts no more threads than there are CPUs")
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
def test_a_thread_count_the_user_set_wins(tmp_path, variable):
    count, openblas = threads_after(eval_mor(tmp_path), environment(**{variable: "2"}))
    assert count == 2
    assert openblas == ("2" if variable == "OPENBLAS_NUM_THREADS" else None)


def test_mkl_variable_leaves_openblas_alone(tmp_path):
    _, openblas = threads_after(eval_mor(tmp_path), environment(MKL_NUM_THREADS="2"))
    assert openblas is None


def test_a_process_that_has_run_numpy_is_left_alone(tmp_path):
    # library use: OpenBLAS has read the environment already
    script = "import numpy\nnumpy.ones(2) @ numpy.ones(2)\n" + SCRIPT
    _, openblas = threads_after(eval_mor(tmp_path), environment(), script)
    assert openblas is None


def test_minimize_oracle_inherits_no_thread_variable():
    # sufficient only while OPENBLAS_NUM_THREADS is unset: every id goes
    oracle = "sh -c 'cat >/dev/null; test -z \"${OPENBLAS_NUM_THREADS+x}\"'"
    result = subprocess.run(
        [sys.executable, "-m", "premsel", "minimize", "--oracle-cmd", oracle, "--ids", "a,b,c"],
        capture_output=True, text=True, env=environment(), stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
