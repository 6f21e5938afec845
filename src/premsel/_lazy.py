"""Deferred imports: a module that executes on its first attribute access.

Commands that do no numeric work (``emit --mode bushy|chainy``,
``minimize``, ``--help``, ``--version``) never touch numpy, so they
never pay for its import or its BLAS thread start-up.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_module(name: str):
    """The top-level module ``name``, executed when first used.

    A module already in ``sys.modules`` is returned as it is.  A
    submodule cannot be deferred this way: finding its spec imports its
    parent package.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
