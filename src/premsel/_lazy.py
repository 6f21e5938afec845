"""Deferred imports: a module that executes on its first attribute access.

Commands that do no numeric work (``emit --mode bushy|chainy``,
``minimize``, ``--help``, ``--version``) never touch numpy, so they
never pay for its import or its BLAS thread start-up.
"""

from __future__ import annotations

import importlib.util
import sys
import types


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


def executed(name: str) -> bool:
    """Whether module ``name`` has run: imported as usual, or deferred by
    :func:`lazy_module` and used since."""
    # a deferred module keeps LazyLoader's own module type until first used
    return type(sys.modules.get(name)) is types.ModuleType
