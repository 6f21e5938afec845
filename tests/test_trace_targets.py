"""The benchmark tracer wraps premsel functions by looking each one up
in its owner's ``__dict__``; a name missing there fails every traced
benchmark run, so each listed name must stay defined on its owner."""

import importlib.util
from pathlib import Path

TRACE_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "trace_run.py"


def test_every_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("trace_run", TRACE_RUN)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    assert trace_run.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in trace_run.TARGETS
               if attr not in owner.__dict__]
    assert missing == []
