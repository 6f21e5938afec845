"""The benchmark tracer wraps premsel functions by looking each one up
in its owner's ``__dict__``; a name missing there fails every traced
benchmark run, so each listed name must stay defined on its owner, and
a traced run must still see the layers it counts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_RUN = ROOT / "perfbench" / "trace_run.py"
TOY = ROOT / "data" / "toy"


def _load_trace_run():
    spec = importlib.util.spec_from_file_location("trace_run", TRACE_RUN)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    return trace_run


def test_every_target_is_defined_on_its_owner():
    trace_run = _load_trace_run()
    assert trace_run.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in trace_run.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_toy_run_counts_its_layers(tmp_path):
    trace_run = _load_trace_run()
    corpus = ["--formulas", str(TOY / "formulas.p"), "--deps", str(TOY / "deps.txt")]
    commands = [["eval", *corpus, "--jobs", "1", "--out-dir", "{out}/eval"],
                ["emit", *corpus, "--mode", "chainy", "--out-dir", "{out}/emit"]]
    tracer = trace_run.Tracer()
    tracer.install()
    try:
        _, codes = trace_run.run_commands(commands, tmp_path)
    finally:
        tracer.remove()
    assert codes == [0, 0]
    for name in ("corpus.featurize", "corpus.view", "evaluate.step"):
        assert tracer.calls.get(name, 0) > 0, name
