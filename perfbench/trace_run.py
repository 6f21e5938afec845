"""Run a benchmark plan in-process, alternately untraced and traced.

Usage (from run.py, with ``src`` on PYTHONPATH)::

    python3 perfbench/trace_run.py PLAN.json RESULT.json

``PLAN.json`` holds ``commands`` (premsel argument lists in which the
token ``{out}`` stands for the run's output directory), ``run_dirs``
(one fresh directory per run, used in order), ``seconds`` and
``min_pairs``.  After one untimed warm-up run, runs alternate untraced,
traced; a new pair starts while the last pair's duration still fits in
``seconds``, and at least ``min_pairs`` pairs run.

Tracing wraps the public functions of each premsel module at the module
or class attribute their callers look up, so the program itself is
unchanged.  Each call becomes a span (id, name, start, end, parent id,
thread id) kept in memory; a span's self time is its duration minus the
durations of its direct children.  The spans of the last traced run
are written to ``spans.jsonl`` in that run's directory.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from pathlib import Path

_t0 = time.perf_counter()
import premsel.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import premsel.corpus  # noqa: E402
import premsel.evaluate  # noqa: E402
import premsel.kernel  # noqa: E402
import premsel.minimize  # noqa: E402

# --- what gets wrapped: (owner, attribute, span name, note) ------------------


def _note_view(acc, args, result):
    acc["corpus.view_rows"] += len(result.rows)


def _note_featurize(acc, args, result):
    acc["features.dictionary_size"] = max(acc["features.dictionary_size"],
                                          len(args[0].dictionary))


def _note_solve(acc, args, result):
    # Computed from shapes, not measured: n^3/3 for the Cholesky factor plus
    # 2*n^2*p for the residual product (K + lam*I) @ A.
    n = len(args[0])
    p = result.shape[1] if result.ndim == 2 else 1
    acc["kernel.solve_gflop"] += (n**3 / 3 + 2 * n * n * p) / 1e9


def _note_grid(acc, args, result):
    acc["kernel.grid_points"] += len(result.table)


def _note_emit(acc, args, result):
    acc["evaluate.emit_bytes"] += sum(path.stat().st_size for path in result)


def _note_run(acc, args, result):
    acc["evaluate.errors"] += result.error_count


_cli, _corpus, _ev, _k, _min = (premsel.cli, premsel.corpus, premsel.evaluate,
                                premsel.kernel, premsel.minimize)

TARGETS = [
    (_cli, "load_corpus", "corpus.load", None),
    (_corpus, "parse_items", "fol.parse", None),
    (_corpus, "vectorize", "features.vectorize", None),
    (_corpus.Corpus, "ensure_featurized", "corpus.featurize", _note_featurize),
    (_corpus.Corpus, "training_view", "corpus.view", _note_view),
    (_cli, "run_incremental", "evaluate.run", _note_run),
    (_ev.NaiveBayesRanker, "advise", "evaluate.step", None),
    (_ev.KernelRidgeRanker, "advise", "evaluate.step", None),
    (_ev, "nb_train", "naive_bayes.train", None),
    (_ev, "nb_score", "naive_bayes.score", None),
    (_ev, "ridge_train", "kernel.train", None),
    (_k, "ridge_train", "kernel.train", None),
    (_ev, "ridge_score", "kernel.score", None),
    (_ev, "grid_search", "kernel.grid", _note_grid),
    (_k, "ridge_solve", "kernel.solve", _note_solve),
    (_k, "build_kernel_matrix", "kernel.gram", None),
    (_k, "cross_kernel", "kernel.gram", None),
    (_k, "_gram", "kernel.gram", None),
    (_k, "_kernelize", "kernel.gram", None),
    (_ev, "rank_advice", "evaluate.rank", None),
    (_ev, "recall_at", "evaluate.recall", None),
    (_ev, "chronological_fallback", "evaluate.fallback", None),
    (_cli, "chronological_fallback", "evaluate.fallback", None),
    (_cli, "report_csv", "evaluate.csv", None),
    (_cli, "write_loss_table", "evaluate.csv", None),
    (_cli, "emit_problems", "evaluate.emit", _note_emit),
    (_ev, "print_item", "fol.print", None),
    (_cli, "batch_minimize", "minimize.run", None),
    (_cli, "greedy_minimize", "minimize.run", None),
    (_min.SubprocessOracle, "__call__", "minimize.oracle", None),
    (_cli, "_write_metadata", "cli.metadata", None),
]

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "fol.parse_s": ("fol.parse",),
    "fol.print_s": ("fol.print",),
    "features.vectorize_s": ("features.vectorize",),
    "corpus.load_s": ("corpus.load",),
    "corpus.featurize_s": ("corpus.featurize",),
    "corpus.view_s": ("corpus.view",),
    "naive_bayes.train_s": ("naive_bayes.train",),
    "naive_bayes.score_s": ("naive_bayes.score",),
    "kernel.gram_s": ("kernel.gram",),
    "kernel.solve_s": ("kernel.solve",),
    "kernel.score_s": ("kernel.score",),
    "kernel.grid_s": ("kernel.grid",),
    "evaluate.rank_s": ("evaluate.rank",),
    "evaluate.recall_s": ("evaluate.recall",),
    "evaluate.csv_s": ("evaluate.csv",),
    "evaluate.emit_s": ("evaluate.emit",),
    "minimize.self_s": ("minimize.run",),
}
# per-layer metric -> span name whose calls it counts
CALLS = {
    "fol.print_calls": "fol.print",
    "corpus.view_calls": "corpus.view",
    "naive_bayes.train_calls": "naive_bayes.train",
    "kernel.solve_calls": "kernel.solve",
    "evaluate.steps": "evaluate.step",
    "evaluate.fallbacks": "evaluate.fallback",
    "minimize.oracle_calls": "minimize.oracle",
}
NOTED = ("features.dictionary_size", "corpus.view_rows", "kernel.solve_gflop",
         "kernel.grid_points", "evaluate.emit_bytes", "evaluate.errors")


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []
        self.reset()

    def reset(self):
        self.spans = []                      # (id, name, start, end, parent, thread)
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.step_s = []
        self.root_s = 0.0
        self.noted = dict.fromkeys(NOTED, 0)

    def _wrap(self, fn, name, note):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(sid, name, start, end, parent, frame[1], stack)
            if note is not None:
                note(tracer.noted, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _close(self, sid, name, start, end, parent, child_s, stack):
        duration = end - start
        self.spans.append((sid, name, start, end, parent, threading.get_ident()))
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        if name == "evaluate.step":
            self.step_s.append(duration)
        if stack:
            stack[-1][1] += duration
        else:
            self.root_s += duration

    def install(self):
        for owner, attr, name, note in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s: float) -> dict:
        out = {metric: sum(self.self_s.get(n, 0.0) for n in names)
               for metric, names in SELF_TIME.items()}
        out.update({metric: self.calls.get(name, 0) for metric, name in CALLS.items()})
        out.update(self.noted)
        out["minimize.oracle_wait_s"] = self.total_s.get("minimize.oracle", 0.0)
        steps = sorted(self.step_s)
        out["evaluate.step_p50_ms"] = 1000 * _quantile(steps, 0.50)
        out["evaluate.step_p99_ms"] = 1000 * _quantile(steps, 0.99)
        out["trace.uncovered_share"] = max(0.0, 1.0 - self.root_s / wall_s)
        # totals used to check what each workload loads
        out["phase.step_s"] = self.total_s.get("evaluate.step", 0.0)
        out["phase.emit_s"] = self.total_s.get("evaluate.emit", 0.0)
        return out


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_commands(commands, out_dir: Path) -> tuple[float, list[int]]:
    """Run each premsel command in this process; return wall time and exit codes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = []
    wall = 0.0
    for index, argv in enumerate(commands):
        argv = [arg.replace("{out}", str(out_dir)) for arg in argv]
        with open(out_dir / f"cmd{index}.out", "w", encoding="utf-8") as out, \
                open(out_dir / f"cmd{index}.err", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                premsel.cli.main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            wall += time.perf_counter() - start
        codes.append(code)
    return wall, codes


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    commands = plan["commands"]
    run_dirs = [Path(d) for d in plan["run_dirs"]]
    deadline = time.perf_counter() + plan["seconds"]
    tracer = Tracer()
    pairs = 0
    # The first in-process run pays one-time costs (lazy imports, first
    # calls); it is checked like the others but left out of the timings.
    wall, codes = run_commands(commands, run_dirs[0])
    runs = [{"traced": False, "warmup": True, "dir": str(run_dirs[0]), "wall_s": wall,
             "codes": codes}]
    pair_s = 0.0
    while pairs < plan["min_pairs"] or (time.perf_counter() + pair_s <= deadline
                                        and len(runs) + 2 <= len(run_dirs)):
        pair_start = time.perf_counter()
        for traced in (False, True):
            out_dir = run_dirs[len(runs)]
            tracer.reset()
            if traced:
                tracer.install()
            try:
                wall, codes = run_commands(commands, out_dir)
            finally:
                tracer.remove()
            run = {"traced": traced, "dir": str(out_dir), "wall_s": wall, "codes": codes}
            if traced:
                run["metrics"] = tracer.metrics(wall)
                spans = tracer.spans
            runs.append(run)
        pairs += 1
        pair_s = time.perf_counter() - pair_start
    with open(Path(runs[-1]["dir"]) / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    result = {
        "import_s": IMPORT_S,
        "runs": runs,
        "untraced_wall_s": statistics.median(r["wall_s"] for r in runs
                                             if not r["traced"] and not r.get("warmup")),
        "traced_wall_s": statistics.median(r["wall_s"] for r in runs if r["traced"]),
    }
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
