"""premsel benchmark: seeded workloads through the premsel command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a premsel source checkout; it runs the program
from ``src/`` and, apart from Python's bytecode caches, writes only under
``.perfbench_work/`` there.  The workloads and the reason for each are in
``workloads.py``; inputs come from ``corpus.py``, which uses the test
suite's own corpus generator.

``--trace 0`` measures the end-to-end metrics.  Within ``--seconds`` it
alternates two kinds of repeat, each command a fresh ``python -m
premsel`` process:

- a set-up repeat, the workload's first command restricted to the first
  conjecture, timed as ``setup_s``;
- a full repeat, the workload's commands, timed as ``wall_s``, with
  ``cpu_s`` (user + sys) and ``peak_rss_mb`` read from each child's own
  rusage through ``os.wait4``.

Each metric is the median over the repeats.  ``recall_at_10`` is exact:
``average.csv``'s recall@10 for ``eval`` workloads, and for the hand-off
the recall@10 of the minimized premise lists (1 when they are right).

``--trace 1`` runs the workload in one child process, in-process and
alternately untraced and traced (``trace_run.py``), and reports the
per-layer metrics as medians over the traced runs.

Every repeat's outputs are checked; a failed check, a non-zero exit or a
step with an error counts as a failed operation.  The last line of
standard output is the JSON result.  The full record, with generator
parameters and sha256 of every input file, versions, thread environment
and every sample, is written to
``.perfbench_work/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0        # children still running past this are killed
MIN_REPEATS = 3            # full repeats, even past --seconds
MAX_TRACE_RUNS = 40
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "NUMEXPR_NUM_THREADS", "PYTHON_CPU_COUNT")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "recall_at_10": "share",
}
PER_LAYER = {
    "fol.parse_s": "s", "fol.print_s": "s", "fol.print_calls": "count",
    "features.vectorize_s": "s", "features.dictionary_size": "count",
    "corpus.load_s": "s", "corpus.featurize_s": "s", "corpus.view_s": "s",
    "corpus.view_calls": "count", "corpus.view_rows": "count",
    "naive_bayes.train_s": "s", "naive_bayes.score_s": "s",
    "naive_bayes.train_calls": "count",
    "kernel.gram_s": "s", "kernel.solve_s": "s", "kernel.solve_calls": "count",
    "kernel.solve_gflop": "GFLOP", "kernel.score_s": "s", "kernel.grid_s": "s",
    "kernel.grid_points": "count",
    "evaluate.steps": "count", "evaluate.step_p50_ms": "ms", "evaluate.step_p99_ms": "ms",
    "evaluate.rank_s": "s", "evaluate.recall_s": "s", "evaluate.csv_s": "s",
    "evaluate.emit_s": "s", "evaluate.emit_bytes": "bytes",
    "evaluate.fallbacks": "count", "evaluate.errors": "count",
    "minimize.oracle_calls": "count", "minimize.oracle_wait_s": "s",
    "minimize.self_s": "s",
    "cli.import_s": "s", "trace.overhead_s": "s", "trace.uncovered_share": "share",
}
# Counts that must repeat exactly across traced runs of one workload and seed.
EXACT_COUNTS = ("kernel.solve_calls", "corpus.view_rows", "fol.print_calls",
                "kernel.grid_points", "minimize.oracle_calls", "evaluate.fallbacks",
                "evaluate.steps", "naive_bayes.train_calls", "corpus.view_calls",
                "evaluate.errors", "features.dictionary_size")
# Derived from shapes or file sizes rather than timed.
COMPUTED = ("kernel.solve_gflop", "evaluate.emit_bytes")

PROBE = """
import json, platform, sys
import numpy, scipy
import premsel.cli
def blas(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:
        return {"error": repr(exc)}
print(json.dumps({"python": sys.version, "platform": platform.platform(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
                  "premsel": premsel.__version__}))
"""


class Tally:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(message)
        return ok


# --- child processes ----------------------------------------------------------


def child_env() -> dict:
    """The environment as found, plus ``src`` on PYTHONPATH.  Thread
    variables are left alone: the program's own BLAS threading is part of
    what is measured."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, out_path: Path, err_path: Path, deadline: float) -> dict:
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS from that child's own rusage."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def run_commands(commands, out_dir: Path, deadline: float) -> dict:
    """Run a repeat's premsel commands in order, each in a fresh process."""
    out_dir.mkdir(parents=True)
    total = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "codes": []}
    for index, argv in enumerate(commands):
        argv = [arg.replace("{out}", str(out_dir)) for arg in argv]
        sample = spawn([sys.executable, "-m", "premsel", *argv],
                       out_dir / f"cmd{index}.out", out_dir / f"cmd{index}.err", deadline)
        total["wall_s"] += sample["wall_s"]
        total["cpu_s"] += sample["cpu_s"]
        total["peak_rss_mb"] = max(total["peak_rss_mb"], sample["peak_rss_mb"])
        total["codes"].append(sample["code"])
    return total


# --- inputs and plan ----------------------------------------------------------


class Inputs:
    """The generated corpus, parsed once for planning and checking."""

    def __init__(self, workload, seed: int, work: Path):
        import corpus
        from premsel import parse_items
        from premsel.corpus import parse_dependency_lines

        self.dir = work / "corpus"
        self.record = corpus.write_corpus(ROOT, self.dir, workload.corpus,
                                          workload.n_items, seed)
        self.formulas = self.dir / "formulas.p"
        self.deps_path = self.dir / "deps.txt"
        self.items = parse_items(self.formulas.read_text(encoding="utf-8"))
        self.names = [item.name for item in self.items]
        position = {name: i for i, name in enumerate(self.names)}
        self.deps = parse_dependency_lines(self.deps_path.read_text(encoding="utf-8"),
                                           position)
        self.theorems = [item.name for item in self.items if item.role == "theorem"]


def build_plan(workload, inputs: Inputs, work: Path) -> dict:
    corpus_flags = ["-f", str(inputs.formulas), "--deps", str(inputs.deps_path)]
    first = inputs.theorems[0]
    if workload.eval_flags is not None:
        base = ["eval", *corpus_flags, *workload.eval_flags]
        return {"full": [[*base, "--out-dir", "{out}"]],
                "setup": [[*base, "--conjectures", first, "--out-dir", "{out}"]],
                "minimize": []}
    emit = ["emit", *corpus_flags, "--mode", "chainy"]
    plan = {"full": [[*emit, "--out-dir", "{out}/problems"]],
            "setup": [[*emit, "--conjectures", first, "--out-dir", "{out}/problems"]],
            "minimize": []}
    late = [name for name in inputs.theorems if inputs.deps.get(name)]
    oracle = HERE / "oracle.sh"
    for target in late[-workload.minimize_count:]:
        position = inputs.names.index(target)
        ids_file = work / f"chainy_{target}.txt"
        need_file = work / f"needed_{target}.txt"
        ids_file.write_text("".join(f"{n}\n" for n in inputs.names[:position]),
                            encoding="utf-8")
        need_file.write_text("".join(f"{n}\n" for n in sorted(inputs.deps[target])),
                             encoding="utf-8")
        oracle_cmd = shlex.join(["sh", str(oracle), str(need_file)])
        plan["full"].append(["minimize", "--oracle-cmd", oracle_cmd,
                             "--ids-file", str(ids_file), "--batch"])
        plan["minimize"].append(target)
    return plan


# --- output checks ------------------------------------------------------------


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_eval(out: Path, expected_ids, tally: Tally) -> dict:
    """conjectures.csv row per selected conjecture, steps without error,
    averages that match the per-conjecture rows; returns output hashes
    and recall@10."""
    with open(out / "conjectures.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    tally.check([r["conjecture_id"] for r in rows] == list(expected_ids),
                f"{out}: conjectures.csv does not hold one row per selected conjecture")
    for row in rows:
        tally.check(row["error"] == "", f"{out}: step {row['conjecture_id']}: {row['error']}")
    with open(out / "average.csv", encoding="utf-8", newline="") as handle:
        averages = {int(r["n"]): float(r["average_recall"]) for r in csv.DictReader(handle)}
    scored = [r for r in rows if r["recall@1"] != ""]
    recomputed = {n: math.fsum(float(r[f"recall@{n}"]) for r in scored) / len(scored)
                  for n in averages} if scored else {}
    tally.check(averages == recomputed, f"{out}: average.csv disagrees with conjectures.csv")
    hashes = {name: sha256_bytes((out / name).read_bytes())
              for name in ("conjectures.csv", "average.csv", "segments.csv")}
    return {"hashes": hashes, "recall_at_10": averages.get(10, 0.0)}


def _safe_filename(identifier: str) -> str:
    # The documented `<id>.p` naming, restated so the check does not trust
    # the code under test.
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in identifier)


def check_problems(problems: Path, expected_ids, inputs: Inputs, parsed: dict,
                   tally: Tally) -> str:
    """Every chainy problem re-parses to the earlier items as axioms and the
    conjecture last, each formula equal to the corpus's; returns a hash of
    all problem files.  ``parsed`` caches the parse of each distinct line."""
    from premsel import FofSyntaxError, parse_item

    position = {name: i for i, name in enumerate(inputs.names)}
    files = sorted(p.name for p in problems.glob("*.p"))
    tally.check(files == sorted(f"{_safe_filename(c)}.p" for c in expected_ids),
                f"{problems}: emitted files are not one per selected conjecture")
    digest = hashlib.sha256()
    for conjecture in expected_ids:
        path = problems / f"{_safe_filename(conjecture)}.p"
        if not path.is_file():
            continue
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines = data.decode("utf-8").splitlines()
        expected = inputs.names[: position[conjecture]] + [conjecture]
        ok = len(lines) == len(expected)
        for k, (line, name) in enumerate(zip(lines, expected)):
            item = parsed.get(line)
            if item is None:
                try:
                    item = parsed[line] = parse_item(line)
                except FofSyntaxError as exc:
                    ok = tally.check(False, f"{path}: line {k + 1} does not parse: {exc}")
                    break
            role = "conjecture" if k == len(expected) - 1 else "axiom"
            original = inputs.items[position[name]]
            if (item.name, item.role, item.formula) != (name, role, original.formula):
                ok = False
        tally.check(ok, f"{path}: problem does not re-parse to the expected items")
    return digest.hexdigest()


def check_minimize(out: Path, first_index: int, targets, inputs: Inputs,
                   tally: Tally) -> dict:
    """Each minimized set equals the conjecture's recorded dependencies."""
    recalls, calls, hashes = [], [], []
    for offset, target in enumerate(targets):
        stdout = (out / f"cmd{first_index + offset}.out").read_bytes()
        stderr = (out / f"cmd{first_index + offset}.err").read_text(encoding="utf-8")
        kept = stdout.decode("utf-8").split()
        needed = inputs.deps[target]
        tally.check(set(kept) == needed and len(kept) == len(needed),
                    f"{out}: minimized set of {target} is not its dependency set")
        recalls.append(len(needed.intersection(kept[:10])) / len(needed))
        calls.append(next((int(line.split(":")[1]) for line in stderr.splitlines()
                           if line.startswith("oracle calls:")), -1))
        hashes.append(sha256_bytes(stdout))
    return {"recall_at_10": math.fsum(recalls) / len(recalls) if recalls else 0.0,
            "oracle_calls": calls, "hashes": hashes}


def check_repeat(workload, plan, inputs, out: Path, expected_ids, codes, parsed,
                 tally: Tally) -> dict:
    for index, code in enumerate(codes):
        tally.check(code == 0, f"{out}: command {index} exited with {code}")
    if any(codes):
        return {"hashes": None, "recall_at_10": 0.0}
    if workload.eval_flags is not None:
        return check_eval(out, expected_ids, tally)
    problems = check_problems(out / "problems", expected_ids, inputs, parsed, tally)
    result = {"hashes": {"problems": problems}, "recall_at_10": 0.0}
    if len(codes) > 1:
        minimized = check_minimize(out, 1, plan["minimize"], inputs, tally)
        result["hashes"]["minimized"] = minimized["hashes"]
        result["hashes"]["oracle_calls"] = minimized["oracle_calls"]
        result["recall_at_10"] = minimized["recall_at_10"]
    return result


def check_identical(results, what: str, tally: Tally) -> None:
    """The outputs of every repeat are byte-identical to the first's."""
    for k, result in enumerate(results[1:], start=2):
        tally.check(result["hashes"] == results[0]["hashes"],
                    f"{what} repeat {k}: outputs differ from repeat 1")


# --- the two modes ------------------------------------------------------------


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def measure(workload, plan, inputs, work: Path, seconds: int, start: float,
            tally: Tally) -> tuple[dict, dict]:
    """Alternate set-up and full repeats for ``seconds``; medians.  A new
    pair starts only if the last pair's duration still fits."""
    hard_stop = start + RUN_LIMIT_S
    deadline = time.monotonic() + seconds
    parsed: dict = {}
    samples = {"setup": [], "full": []}
    results = {"setup": [], "full": []}
    expected = {"setup": inputs.theorems[:1], "full": inputs.theorems}
    pair_s = 0.0
    while (len(samples["full"]) < MIN_REPEATS
           or time.monotonic() + pair_s <= deadline) and time.monotonic() < hard_stop:
        pair_start = time.monotonic()
        for kind in ("setup", "full"):
            out = work / f"{kind}{len(samples[kind])}"
            sample = run_commands(plan[kind], out, hard_stop)
            samples[kind].append(sample)
            results[kind].append(check_repeat(workload, plan, inputs, out, expected[kind],
                                              sample["codes"], parsed, tally))
            shutil.rmtree(out)
        pair_s = time.monotonic() - pair_start
    for kind in ("setup", "full"):
        check_identical(results[kind], kind, tally)
    full, setup = samples["full"], samples["setup"]
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in full),
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "cpu_s": statistics.median(s["cpu_s"] for s in full),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in full),
        "recall_at_10": results["full"][0]["recall_at_10"],
    }
    detail = {
        "samples": samples,
        "quartiles": {"wall_s": quartiles([s["wall_s"] for s in full]),
                      "setup_s": quartiles([s["wall_s"] for s in setup]),
                      "cpu_s": quartiles([s["cpu_s"] for s in full])},
        "outputs": results["full"][0]["hashes"],
        # Not an end-to-end metric: it is 0 on every workload but the hand-off.
        "oracle_calls": sum((results["full"][0]["hashes"] or {}).get("oracle_calls", [])),
    }
    return metrics, detail


def trace(workload, plan, inputs, work: Path, seconds: int, start: float,
          tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced in-process runs in one child; per-layer medians."""
    run_dirs = [work / f"trace{k}" for k in range(MAX_TRACE_RUNS)]
    plan_path = work / "trace_plan.json"
    result_path = work / "trace_result.json"
    plan_path.write_text(json.dumps({"commands": plan["full"], "seconds": seconds,
                                     "min_pairs": 2,
                                     "run_dirs": [str(d) for d in run_dirs]}),
                         encoding="utf-8")
    child = spawn([sys.executable, str(HERE / "trace_run.py"), str(plan_path),
                   str(result_path)], work / "trace.out", work / "trace.err",
                  start + RUN_LIMIT_S)
    if not tally.check(child["code"] == 0 and result_path.is_file(),
                       f"traced run exited with {child['code']}, see {work / 'trace.err'}"):
        return {name: 0 for name in PER_LAYER}, {"child": child}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    parsed: dict = {}
    checked = []
    for run in result["runs"]:
        checked.append(check_repeat(workload, plan, inputs, Path(run["dir"]),
                                    inputs.theorems, run["codes"], parsed, tally))
    check_identical(checked, "traced/untraced", tally)
    traced = [run["metrics"] for run in result["runs"] if run["traced"]]
    for name in EXACT_COUNTS + COMPUTED:
        tally.check(len({m[name] for m in traced}) == 1,
                    f"{name} differs across traced runs: {[m[name] for m in traced]}")
    # Times are medians over the traced runs; counts are checked equal above
    # and reported as counted, as are the values computed from them.
    metrics = {name: traced[0][name] if name in EXACT_COUNTS + COMPUTED
               else statistics.median(m[name] for m in traced)
               for name in traced[0] if name in PER_LAYER}
    metrics["cli.import_s"] = result["import_s"]
    metrics["trace.overhead_s"] = result["traced_wall_s"] - result["untraced_wall_s"]
    phases = {name: statistics.median(m[name] for m in traced)
              for name in ("phase.step_s", "phase.emit_s")}
    detail = {"runs": result["runs"],
              "phases": phases, "shares": shares(metrics, phases, result["traced_wall_s"]),
              "spans": str(Path(result["runs"][-1]["dir"]) / "spans.jsonl")}
    for run_dir in run_dirs[: len(result["runs"]) - 1]:
        shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, detail


def shares(m: dict, phases: dict, wall: float) -> dict:
    """The ratios that show which layer a workload loads, each with its base."""
    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "naive_bayes_of_traced_wall": ratio(m["naive_bayes.train_s"] + m["naive_bayes.score_s"], wall),
        "solve_gram_of_step_time": ratio(m["kernel.solve_s"] + m["kernel.gram_s"],
                                         phases["phase.step_s"]),
        "solve_calls_per_step": ratio(m["kernel.solve_calls"], m["evaluate.steps"]),
        "print_of_emit_phase": ratio(m["fol.print_s"], phases["phase.emit_s"]),
    }


# --- entry point --------------------------------------------------------------


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise SystemExit(f"perfbench: cannot import premsel from {ROOT / 'src'}:\n"
                         f"{probe.stderr}")
    found = json.loads(probe.stdout.strip().splitlines()[-1])
    found["nproc"] = os.cpu_count()
    found["affinity_cpus"] = len(os.sched_getaffinity(0))
    found["thread_env"] = {name: os.environ.get(name) for name in THREAD_VARS}
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    for needed in ("src/premsel/cli.py", "tests/helpers.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {ROOT / needed} not found; run from a premsel source "
                  "checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()         # also fills the bytecode cache before timing
    inputs = Inputs(workload, args.seed, work)
    plan = build_plan(workload, inputs, work)
    tally = Tally()
    if args.trace:
        metrics, detail = trace(workload, plan, inputs, work, args.seconds, start, tally)
        units = PER_LAYER
    else:
        metrics, detail = measure(workload, plan, inputs, work, args.seconds, start, tally)
        units = END_TO_END
    error_share = tally.failed / tally.attempted
    record = {
        "workload": vars(workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": inputs.record, "environment": env, "plan": plan,
        "metrics": metrics, "computed_not_measured": list(COMPUTED),
        "attempted": tally.attempted, "failed": tally.failed,
        "error_share": error_share, "failures": tally.failures, "detail": detail,
        "elapsed_s": time.monotonic() - start,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str),
                                      encoding="utf-8")
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"({record['elapsed_s']:.1f} s)")
    for name, unit in units.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name:28s} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'error_share':28s} {error_share:.6g} share "
          f"({tally.failed} of {tally.attempted} operations failed)")
    if "oracle_calls" in detail:
        print(f"  {'oracle_calls':28s} {detail['oracle_calls']} count")
    if "shares" in detail:
        for name, value in detail["shares"].items():
            print(f"  {name:28s} {value:.4g}")
    for message in tally.failures:
        print(f"  FAILED: {message}")
    blas = env["numpy_blas"].get("version", env["numpy_blas"])
    print(f"  environment: nproc={env['nproc']} python={env['python'].split()[0]} "
          f"numpy={env['numpy']} scipy={env['scipy']} openblas={blas} "
          f"thread_env={ {k: v for k, v in env['thread_env'].items() if v is not None} }")
    print(f"  record: {work / 'result.json'}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
