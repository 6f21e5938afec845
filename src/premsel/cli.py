"""Command-line entry point: load, rank, evaluate, emit, minimize.

The parser is the standard library's ``argparse``, with no option
abbreviations; an option value that starts with ``-`` and is not a
negative number is attached with ``=`` (``--ids=-a,b``).  Exit codes:
0 success, 1 with no message when stdout closes early
(``premsel rank ... | head -1``), 2 configuration error (bad flags,
missing files, unknown ids, an output path that cannot be written),
3 corpus/formula parse error, 4 runtime error, 130 interrupted
(Ctrl-C).  Once a command given an ``--out-dir`` has returned,
:func:`main` writes ``run_metadata.json`` there, echoing the full
configuration and seed, enough to reproduce the run byte for byte.
``python -m premsel`` and the ``premsel`` script call :func:`run`: it
freezes the heap once the command has returned, so that shutdown skips
a collection over it, except under ``-W`` or dev mode, where shutdown
still finalizes every object.

Environment: ``eval``, ``rank`` and advised ``emit`` run OpenBLAS on
one thread.  Before numpy first runs they set
``OPENBLAS_NUM_THREADS=1``, unless one of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is
set, in which case the value set wins.  Their matrices are small,
so more OpenBLAS threads mostly spin between calls, and their outputs
were byte-identical with one and with two threads.  ``minimize``,
whose oracle inherits the environment, and a process in which numpy
has already run (library use) are left as they are.  Only OpenBLAS, as
in numpy's PyPI wheels, was measured; MKL and OpenMP builds were not.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shlex
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from ._lazy import executed
from .corpus import load_corpus
from .errors import ConfigError, CorpusError, PremselError
from .evaluate import (
    EMIT_MODES,
    KernelRidgeRanker,
    NaiveBayesRanker,
    chronological_fallback,  # noqa: F401  unused here; perfbench/trace_run.py wraps it
    emit_problems,
    report_csv,
    run_incremental,
    write_csv,
)
from .fol import ROLES
from .kernel import GridSearchConfig
from .minimize import SubprocessOracle, batch_minimize, greedy_minimize, write_trace_csv

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4
EXIT_INTERRUPTED = 130

# OpenBLAS reads the first three, in this order; MKL builds read the last.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

DEFAULT_N_SET = "1,2,3,4,5,6,7,8,9,10,20,30,40,50,60,70,80,90,100"


def _parse_floats(text: str | None, flag: str):
    if text is None:
        return None
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}")
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _parse_ints(text: str, flag: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"{flag} must be positive integers")
    return values


def _parse_names(text: str | None):
    if text is None:
        return None
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_selection(conjectures: str | None, conjecture_roles: str):
    """Ids of ``--conjectures`` (None selects by role) and ``--conjecture-roles``."""
    ids = _parse_names(conjectures)
    if ids == ():
        raise ConfigError("--conjectures names no item")
    return ids, _parse_names(conjecture_roles)


def _check_paths(paths):
    for path in paths:
        if not Path(path).is_file():
            raise ConfigError(f"input file not found: {path}")


def _check_out_dir(out_dir) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {out_dir}: {existing} is not a directory")


def _load(formula_paths, dep_path):
    _check_paths(list(formula_paths) + [dep_path])
    return load_corpus(formula_paths, dep_path)


def _build_ranker(ranker, kernel, lambda_grid, sigma_grid, split, chrono_split, regrid,
                  smoothing, train_rows, seed):
    """The command's ranker and the roles that contribute its training rows.

    Every command that ranks calls this before numpy first runs, so it
    is where OpenBLAS is held to one thread (see the module docstring).
    """
    if not executed("numpy") and not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    grids = {"lambda_grid": _parse_floats(lambda_grid, "--lambda-grid"),
             "sigma_grid": _parse_floats(sigma_grid, "--sigma-grid")}
    grid = GridSearchConfig(split=split, seed=seed, chronological=chrono_split,
                            **{k: v for k, v in grids.items() if v is not None})
    row_roles = ("theorem",) if train_rows == "theorems" else ROLES
    if ranker == "nb":
        if not 0 < smoothing < math.inf:
            raise ConfigError("--smoothing must be finite and positive")
        return NaiveBayesRanker(smoothing=smoothing), row_roles
    return KernelRidgeRanker(kernel_kind=kernel, grid=grid, regrid=regrid), row_roles


# parsed option name -> run_metadata.json option name
_OPTION_NAMES = {"formula_paths": "formulas", "dep_path": "deps", "top_n": "n"}
# neither changes what a run writes
_UNRECORDED = {"out_dir", "jobs"}


def _write_metadata(out_dir, command: str, params: dict) -> None:
    """Echo a command's parsed options into ``run_metadata.json``."""
    options = {_OPTION_NAMES.get(k, k): v for k, v in params.items() if k not in _UNRECORDED}
    if command == "emit" and options["mode"] != "advised":
        options["ranker"] = options["n"] = None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "version": __version__, "options": options}
    with open(out / "run_metadata.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def rank(formula_paths, dep_path, conjecture, top_n, out_dir, **ranker_flags):
    """Rank the premises available to one conjecture."""
    if top_n < 1:
        raise ConfigError("-n must be positive")
    _check_out_dir(out_dir)
    engine, row_roles = _build_ranker(**ranker_flags)
    corpus = _load(formula_paths, dep_path)
    if conjecture not in corpus:
        raise ConfigError(f"unknown conjecture id {conjecture!r}")
    advice = engine.advise(corpus.training_view(corpus.position_of(conjecture), row_roles))
    if advice.fallback:
        print("note: pool not trainable, advice is chronological", file=sys.stderr)
    n = min(top_n, len(advice.premise_ids))
    if n < top_n:
        print(f"warning: n={top_n} exceeds pool size {n}; returning whole pool", file=sys.stderr)
    for pid, score in zip(advice.premise_ids[:n], advice.scores[:n]):
        print(f"{pid}\t{score!r}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        top = zip(advice.premise_ids[:n], advice.scores[:n])
        write_csv(out / "advice.csv", ["rank", "premise_id", "score"],
                  ([i, *row] for i, row in enumerate(top)))


def write_loss_table(table, path) -> None:
    """Emit the grid-search loss table as CSV (lambda, sigma, loss)."""
    write_csv(path, ["lambda", "sigma", "validation_loss"], table)


def eval_cmd(formula_paths, dep_path, conjectures, conjecture_roles, n_set, jobs, out_dir,
             **ranker_flags):
    """Incremental evaluation: recall@n per conjecture plus averages."""
    n_values = _parse_ints(n_set, "--n-set")
    ids, roles = _parse_selection(conjectures, conjecture_roles)
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    _check_out_dir(out_dir)
    engine, row_roles = _build_ranker(**ranker_flags)
    corpus = _load(formula_paths, dep_path)
    report = run_incremental(corpus, engine, n_values=n_values, conjecture_ids=ids,
                             conjecture_roles=roles, row_roles=row_roles)
    paths = report_csv(report, out_dir)
    loss_table = Path(out_dir) / "grid_loss.csv"
    if getattr(engine, "search", None) is not None:
        write_loss_table(engine.search.table, loss_table)
    else:  # a table left by an earlier run would describe another configuration
        loss_table.unlink(missing_ok=True)
    print(f"evaluated {report.evaluated_count} conjectures "
          f"({report.skipped_empty} with no dependencies, {report.error_count} errors)")
    for name in ("conjectures", "average", "segments"):
        print(f"wrote {paths[name]}")


def emit(formula_paths, dep_path, mode, top_n, conjectures, conjecture_roles, out_dir,
         **ranker_flags):
    """Emit one problem file per conjecture."""
    ids, roles = _parse_selection(conjectures, conjecture_roles)
    _check_out_dir(out_dir)
    engine, row_roles = None, ()
    if mode == "advised":
        if top_n is None or top_n < 1:
            raise ConfigError("advised mode needs a positive -n")
        engine, row_roles = _build_ranker(**ranker_flags)
    corpus = _load(formula_paths, dep_path)
    written = emit_problems(
        corpus, mode, out_dir, conjecture_ids=ids, conjecture_roles=roles,
        n=top_n, ranker=engine, row_roles=row_roles,
    )
    print(f"wrote {len(written)} problem files to {out_dir}")


def minimize(oracle_cmd, ids, ids_file, order, batch, schedule, trace_csv, oracle_timeout,
             out_dir):
    """Reduce a dependency set to a 1-minimal sufficient subset."""
    if oracle_timeout is not None and not 0 < oracle_timeout < math.inf:
        raise ConfigError("--oracle-timeout must be finite and positive")
    try:
        command = shlex.split(oracle_cmd)
    except ValueError as exc:
        raise ConfigError(f"--oracle-cmd cannot be split into words: {exc}") from None
    if not command:
        raise ConfigError("--oracle-cmd names no command")
    if (ids is None) == (ids_file is None):
        raise ConfigError("give exactly one of --ids or --ids-file")
    if ids is not None:
        try:
            ids.encode("utf-8")  # undecodable argument bytes arrive as lone surrogates
        except UnicodeEncodeError:
            raise ConfigError("--ids is not UTF-8 text") from None
        candidates = list(_parse_names(ids))
    else:
        _check_paths([ids_file])
        try:
            with open(ids_file, encoding="utf-8") as handle:
                candidates = [line.strip() for line in handle if line.strip()]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{ids_file}: {exc}") from None
    if not candidates:
        raise ConfigError("candidate id list is empty")
    repeated = [c for c, count in Counter(candidates).items() if count > 1]
    if repeated:
        raise ConfigError(f"candidate id {repeated[0]!r} is given more than once")
    sizes = _parse_ints(schedule, "--schedule") if schedule is not None else None
    if sizes is not None and not batch:
        raise ConfigError("--schedule requires --batch")
    if batch and order == "reverse":
        raise ConfigError("--order reverse applies to the greedy pass only, not to --batch")
    if trace_csv is not None and not Path(trace_csv).parent.is_dir():
        raise ConfigError(f"--trace-csv {trace_csv}: {Path(trace_csv).parent} is not a directory")
    if trace_csv is not None and Path(trace_csv).is_dir():
        raise ConfigError(f"--trace-csv {trace_csv}: is a directory")
    _check_out_dir(out_dir)
    oracle = SubprocessOracle(command, timeout=oracle_timeout)
    if batch:
        result = batch_minimize(candidates, oracle, sizes)
    else:
        result = greedy_minimize(candidates, oracle, order)
    for kept in result.kept:
        print(kept)
    sys.stdout.flush()  # the ids come first also where stdout and stderr share one file
    print(f"oracle calls: {result.call_count}", file=sys.stderr)
    if trace_csv is not None:
        write_trace_csv(result, trace_csv)


COMMANDS = {"rank": rank, "eval": eval_cmd, "emit": emit, "minimize": minimize}


def _ranking_options(add) -> None:
    """The corpus and ranker options shared by ``rank``, ``eval`` and ``emit``."""
    add("--formulas", "-f", dest="formula_paths", action="append", required=True,
        metavar="FILE", help="Formula file; repeat for several, order = chronology.")
    add("--deps", dest="dep_path", required=True, metavar="FILE", help="Dependency file.")
    add("--ranker", choices=["nb", "mor"], default="nb",
        help="nb = naive Bayes, mor = multi-output ridge (default: %(default)s).")
    add("--kernel", choices=["gaussian", "linear"], default="gaussian",
        help="Kernel of the ridge ranker (default: %(default)s).")
    add("--lambda-grid", help="Comma-separated regularization grid (default: 2^-7..2^7).")
    add("--sigma-grid", help="Comma-separated kernel width grid (default: sigma^2 = 2^-3..2^9).")
    add("--split", type=float, default=0.70,
        help="Training fraction of the grid-search split (default: %(default)s).")
    add("--chrono-split", action="store_true",
        help="Split train/validation chronologically instead of shuffling.")
    add("--regrid", choices=["once", "always"], default="once",
        help="Re-run the grid search at every step or once (default: %(default)s).")
    add("--smoothing", type=float, default=1.0,
        help="Additive smoothing for the naive Bayes counts (default: %(default)s).")
    add("--train-rows", choices=["theorems", "all"], default="theorems",
        help="Roles that contribute training rows; all are premises (default: %(default)s).")
    add("--seed", type=int, default=0, help="Grid-search split seed (default: %(default)s).")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="premsel", description="Premise selection over first-order corpora.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"premsel, version {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name):
        doc = COMMANDS[name].__doc__
        sub = subparsers.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        return sub.add_argument

    add = command("rank")
    _ranking_options(add)
    add("--conjecture", required=True, help="Identifier of the item to rank for.")
    add("-n", "--top", dest="top_n", type=int, default=10,
        help="Number of premises printed (default: %(default)s).")
    add("--out-dir", help="Also write advice.csv and metadata here.")

    add = command("eval")
    _ranking_options(add)
    add("--conjectures", help="Comma-separated ids to evaluate.")
    add("--conjecture-roles", default="theorem",
        help="Roles evaluated when --conjectures is not given (default: %(default)s).")
    add("--n-set", default=DEFAULT_N_SET,
        help="Comma-separated n values for recall@n (default: %(default)s).")
    # accepted without effect: perfbench/workloads.py and tests/test_trace_targets.py pass it
    add("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    add("--out-dir", required=True)

    add = command("emit")
    _ranking_options(add)
    add("--mode", choices=EMIT_MODES, required=True)
    add("-n", "--top", dest="top_n", type=int, help="Number of advised premises (advised only).")
    add("--conjectures", help="Comma-separated ids to emit.")
    add("--conjecture-roles", default="theorem",
        help="Roles emitted when --conjectures is not given (default: %(default)s).")
    add("--out-dir", required=True)

    add = command("minimize")
    add("--oracle-cmd", required=True, help="Command run per probe; candidate ids on stdin, "
                                             "exit 0 = sufficient; its output is discarded.")
    add("--ids", help="Comma-separated candidate ids.")
    add("--ids-file", help="File with one candidate id per line.")
    add("--order", choices=["given", "reverse"], default="given",
        help="Order of the greedy pass; not with --batch (default: %(default)s).")
    add("--batch", action="store_true", help="Chunked passes before the element-wise pass.")
    add("--schedule", help="Comma-separated chunk sizes for --batch.")
    add("--trace-csv", help="Write the removal trace here.")
    add("--oracle-timeout", type=float, metavar="SECONDS",
        help="Kill a probe after this long and count it insufficient (default: none).")
    add("--out-dir", help="Also write metadata here.")
    return parser


def main(argv=None) -> int:
    """Run one command line; return 0 or raise ``SystemExit`` with the exit code."""
    try:
        try:
            options = vars(_parser().parse_args(argv))
            command = options.pop("command")
            COMMANDS[command](**options)
            if options["out_dir"] is not None:
                _write_metadata(options["out_dir"], command, options)
        finally:  # also after an error: a closed stdout fails here, not at interpreter exit
            sys.stdout.flush()
    except KeyboardInterrupt:
        code, message = EXIT_INTERRUPTED, "aborted"
    except BrokenPipeError:  # a failed flush keeps the bytes: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, f"configuration error: {exc}"
    except CorpusError as exc:
        code, message = EXIT_PARSE, f"parse error: {exc}"
    except (PremselError, OSError) as exc:
        code, message = EXIT_RUNTIME, f"error: {exc}"
    else:
        return 0
    print(message, file=sys.stderr)
    sys.exit(code)


def run() -> None:
    """``main`` for a process of its own; see the module docstring."""
    try:
        main()
    finally:
        if not (sys.warnoptions or sys.flags.dev_mode):
            gc.freeze()


if __name__ == "__main__":
    run()
