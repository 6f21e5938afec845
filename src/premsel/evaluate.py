"""Chronological incremental evaluation, recall metrics, problem
emission, and CSV reporting.

For every selected conjecture the harness trains a ranker on the view
of everything strictly before it, ranks the candidate pool, and records
recall@n against the conjecture's recorded proof dependencies.
Conjectures with no recorded dependencies are excluded from recall
averages (the metric is undefined for them) but are still counted and
still get emitted problem files.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, TrainingView
from .errors import ConfigError, PremselError, TrainingError
from .fol import ROLES, print_item
from .kernel import (
    GridSearchConfig,
    GridSearchResult,
    KernelSpec,
    RidgeFactor,
    grid_search,
    ridge_score,  # noqa: F401  unused here; perfbench/trace_run.py wraps it
    ridge_train,  # noqa: F401  unused here; perfbench/trace_run.py wraps it
)
from .naive_bayes import (
    NbCounts,
    nb_score,  # noqa: F401  unused here; perfbench/trace_run.py wraps it
    nb_train,  # noqa: F401  unused here; perfbench/trace_run.py wraps it
)

SEGMENT_COUNT = 4


@dataclass(frozen=True)
class RankedAdvice:
    """Premise ids of one pool in descending score order.

    The id list is always a permutation of the candidate pool.  Ties are
    broken by chronological position, earlier first, so advice is
    deterministic.  ``fallback`` marks pools that were returned in plain
    chronological order because the ranker could not be trained.
    """

    conjecture_id: str
    premise_ids: tuple[str, ...]
    scores: tuple[float, ...]
    fallback: bool = False


def rank_advice(conjecture_id, premise_ids, scores) -> RankedAdvice:
    s = np.asarray(scores, dtype=float)
    if len(s) != len(premise_ids):
        raise ValueError("scores and premise ids differ in length")
    # NaN compares false both ways, so sorting would silently keep pool order
    if not np.isfinite(s).all():
        raise TrainingError(f"non-finite premise score for {conjecture_id}")
    # a stable sort keeps equal scores (0.0 and -0.0 too) in pool order
    order = np.argsort(-s, kind="stable")
    return RankedAdvice(
        conjecture_id,
        tuple(premise_ids[j] for j in order.tolist()),
        tuple(s[order].tolist()),
    )


def chronological_fallback(view: TrainingView) -> RankedAdvice:
    return RankedAdvice(
        view.conjecture_id,
        view.premise_ids,
        tuple(0.0 for _ in view.premise_ids),
        fallback=True,
    )


def recall_at(used, advice: RankedAdvice, n: int) -> float:
    """|used ∩ top-n advised| / |used|; n beyond the pool is clamped."""
    used = frozenset(used)
    if not used:
        raise ValueError("recall is undefined for an empty dependency set")
    if n < 1:
        raise ValueError("n must be positive")
    top = advice.premise_ids[: min(n, len(advice.premise_ids))]
    return len(used.intersection(top)) / len(used)


class NaiveBayesRanker:
    """Naive Bayes advice from running counts: a view whose rows extend
    those of the previous view counts only its new rows, any other view
    counts from empty, so advice is a function of the view alone.  An
    empty pool gets chronological fallback advice.
    """

    def __init__(self, smoothing: float = 1.0):
        self.smoothing = smoothing
        self.counts = NbCounts(smoothing)

    def advise(self, view: TrainingView) -> RankedAdvice:
        if not view.premise_ids:
            return chronological_fallback(view)
        self.counts.sync(view.rows)
        scores = self.counts.score(len(view.premise_ids), view.conjecture_features)
        return rank_advice(view.conjecture_id, view.premise_ids, scores)


class KernelRidgeRanker:
    """Multi-output ridge ranker ("mor") with grid-searched parameters.

    ``regrid="always"`` searches (lambda, sigma) on every view.
    ``regrid="once"`` searches on the first trainable view of the walk,
    which every later view contains: the first two training rows and
    the pool up to the second of them.  Views with fewer than two rows
    or an empty pool cannot be trained and get chronological fallback
    advice.

    Scores come from one :class:`~premsel.kernel.RidgeFactor`, kept
    across the walk and synced to each view's rows at the searched
    point: a view appends only its new rows while that point stays the
    same, and restarts the factor when it changes.  The factor appends
    rows one at a time either way, so advice is a function of the view
    alone.
    """

    def __init__(self, kernel_kind: str = "gaussian",
                 grid: GridSearchConfig | None = None, regrid: str = "once"):
        if regrid not in ("once", "always"):
            raise ConfigError(f"regrid must be 'once' or 'always', got {regrid!r}")
        KernelSpec(kernel_kind)  # rejects an unknown kind before any step runs
        self.kernel_kind = kernel_kind
        self.grid = grid if grid is not None else GridSearchConfig()
        self.regrid = regrid
        # the regrid="once" search and the first two rows it was made from
        self.search: GridSearchResult | None = None
        self._search_rows: tuple = ()
        self.factor = RidgeFactor()

    def _search(self, view: TrainingView) -> GridSearchResult:
        if self.regrid == "always":
            return grid_search(view, self.kernel_kind, self.grid)
        first = view.rows[:2]
        # A tuple compare of the corpus's shared rows: mostly identity checks.
        if first != self._search_rows:
            pool = view.premise_ids[: first[1].position + 1]
            self.search = grid_search(dataclasses.replace(view, rows=first, premise_ids=pool),
                                      self.kernel_kind, self.grid)
            self._search_rows = first
        return self.search

    def advise(self, view: TrainingView) -> RankedAdvice:
        if len(view.rows) < 2 or not view.premise_ids:
            return chronological_fallback(view)
        search = self._search(view)
        self.factor.sync(view.rows, search.best_kernel, search.best_lambda)
        scores = self.factor.score(len(view.premise_ids), view.conjecture_features)
        return rank_advice(view.conjecture_id, view.premise_ids, scores)


@dataclass
class ConjectureOutcome:
    conjecture_id: str
    position: int
    pool_size: int
    used_count: int
    fallback: bool
    # n -> recall value; None when the dependency set is empty
    recalls: dict[int, float] | None
    error: str | None = None
    advice: RankedAdvice | None = None


@dataclass(frozen=True)
class SegmentSummary:
    index: int
    count: int
    averages: dict[int, float]


@dataclass
class RecallReport:
    n_values: tuple[int, ...]
    outcomes: tuple[ConjectureOutcome, ...]
    averages: dict[int, float]
    segments: tuple[SegmentSummary, ...]
    evaluated_count: int
    skipped_empty: int
    error_count: int


def select_conjectures(corpus: Corpus, conjecture_ids=None, conjecture_roles=("theorem",)):
    """Positions of the items to evaluate, in chronological order: those
    named in ``conjecture_ids``, or when it is None those whose role is
    in ``conjecture_roles`` (one or more of :data:`ROLES` either way)."""
    if not conjecture_roles or not set(conjecture_roles) <= set(ROLES):
        raise ConfigError(f"conjecture roles must be one or more of {', '.join(ROLES)}, "
                          f"got {', '.join(conjecture_roles) or 'none'}")
    if conjecture_ids is not None:
        for cid in conjecture_ids:
            if cid not in corpus:
                raise ConfigError(f"unknown conjecture id {cid!r}")
        positions = sorted({corpus.position_of(cid) for cid in conjecture_ids})
    else:
        roles = set(conjecture_roles)
        positions = [e.position for e in corpus.entries if e.role in roles]
    return positions


def advise_each(corpus: Corpus, ranker, positions, row_roles=("theorem",)):
    """Advice of ``ranker`` for each position, in order, each trained on
    everything strictly earlier.

    Yields the step's :class:`RankedAdvice`, or the :class:`PremselError`
    the step raised.  The ranker carries its state from one step to the
    next, but advice is a function of the step's view alone, so it does
    not depend on which other positions are selected.  Each training
    view lives only for its own step.
    """
    for position in positions:
        try:
            advice = ranker.advise(corpus.training_view(position, row_roles))
        except PremselError as exc:
            advice = exc
        yield advice


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def _segment_sizes(count: int) -> list[int]:
    base, extra = divmod(count, SEGMENT_COUNT)
    return [base + 1 if i < extra else base for i in range(SEGMENT_COUNT)]


def run_incremental(
    corpus: Corpus,
    ranker,
    *,
    n_values,
    conjecture_ids=None,
    conjecture_roles=("theorem",),
    row_roles=("theorem",),
    keep_advice: bool = False,
) -> RecallReport:
    """Train-on-the-past / rank / score every selected conjecture, in
    position order (see :func:`advise_each`).  Per-step training errors
    are recorded on the outcome and the run continues.
    """
    n_values = tuple(sorted(set(int(n) for n in n_values)))
    if not n_values or n_values[0] < 1:
        raise ConfigError("n values must be positive integers")
    positions = select_conjectures(corpus, conjecture_ids, conjecture_roles)
    outcomes = []
    for position, advice in zip(positions, advise_each(corpus, ranker, positions, row_roles)):
        entry = corpus.entries[position]
        used = entry.dependencies
        outcome = ConjectureOutcome(
            conjecture_id=entry.name,
            position=position,
            pool_size=position,  # the pool is exactly the earlier items
            used_count=len(used),
            fallback=False,
            recalls=None,
        )
        outcomes.append(outcome)
        if isinstance(advice, PremselError):
            outcome.error = str(advice)
            continue
        outcome.fallback = advice.fallback
        if keep_advice:
            outcome.advice = advice
        if used:
            outcome.recalls = {n: recall_at(used, advice, n) for n in n_values}

    evaluated = [o for o in outcomes if o.recalls is not None]
    averages = {n: _mean(o.recalls[n] for o in evaluated) for n in n_values} if evaluated else {}
    segments = []
    start = 0
    for index, size in enumerate(_segment_sizes(len(evaluated))):
        chunk = evaluated[start : start + size]
        start += size
        seg_avg = {n: _mean(o.recalls[n] for o in chunk) for n in n_values} if chunk else {}
        segments.append(SegmentSummary(index, len(chunk), seg_avg))
    return RecallReport(
        n_values=n_values,
        outcomes=tuple(outcomes),
        averages=averages,
        segments=tuple(segments),
        evaluated_count=len(evaluated),
        skipped_empty=sum(1 for o in outcomes if o.recalls is None and o.error is None),
        error_count=sum(1 for o in outcomes if o.error is not None),
    )


# ---------------------------------------------------------------------------
# CSV reporting
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv(report: RecallReport, out_dir) -> dict[str, Path]:
    """Write conjectures.csv, average.csv, and segments.csv into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "conjectures": out / "conjectures.csv",
        "average": out / "average.csv",
        "segments": out / "segments.csv",
    }
    recall_cols = [f"recall@{n}" for n in report.n_values]
    with open(paths["conjectures"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["conjecture_id", "position", "pool_size", "used_count", "fallback", "error"]
            + recall_cols
        )
        for o in report.outcomes:
            recalls = [
                _fmt(o.recalls[n]) if o.recalls is not None else "" for n in report.n_values
            ]
            writer.writerow(
                [o.conjecture_id, o.position, o.pool_size, o.used_count, _fmt(o.fallback),
                 o.error or ""]
                + recalls
            )
    with open(paths["average"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "average_recall"])
        for n in report.n_values:
            if report.averages:
                writer.writerow([n, _fmt(report.averages[n])])
    with open(paths["segments"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["segment", "count"] + recall_cols)
        for seg in report.segments:
            row = [seg.index, seg.count]
            row += [_fmt(seg.averages[n]) if seg.averages else "" for n in report.n_values]
            writer.writerow(row)
    return paths


# ---------------------------------------------------------------------------
# Problem emission
# ---------------------------------------------------------------------------

EMIT_MODES = ("bushy", "chainy", "advised")


def _safe_filename(identifier: str) -> str:
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in identifier)


def _write_problem(corpus: Corpus, position: int, axiom_ids, out_dir: Path) -> Path:
    entry = corpus.entries[position]
    lines = []
    for axiom_id in axiom_ids:
        axiom = corpus.entry(axiom_id)
        lines.append(print_item(dataclasses.replace(axiom.item, role="axiom")))
    lines.append(print_item(dataclasses.replace(entry.item, role="conjecture")))
    path = out_dir / f"{_safe_filename(entry.name)}.p"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit_problems(
    corpus: Corpus,
    mode: str,
    out_dir,
    *,
    conjecture_ids=None,
    conjecture_roles=("theorem",),
    n: int | None = None,
    ranker=None,
    row_roles=("theorem",),
) -> list[Path]:
    """One problem file per conjecture, named ``<id>.p``.

    Axioms are the conjecture's recorded dependencies (bushy), all
    chronologically earlier items (chainy), or the top-n ranked premises
    (advised); the conjecture itself is emitted with role
    ``conjecture``.  Every file re-parses cleanly.  A ``*.p`` file
    already in ``out_dir`` that this run would not write is a
    :class:`ConfigError`, raised before anything is written.
    """
    if mode not in EMIT_MODES:
        raise ConfigError(f"mode must be one of {', '.join(EMIT_MODES)}")
    if mode == "advised":
        if ranker is None or n is None or n < 1:
            raise ConfigError("advised emission needs a ranker and a positive n")
    positions = select_conjectures(corpus, conjecture_ids, conjecture_roles)
    owners: dict[str, str] = {}  # file name -> id, checked before anything is written
    for position in positions:
        name = corpus.entries[position].name
        other = owners.setdefault(_safe_filename(name), name)
        if other != name:
            raise ConfigError(f"conjectures {other!r} and {name!r} both map to "
                              f"{_safe_filename(name)}.p")
    out = Path(out_dir)
    # a problem file of an earlier run would pass for one of this run
    stale = sorted(path.name for path in out.glob("*.p") if path.stem not in owners)
    if stale:
        raise ConfigError(f"{out / stale[0]} is left from an earlier run; emit into an "
                          "empty directory or remove the earlier problem files")
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if mode == "advised":
        for position, advice in zip(positions, advise_each(corpus, ranker, positions, row_roles)):
            if isinstance(advice, PremselError):
                raise advice
            written.append(_write_problem(corpus, position, advice.premise_ids[:n], out))
        return written
    for position in positions:
        entry = corpus.entries[position]
        if mode == "bushy":
            axiom_ids = sorted(entry.dependencies, key=corpus.position_of)
        else:
            axiom_ids = [e.name for e in corpus.entries[:position]]
        written.append(_write_problem(corpus, position, axiom_ids, out))
    return written
