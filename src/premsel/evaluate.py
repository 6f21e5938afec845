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

from ._lazy import lazy_module
from .corpus import Corpus, TrainingView, check_roles
from .errors import ConfigError, CorpusError, PremselError, TrainingError
from .fol import print_item
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

np = lazy_module("numpy")

SEGMENT_COUNT = 4


@dataclass(frozen=True)
class RankedAdvice:
    """Premise positions of one pool in descending score order.

    ``premises`` is always a permutation of the pool's positions
    ``0 … pool-1``, and ``scores`` holds their scores.  Ties are broken
    by position, earlier first, so advice is deterministic.  ``fallback``
    marks pools that were returned in plain chronological order because
    the ranker could not be trained.
    """

    premises: tuple[int, ...]
    scores: tuple[float, ...]
    fallback: bool = False


def rank_advice(conjecture_id, scores) -> RankedAdvice:
    """Advice from the scores of premises ``0 … len(scores)-1``."""
    s = np.asarray(scores, dtype=float)
    # NaN compares false both ways, so sorting would silently keep pool order
    if not np.isfinite(s).all():
        raise TrainingError(f"non-finite premise score for {conjecture_id}")
    # a stable sort keeps equal scores (0.0 and -0.0 too) in pool order
    order = np.argsort(-s, kind="stable")
    return RankedAdvice(tuple(order.tolist()), tuple(s[order].tolist()))


def chronological_fallback(view: TrainingView) -> RankedAdvice:
    return RankedAdvice(tuple(range(view.pool)), (0.0,) * view.pool, fallback=True)


def recall_at(used, advice: RankedAdvice, n: int) -> float:
    """|used ∩ top-n advised| / |used|; n beyond the pool is clamped."""
    used = frozenset(used)
    if not used:
        raise ValueError("recall is undefined for an empty dependency set")
    if n < 1:
        raise ValueError("n must be positive")
    return len(used.intersection(advice.premises[:n])) / len(used)


class NaiveBayesRanker:
    """Naive Bayes advice from running counts: a view whose rows extend
    those of the previous view counts only its new rows, any other view
    counts from empty, so advice is a function of the view alone.  An
    empty pool gets chronological fallback advice.
    """

    def __init__(self, smoothing: float = 1.0):
        self.counts = NbCounts(smoothing)

    def advise(self, view: TrainingView) -> RankedAdvice:
        if not view.pool:
            return chronological_fallback(view)
        self.counts.sync(view.rows)
        scores = self.counts.score(view.pool, view.conjecture_features)
        return rank_advice(view.conjecture_id, scores)


class KernelRidgeRanker:
    """Multi-output ridge ranker ("mor") with grid-searched parameters.

    One rule picks the rows of a view's (lambda, sigma) search: its first
    two under ``regrid="once"``, all of them under ``"always"``, with the
    pool cut after the last.  A search is kept for the next view with the
    same searched rows, so under ``once``, whose rows every later view
    begins with, it runs once per walk.  Views with fewer than two rows
    or an empty pool cannot be trained and get chronological fallback
    advice.

    Scores come from one :class:`~premsel.kernel.RidgeFactor`, kept
    across the walk and synced to each view's rows at the searched
    point: a view appends only its new rows while that point stays the
    same, and restarts the factor when it changes.  The factor appends
    rows one at a time either way, so advice is a function of the view
    alone.  In a walk a theorem is scored as a conjecture one step
    before its row is appended, so the append reuses the score's forward
    solve when the two kernel rows are equal bit for bit, as when the
    conjecture's features, cut to those seen before it, are the row's.
    Search and factor run on numpy alone.
    """

    def __init__(self, kernel_kind: str = "gaussian",
                 grid: GridSearchConfig | None = None, regrid: str = "once"):
        if regrid not in ("once", "always"):
            raise ConfigError(f"regrid must be 'once' or 'always', got {regrid!r}")
        KernelSpec(kernel_kind)  # rejects an unknown kind before any step runs
        self.kernel_kind = kernel_kind
        self.grid = grid if grid is not None else GridSearchConfig()
        self.regrid = regrid
        # the last search and the rows it was made from
        self._searched: GridSearchResult | None = None
        self._searched_rows: tuple = ()
        self.factor = RidgeFactor()

    @property
    def search(self) -> GridSearchResult | None:
        """The walk's one search under ``regrid="once"``, else ``None``."""
        return self._searched if self.regrid == "once" else None

    def advise(self, view: TrainingView) -> RankedAdvice:
        if len(view.rows) < 2 or not view.pool:
            return chronological_fallback(view)
        rows = view.rows[:2] if self.regrid == "once" else view.rows
        # A tuple compare of the corpus's shared rows: mostly identity checks.
        if rows != self._searched_rows:
            pool = rows[-1].position + 1
            self._searched = grid_search(dataclasses.replace(view, rows=rows, pool=pool),
                                         self.kernel_kind, self.grid)
            self._searched_rows = rows
        self.factor.sync(view.rows, self._searched.best_kernel, self._searched.best_lambda)
        scores = self.factor.score(view.pool, view.conjecture_features)
        return rank_advice(view.conjecture_id, scores)


@dataclass(frozen=True)
class ConjectureOutcome:
    """One step of :func:`run_incremental`, built once the step is over."""

    conjecture_id: str
    position: int  # also the pool size: the pool is exactly the earlier items
    used_count: int
    fallback: bool
    # n -> recall value; None when the dependency set is empty
    recalls: dict[int, float] | None
    error: str | None


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
    in ``conjecture_roles`` (checked by :func:`check_roles` either way)."""
    roles = check_roles(conjecture_roles, "conjecture")
    if conjecture_ids is None:
        return [p for p, item in enumerate(corpus.items) if item.role in roles]
    positions = set()
    for cid in conjecture_ids:
        try:
            positions.add(corpus.position_of(cid))
        except CorpusError:
            raise ConfigError(f"unknown conjecture id {cid!r}") from None
    return sorted(positions)


def advise_at(corpus: Corpus, ranker, position: int) -> RankedAdvice:
    """``ranker.advise`` on the training view at ``position``, the step of
    every command that ranks; a ``MemoryError`` is re-raised with a
    message that names the step."""
    view = corpus.training_view(position)
    try:
        return ranker.advise(view)
    except MemoryError as exc:
        raise MemoryError(f"out of memory at {view.conjecture_id} (position {position}, "
                          f"{len(view.rows)} training rows)") from exc


def _averages(outcomes, n_values) -> dict[int, float]:
    """Mean recall@n over ``outcomes`` for each n; empty when there are none."""
    if not outcomes:
        return {}
    return {n: math.fsum(o.recalls[n] for o in outcomes) / len(outcomes) for n in n_values}


def run_incremental(
    corpus: Corpus,
    ranker,
    *,
    n_values,
    conjecture_ids=None,
    conjecture_roles=("theorem",),
) -> RecallReport:
    """Train-on-the-past / rank / score every selected conjecture, in
    position order.

    Each step is :func:`advise_at`: ``ranker.advise`` on the
    conjecture's training view, everything strictly earlier; the view
    lives only for its own step.  The ranker carries its state from one
    step to the next, but advice is a function of the view alone, so it
    does not depend on which other positions are selected.  A step's
    :class:`PremselError` becomes its outcome's ``error`` and the run
    continues; a ``MemoryError`` ends the run.
    """
    n_values = tuple(sorted(set(int(n) for n in n_values)))
    if not n_values or n_values[0] < 1:
        raise ConfigError("n values must be positive integers")
    positions = select_conjectures(corpus, conjecture_ids, conjecture_roles)
    outcomes = []
    for position in positions:
        used = corpus.rows[position].used
        fallback, recalls, error = False, None, None
        try:
            advice = advise_at(corpus, ranker, position)
        except PremselError as exc:
            error = str(exc)
        else:
            fallback = advice.fallback
            if used:
                recalls = {n: recall_at(used, advice, n) for n in n_values}
        outcomes.append(ConjectureOutcome(corpus.names[position], position, len(used),
                                          fallback, recalls, error))

    evaluated = [o for o in outcomes if o.recalls is not None]
    segments = []
    base, extra = divmod(len(evaluated), SEGMENT_COUNT)
    start = 0
    for index in range(SEGMENT_COUNT):
        size = base + 1 if index < extra else base
        chunk = evaluated[start : start + size]
        start += size
        segments.append(SegmentSummary(index, len(chunk), _averages(chunk, n_values)))
    return RecallReport(
        n_values=n_values,
        outcomes=tuple(outcomes),
        averages=_averages(evaluated, n_values),
        segments=tuple(segments),
        evaluated_count=len(evaluated),
        skipped_empty=sum(1 for o in outcomes if o.recalls is None and o.error is None),
        error_count=sum(1 for o in outcomes if o.error is not None),
    )


# ---------------------------------------------------------------------------
# CSV reporting
# ---------------------------------------------------------------------------


def write_csv(path, header, rows) -> None:
    """Write a header row and then ``rows`` as UTF-8 CSV, ``\\n`` line ends.

    Cells are :mod:`csv`'s: ``None`` is written empty, a float as its
    ``repr`` and anything else as its ``str``, so a bool must be mapped
    by the caller."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    write_csv(paths["conjectures"],
              ["conjecture_id", "position", "pool_size", "used_count", "fallback", "error"]
              + recall_cols,
              ([o.conjecture_id, o.position, o.position, o.used_count,
                "true" if o.fallback else "false", o.error]
               + [None if o.recalls is None else o.recalls[n] for n in report.n_values]
               for o in report.outcomes))
    write_csv(paths["average"], ["n", "average_recall"],
              ([n, report.averages[n]] for n in report.n_values if report.averages))
    write_csv(paths["segments"], ["segment", "count"] + recall_cols,
              ([seg.index, seg.count] + [seg.averages.get(n) for n in report.n_values]
               for seg in report.segments))
    return paths


# ---------------------------------------------------------------------------
# Problem emission
# ---------------------------------------------------------------------------

EMIT_MODES = ("bushy", "chainy", "advised")


def _safe_filename(identifier: str) -> str:
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in identifier)


def _write_problem(corpus: Corpus, position: int, axioms, out_dir: Path,
                   axiom_texts: dict[int, str]) -> Path:
    """Write the problem of the item at ``position`` with the items at the
    positions ``axioms`` as its axioms; ``axiom_texts`` caches each
    item's printed axiom-role text by position for the whole run."""
    conjecture = corpus.items[position]
    lines = []
    for at in axioms:
        text = axiom_texts.get(at)
        if text is None:
            item = dataclasses.replace(corpus.items[at], role="axiom")
            text = axiom_texts[at] = print_item(item)
        lines.append(text)
    lines.append(print_item(dataclasses.replace(conjecture, role="conjecture")))
    path = out_dir / f"{_safe_filename(conjecture.name)}.p"
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
) -> list[Path]:
    """One problem file per conjecture, named ``<id>.p``.

    Axioms are the conjecture's recorded dependencies (bushy), all
    chronologically earlier items (chainy), or the top-n premises of
    ``ranker.advise`` on the conjecture's training view (advised), whose
    error ends the run; the conjecture itself is emitted with role
    ``conjecture``.  Every file re-parses cleanly.  Each item's
    axiom-role text is printed once per run and reused by every file
    that lists it, so printing is linear in the corpus; chainy output
    still grows as N² bytes (on the rich benchmark corpus 3.8 MB at 250
    items, 64 MB at 1000 and about 280 MB at 2078).  A ``*.p`` file
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
        name = corpus.names[position]
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
    axiom_texts: dict[int, str] = {}
    for position in positions:
        if mode == "bushy":
            axioms = sorted(corpus.rows[position].used)
        elif mode == "chainy":
            axioms = range(position)
        else:
            axioms = advise_at(corpus, ranker, position).premises[:n]
        written.append(_write_problem(corpus, position, axioms, out, axiom_texts))
    return written
