"""Per-premise naive Bayes ranking over binary formula features.

For each candidate premise the model keeps add-one smoothed counts of
how often each feature occurred among the training rows that used the
premise, plus the global per-feature row counts.  Scoring a conjecture
sums, over its features, the smoothed log-odds of the feature given
"premise was used" versus "premise was not used", and adds the smoothed
prior log-odds of the premise.  Only features present in the conjecture
contribute, which keeps scoring linear in the conjecture size.

:func:`nb_train` and :func:`nb_score` are the reference: they count
one view from scratch and score one premise at a time.
:class:`NbCounts` keeps the same counts for a growing row sequence and
scores every premise at once, bit for bit as the reference does.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from ._lazy import lazy_module
from .corpus import RowState, TrainingRow, TrainingView
from .errors import ConfigError, TrainingError
from .features import FeatureVector

np = lazy_module("numpy")


@dataclass
class NbModel:
    """Trained classifier state for every premise of one training pool,
    the ``pool`` positions ``0 … pool-1``.

    ``priors[p]`` is the smoothed prior log-odds of premise p being
    used.  ``bases[p]`` is the log-odds weight shared by every feature
    that occurred in no training row.  Weights of other features derive
    from the stored counts; see :meth:`weight`.
    """

    pool: int
    row_count: int
    smoothing: float
    uses: tuple[int, ...]
    priors: tuple[float, ...]
    bases: tuple[float, ...]
    feature_row_counts: dict[int, int]
    positive_counts: tuple[dict[int, int], ...]

    def weight(self, premise: int, feature: int) -> float:
        """Log-odds weight of one feature index for one premise."""
        a = self.smoothing
        used = self.uses[premise]
        unused = self.row_count - used
        cp = self.positive_counts[premise].get(feature, 0)
        cn = self.feature_row_counts.get(feature, 0) - cp
        return math.log((cp + a) / (used + 2 * a)) - math.log((cn + a) / (unused + 2 * a))


def _prior(row_count: int, u: int, smoothing: float) -> float:
    return math.log((u + smoothing) / (row_count - u + smoothing))


def _base(row_count: int, u: int, smoothing: float) -> float:
    return math.log(row_count - u + 2 * smoothing) - math.log(u + 2 * smoothing)


def _check_smoothing(smoothing: float) -> None:
    if not 0 < smoothing < math.inf:
        raise ConfigError("smoothing must be finite and positive")


def nb_train(view: TrainingView, smoothing: float = 1.0) -> NbModel:
    """Train one classifier per candidate premise of ``view``.

    Counting is a single pass over the rows; training different
    premises shares the per-feature row totals.
    """
    _check_smoothing(smoothing)
    pool = view.pool
    if pool == 0:
        raise TrainingError("empty premise pool")
    uses = [0] * pool
    totals: dict[int, int] = {}
    positive: list[dict[int, int]] = [{} for _ in range(pool)]
    for row in view.rows:
        if row.features is None:
            raise TrainingError("training row without a feature vector")
        for i in row.features.indices:
            totals[i] = totals.get(i, 0) + 1
        for p in row.used:
            uses[p] += 1
            counts = positive[p]
            for i in row.features.indices:
                counts[i] = counts.get(i, 0) + 1
    rows = len(view.rows)
    return NbModel(
        pool=pool,
        row_count=rows,
        smoothing=smoothing,
        uses=tuple(uses),
        priors=tuple(_prior(rows, u, smoothing) for u in uses),
        bases=tuple(_base(rows, u, smoothing) for u in uses),
        feature_row_counts=totals,
        positive_counts=positive,
    )


def nb_score(model: NbModel, features: FeatureVector) -> np.ndarray:
    """Score every premise for a conjecture with the given features.

    Feature indices unknown to the model's dictionary must already have
    been dropped (:meth:`Corpus.training_view` cuts them from the view).
    """
    idx = features.indices
    k = len(idx)
    totals = model.feature_row_counts
    tots = [totals.get(i, 0) for i in idx]
    a = model.smoothing
    # counts are bounded by the row count, so log values come from a table
    logs = [math.log(c + a) for c in range(model.row_count + 1)]
    scores = np.empty(model.pool)
    for p in range(model.pool):
        counts = model.positive_counts[p]
        s = model.priors[p] + k * model.bases[p]
        for i, tot in zip(idx, tots):
            cp = counts.get(i, 0)
            s += logs[cp] - logs[tot - cp]
        scores[p] = s
    return scores


class NbCounts(RowState):
    """Naive Bayes counts of a row sequence that grows between uses.

    :meth:`~premsel.corpus.RowState.sync` brings the counts to a given
    row sequence, counting only the rows past the prefix already
    counted; a sequence that does not extend that prefix is counted from
    empty.  :meth:`score` then equals ``nb_score(nb_train(view),
    features)`` for any view with those rows, bit for bit.

    Per feature it keeps the premise positions used by the rows that
    contain the feature, one entry per (row, used premise) pair, so a
    premise's count for the feature is the number of times its position
    occurs there.
    """

    def __init__(self, smoothing: float = 1.0):
        _check_smoothing(smoothing)
        self.smoothing = smoothing
        # logs[c] = log(c + smoothing), extended as the row count grows
        self._logs = np.array([math.log(smoothing)])
        super().__init__()

    def _reset(self, key) -> None:
        super()._reset(key)
        self._totals: dict[int, int] = {}
        self._used = array("i")
        self._used_by_feature: dict[int, array] = {}

    def _append(self, i: int, row: TrainingRow) -> None:
        for f in row.features.indices:
            self._totals[f] = self._totals.get(f, 0) + 1
        if row.used:
            self._used.extend(row.used)
            for f in row.features.indices:
                self._used_by_feature.setdefault(f, array("i")).extend(row.used)

    def score(self, pool: int, features: FeatureVector) -> np.ndarray:
        """Scores of premises ``0 … pool-1``, in the float operations of
        :func:`nb_score`: prior plus ``k`` bases, then per feature in
        index order the difference of two log-table entries."""
        a = self.smoothing
        rows = len(self.rows)
        grown = range(len(self._logs), rows + 1)
        if grown:
            self._logs = np.append(self._logs, [math.log(c + a) for c in grown])
        idx = features.indices
        k = len(idx)
        uses = np.bincount(np.frombuffer(self._used, dtype=np.intc), minlength=pool)
        distinct = set(uses.tolist())
        start = np.zeros(max(distinct, default=0) + 1)  # use count -> prior + k * base
        for u in distinct:
            start[u] = _prior(rows, u, a) + k * _base(rows, u, a)
        scores = start[uses]
        logs = self._logs
        for i in idx:
            tot = self._totals.get(i, 0)
            positions = self._used_by_feature.get(i)
            if positions is None:
                scores += logs[0] - logs[tot]
            else:
                cp = np.bincount(np.frombuffer(positions, dtype=np.intc), minlength=pool)
                scores += logs[cp] - logs[tot - cp]
        return scores
