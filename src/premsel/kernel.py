"""Kernels over sparse binary feature vectors and the closed-form
regularized least-squares ranker trained on top of them.

All per-premise scorers share one kernel matrix: with ``K`` the kernel
matrix of the training rows, ``Y`` the 0/1 label matrix (rows by
candidate premises), and regularization ``lam > 0``, the coefficient
matrix solves ``(K + lam*I) A = Y`` through a single symmetric
positive-definite factorization.  A conjecture is scored as
``A^T k`` where ``k`` holds its kernel values against the training
rows.  Hyperparameters come from a grid search that trains on the
earliest 70% of the rows and validates on the rest, which needs only
the validation predictions ``K_vt (K_tt + lam*I)^-1 Y_train``: it
kernelizes one Gram matrix of all rows against the training rows once
per sigma, solves for the validation columns ``K_tv``, not for one
column per premise, takes one eigendecomposition of ``K_tt`` per sigma
to serve every lambda, checks those solves as one batch against the
residual bound, and picks the first minimum of the loss table.

The same scores have a dual form, ``A^T k = Y^T alpha`` with
``alpha = (K + lam*I)^-1 k``: one right-hand side per conjecture
instead of one per premise, and a premise's score is the sum of
``alpha`` over the rows that used it.  :class:`RidgeFactor` scores this
way for a row sequence that grows between uses: it keeps ``K`` and the
Cholesky factor ``L`` of ``K + lam*I`` and appends one row at a time,
one triangular solve per row, so a step of a chronological walk costs
O(n^2) instead of a fresh O(n^3) factorization.
:func:`ridge_train` and :func:`ridge_score` stay the primal reference.
All three solvers, :func:`ridge_solve`, :meth:`RidgeFactor.score` and
the grid search's batched solve, share one residual check,
:func:`_checked_solve`, relative to the right-hand side's largest entry.

Everything here is numpy alone: Gram matrices are exact counts from
feature posting lists, :class:`RidgeFactor` solves with matrix-vector
products, and :func:`ridge_solve` factors with ``numpy.linalg``.  numpy
runs on first use (see ``premsel._lazy``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from ._lazy import lazy_module
from .corpus import RowState, TrainingView
from .errors import ConfigError, TrainingError
from .features import FeatureVector

np = lazy_module("numpy")

# Residual bound checked after every solve, per entry of (K+lam*I)A - Y,
# relative to max|Y|.
RESIDUAL_BOUND = 1e-8

# Logarithmic default grids; the sigma defaults square to 2^-3 .. 2^9.
LAMBDA_GRID_DEFAULT = tuple(2.0**e for e in range(-7, 8, 2))
SIGMA_GRID_DEFAULT = tuple(math.sqrt(2.0**e) for e in range(-3, 10, 2))

# Share of the searched rows, the earliest, that the grid search trains on.
TRAIN_SHARE = 0.7

# Rows per block of RidgeFactor's panels.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: ``linear`` or ``gaussian`` with width ``sigma``."""

    kind: str = "gaussian"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        # sigma^2 divides in the kernel: it must neither overflow nor underflow to 0
        if self.kind == "gaussian" and not (0 < self.sigma and
                                            0 < self.sigma * self.sigma < math.inf):
            raise ConfigError(f"gaussian kernel needs a sigma > 0 whose square is finite and "
                              f"nonzero, got {self.sigma!r}")


def _counts(postings: dict[int, array], features: FeatureVector, n: int) -> np.ndarray:
    """``<features, v_j>`` for the first ``n`` vectors ``v_j`` of
    ``postings``, which lists by feature the positions of the vectors
    holding it: exact integer counts, as one ``bincount`` of the hits."""
    hits = [postings[f] for f in features.indices if f in postings]
    return np.bincount(np.frombuffer(b"".join(hits), dtype=np.intc), minlength=n)


def _gram(rows, cols) -> np.ndarray:
    """Pairwise dot products; exact in float64 since entries are 0/1 counts."""
    postings: dict[int, array] = {}
    for j, v in enumerate(cols):
        for f in v.indices:
            postings.setdefault(f, array("i")).append(j)
    gram = np.empty((len(rows), len(cols)))
    for r, v in enumerate(rows):
        gram[r] = _counts(postings, v, len(cols))
    return gram


def _kernelize(spec: KernelSpec, gram: np.ndarray, row_sizes, col_sizes) -> np.ndarray:
    if spec.kind == "linear":
        return gram
    d = np.asarray(row_sizes, dtype=float)[:, None]
    e = np.asarray(col_sizes, dtype=float)[None, :]
    # a subnormal sigma^2 takes distinct vectors' exponent to -inf, their kernel to 0
    with np.errstate(over="ignore"):
        return np.exp(-(d - 2.0 * gram + e) / (spec.sigma**2))


def build_kernel_matrix(spec: KernelSpec, vectors) -> np.ndarray:
    """Dense symmetric kernel matrix over the given feature vectors."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least one vector")
    return cross_kernel(spec, vectors, vectors)


def cross_kernel(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Kernel values of every row vector against every column vector."""
    rows, cols = list(rows), list(cols)
    gram = _gram(rows, cols)
    return _kernelize(spec, gram, [len(v) for v in rows], [len(v) for v in cols])


def ridge_solve(K: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (K + lam*I) A = Y by Cholesky factorization.

    One factorization serves all label columns.  The result is checked
    against the normal equations; a residual above ``RESIDUAL_BOUND *
    max|Y|`` after one refinement step is reported as a failure, which for
    ``lam > 0`` can only happen when K is far from positive
    semidefinite.
    """
    _check_lambda(lam)
    K = np.asarray(K, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n) or Y.shape[0] != n:
        raise ValueError("shape mismatch between kernel and label matrices")
    M = K + lam * np.eye(n)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"kernel matrix factorization failed: {exc}") from exc
    return _checked_solve(lambda rhs: np.linalg.solve(L.T, np.linalg.solve(L, rhs)),
                          lambda A: M @ A, Y)


def _max_abs(a: np.ndarray):
    """``max|a|``: 0 for an empty ``a``, NaN for one that holds a NaN."""
    return np.maximum(a.max(initial=0.0), -a.min(initial=0.0))


def _checked_solve(solve, apply, rhs: np.ndarray) -> np.ndarray:
    """``solve(rhs)``, checked against ``RESIDUAL_BOUND * max|rhs|``, a
    bound that stops at the smallest normal float and that an all-zero
    ``rhs`` meets exactly: ``apply`` multiplies by the matrix that
    ``solve`` inverts, and a solution whose residual ``apply(x) - rhs``
    exceeds the bound in any entry gets one refinement step
    ``x - solve(residual)``, after which a residual still above it is a
    :class:`TrainingError`.

    ``solve`` and ``apply`` return new arrays, which the check overwrites:
    it makes no temporary the size of ``x``."""
    scale = _max_abs(rhs)
    bound = np.maximum(RESIDUAL_BOUND * scale, np.finfo(float).tiny)
    x = solve(rhs)
    r = apply(x)
    r -= rhs
    if not _max_abs(r) <= bound:  # a NaN residual or rhs fails
        x -= solve(r)
        del r  # freed before the next residual is built
        r = apply(x)
        r -= rhs
        worst = _max_abs(r)
        if not worst <= bound:
            raise TrainingError(f"solve residual {worst:.3e} exceeds {RESIDUAL_BOUND:.0e} "
                                f"times max|rhs| {scale:.3e}")
    return x


def _check_lambda(lam: float) -> None:
    if not 0 < lam < math.inf:
        raise ConfigError("regularization parameter must be finite and positive")


def _scaled(op, v: np.ndarray) -> np.ndarray:
    """``op(v)`` for a linear ``op``, computed on ``v`` scaled by the power
    of two that brings its largest entry into [0.5, 1), then scaled back.

    At a small sigma most kernel values are tiny, and so are the vectors
    solved for, so products of the two underflow; BLAS runs many times
    slower on subnormal results.  Scaled, the products stay clear of them.
    Scaling by a power of two is exact, so the result is the unscaled
    computation's wherever that one does not underflow, and more accurate
    where it does."""
    e = np.frexp(np.abs(v).max(initial=0.0))[1]  # 0 for a zero, inf or NaN maximum
    return np.ldexp(op(np.ldexp(v, -e)), e)


class RidgeFactor(RowState):
    """Kernel matrix ``K`` and Cholesky factor ``L`` of ``K + lam*I`` for
    a row sequence that grows between uses.

    :meth:`sync` brings the factor to a given row sequence, kernel and
    lambda, appending only the rows past the prefix already counted;
    any other input restarts from empty (see
    :class:`~premsel.corpus.RowState`).  Rows are appended one at a
    time, in row order, also after a restart, so the factor of a row
    sequence is the same bits however it was reached.  :meth:`score`
    then equals ``ridge_score(ridge_train(view, spec, lam), features)``
    up to rounding, with one solve per call.  :meth:`_forward` keeps its
    last solve ``L^-1 rhs`` and returns it for a ``rhs`` equal to that one
    bit for bit.  So the next row appended reuses the score's forward
    solve when its kernel row equals the score's ``k``, as when a walk
    appends the conjecture just scored and its features, cut to those
    seen before it, are the row's.

    Rows are kept in blocks of :data:`BLOCK_ROWS`.  A block's panels are
    allocated once, when its first row arrives, and filled row by row,
    so growth never copies old data.  Block ``b`` holds rows ``b*B`` up
    to ``(b+1)*B``, with ``B = BLOCK_ROWS``, in three panels:

    - its rows of ``K`` up to its last column, the symmetric diagonal
      block in full;
    - its rows of ``L`` left of the diagonal block;
    - the inverse of its diagonal block of ``L``.  Appending a row to a
      lower triangle appends a row to its inverse.

    Solves and products run block by block, a few matrix-vector products
    each, on vectors scaled by :func:`_scaled`.
    """

    def _reset(self, key) -> None:
        super()._reset(key)
        self.spec, self.lam = key or (None, None)
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (K, L, inv)
        self._forwarded: tuple = (None, None)  # (bytes of rhs, L^-1 rhs) of the last forward solve
        self._sizes = array("d")            # feature count of each row
        self._rows_by_feature: dict[int, array] = {}
        self._use_rows = array("i")         # row of each (row, used premise) pair
        self._use_premises = array("i")     # premise position of each pair

    def sync(self, rows, spec: KernelSpec, lam: float) -> None:
        """Make this the factor of ``rows`` under ``spec`` and ``lam``."""
        _check_lambda(lam)
        super().sync(rows, (spec, lam))

    def _append(self, i: int, row) -> None:
        features = row.features
        for f in features.indices:
            self._rows_by_feature.setdefault(f, array("i")).append(i)
        self._sizes.append(len(features))
        k = self._kernel_row(features, i + 1)
        l = self._forward(k[:i])  # L[:i, :i] l = k[:i]
        pivot = k[i] + self.lam - l @ l
        if not pivot > 0:
            raise TrainingError(f"kernel matrix factorization failed: pivot {pivot:.3e} "
                                f"at row {i}")
        b, r = divmod(i, BLOCK_ROWS)
        lo = i - r
        if not r:
            self._blocks.append((np.empty((BLOCK_ROWS, lo + BLOCK_ROWS)),
                                 np.empty((BLOCK_ROWS, lo)), np.zeros((BLOCK_ROWS, BLOCK_ROWS))))
        K, L, inv = self._blocks[b]
        K[r, : i + 1] = k
        K[:r, i] = k[lo:i]
        L[r] = l[:lo]
        # [[A, 0], [a, d]]^-1 = [[A^-1, 0], [-a A^-1 / d, 1/d]]
        d = math.sqrt(pivot)
        inv[r, :r] = _scaled(lambda a: a @ inv[:r, :r], l[lo:i]) / -d
        inv[r, r] = 1.0 / d
        self._use_rows.extend([i] * len(row.used))
        self._use_premises.extend(row.used)

    def _kernel_row(self, features: FeatureVector, n: int) -> np.ndarray:
        """Kernel values of ``features`` against the first ``n`` rows."""
        counts = _counts(self._rows_by_feature, features, n)
        sizes = np.frombuffer(self._sizes, dtype=float)[:n]
        return _kernelize(self.spec, counts[None, :].astype(float), [len(features)], sizes)[0]

    def _spans(self, n: int):
        """``(panels, lo, hi)`` for each block holding some of the first ``n`` rows."""
        for b, panels in enumerate(self._blocks[: -(-n // BLOCK_ROWS)]):
            lo = b * BLOCK_ROWS
            yield panels, lo, min(lo + BLOCK_ROWS, n)

    def _forward(self, rhs: np.ndarray) -> np.ndarray:
        """``y`` with ``L y = rhs``, for the first ``len(rhs)`` rows.  A
        ``rhs`` bit-equal to the last one gets the last ``y`` back, not to
        be written to: until a reset, ``L`` of those rows stays the same."""
        key = rhs.tobytes()
        if key != self._forwarded[0]:
            def solve(v):
                y = np.empty(len(v))
                for (_, L, inv), lo, hi in self._spans(len(v)):
                    r = hi - lo
                    y[lo:hi] = inv[:r, :r] @ (v[lo:hi] - L[:r] @ y[:lo])
                return y

            self._forwarded = (key, _scaled(solve, rhs))
        return self._forwarded[1]

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(K + lam*I)^-1 rhs``, as ``L^-T (L^-1 rhs)``."""
        def solve(v):  # L^T x = v
            x = v.copy()
            for (_, L, inv), lo, hi in reversed(list(self._spans(len(x)))):
                r = hi - lo
                x[lo:hi] = inv[:r, :r].T @ x[lo:hi]
                x[:lo] -= L[:r].T @ x[lo:hi]
            return x

        return _scaled(solve, self._forward(rhs))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """``(K + lam*I) x``, each panel of ``K`` read for both of its halves."""
        def apply(v):
            out = self.lam * v
            for (K, _, _), lo, hi in self._spans(len(v)):
                panel = K[: hi - lo, :hi]
                out[lo:hi] += panel @ v[:hi]
                out[:lo] += panel[:, :lo].T @ v[lo:hi]
            return out

        return _scaled(apply, x)

    def score(self, pool: int, features: FeatureVector) -> np.ndarray:
        """Scores of premises ``0 … pool-1``: ``Y^T alpha`` with
        ``alpha = (K + lam*I)^-1 k``, checked by :func:`_checked_solve`
        as :func:`ridge_solve` checks its solves."""
        n = len(self.rows)
        if not n:
            raise TrainingError("no training rows")
        k = self._kernel_row(features, n)
        # a non-finite solve is the residual check's to report, not numpy's
        with np.errstate(invalid="ignore", over="ignore"):
            alpha = _checked_solve(self._solve, self._apply, k)
        uses = np.frombuffer(self._use_rows, dtype=np.intc)
        premises = np.frombuffer(self._use_premises, dtype=np.intc)
        # an empty weight list makes bincount return integers
        return np.bincount(premises, weights=alpha[uses], minlength=pool).astype(float, copy=False)


@dataclass
class RidgeModel:
    """Trained coefficients plus everything needed to score new formulas
    against the ``pool`` premises at positions ``0 … pool-1``."""

    kernel: KernelSpec
    lam: float
    pool: int
    row_vectors: tuple[FeatureVector, ...]
    coef: np.ndarray  # len(row_vectors) x pool


def _label_matrix(view: TrainingView) -> np.ndarray:
    Y = np.zeros((len(view.rows), view.pool))
    for r, row in enumerate(view.rows):
        for p in row.used:
            Y[r, p] = 1.0
    return Y


def ridge_train(view: TrainingView, spec: KernelSpec, lam: float) -> RidgeModel:
    if not view.rows:
        raise TrainingError("no training rows")
    if not view.pool:
        raise TrainingError("empty premise pool")
    vectors = tuple(row.features for row in view.rows)
    K = build_kernel_matrix(spec, vectors)
    A = ridge_solve(K, _label_matrix(view), lam)
    return RidgeModel(spec, lam, view.pool, vectors, A)


def ridge_score(model: RidgeModel, features: FeatureVector) -> np.ndarray:
    """Per-premise scores: coef^T applied to the conjecture's kernel row."""
    k = cross_kernel(model.kernel, [features], model.row_vectors)[0]
    return model.coef.T @ k


@dataclass(frozen=True)
class GridSearchConfig:
    """Grids for hyperparameter search.

    The loss is fixed to square loss, and the split to a chronological
    one: of ``n`` searched rows, the first ``round(TRAIN_SHARE * n)``
    train and the rest validate, as a walk trains on the past to rank
    the future.  Every sigma of ``sigma_grid`` must pass
    :class:`KernelSpec`'s check.
    """

    lambda_grid: tuple[float, ...] = LAMBDA_GRID_DEFAULT
    sigma_grid: tuple[float, ...] = SIGMA_GRID_DEFAULT

    def __post_init__(self):
        if not self.lambda_grid or not self.sigma_grid:
            raise ConfigError("hyperparameter grids must be nonempty")
        if not all(0 < v < math.inf for v in self.lambda_grid):
            raise ConfigError("lambda grid values must be finite and positive")
        for sigma in self.sigma_grid:
            KernelSpec("gaussian", sigma)
        for name, grid in (("lambda", self.lambda_grid), ("sigma", self.sigma_grid)):
            repeated = [v for v in set(grid) if grid.count(v) > 1]
            if repeated:
                raise ConfigError(f"{name} grid repeats the value {min(repeated)!r}")


@dataclass
class GridSearchResult:
    best_lambda: float
    best_kernel: KernelSpec
    # (lambda, sigma or None, validation square loss), in evaluation order
    table: list[tuple[float, float | None, float]]


def _ridge_columns(K_tt: np.ndarray, K_tv: np.ndarray, lams) -> np.ndarray:
    """``(K_tt + lam*I)^-1 K_tv`` for every ``lam`` of ``lams`` at once, as
    an ``(n_t, len(lams), n_v)`` array, from one eigendecomposition of
    ``K_tt``.  The batch is one solve for :func:`_checked_solve`: when any
    lambda's block misses ``RESIDUAL_BOUND``, every block gets one
    refinement step through the same eigenbasis."""
    n_t, n_v = K_tv.shape
    w, Q = np.linalg.eigh(K_tt)
    lams = np.asarray(lams, dtype=float)

    def solve(rhs):  # rhs: (n_t, 1 or len(lams), n_v)
        coords = (Q.T @ rhs.reshape(n_t, -1)).reshape(n_t, -1, n_v)
        coords = coords / (w[:, None, None] + lams[None, :, None])
        return (Q @ coords.reshape(n_t, -1)).reshape(n_t, len(lams), n_v)

    def apply(B):
        out = (K_tt @ B.reshape(n_t, -1)).reshape(B.shape)
        for j, lam in enumerate(lams):  # block by block: no temporary the size of B
            out[:, j] += lam * B[:, j]
        return out

    return _checked_solve(solve, apply, K_tv[:, None, :])


def grid_search(view: TrainingView, kernel_kind: str, config: GridSearchConfig) -> GridSearchResult:
    """Pick (lambda, kernel) minimizing validation loss; the kernel ranker
    then trains on the full view with :class:`RidgeFactor`.

    The loss of a point is ``|K_vt (K_tt + lam*I)^-1 Y_train - Y_val|^2``,
    computed as ``B^T Y_train - Y_val`` with ``B = (K_tt + lam*I)^-1 K_tv``:
    one right-hand side per validation row, not one per premise.  The
    rows split as :class:`GridSearchConfig` says.  The Gram matrix of all
    rows against the training rows is kernelized once per sigma into
    ``K_tt`` over ``K_vt``, and one eigendecomposition of ``K_tt`` serves
    every lambda.
    The table runs lambda by lambda, sigma by sigma within each; its first
    minimum is chosen, so ties go to the smaller lambda, then sigma."""
    if kernel_kind == "gaussian":
        specs = [KernelSpec(kernel_kind, sigma) for sigma in sorted(config.sigma_grid)]
    else:
        specs = [KernelSpec(kernel_kind)]
    n = len(view.rows)
    if n < 2:
        raise TrainingError("grid search needs at least 2 training rows")
    n_train = round(TRAIN_SHARE * n)  # in [1, n - 1] for n >= 2
    Y = _label_matrix(view)
    Y_train, Y_val = Y[:n_train], Y[n_train:]
    vectors = [row.features for row in view.rows]
    gram = _gram(vectors, vectors[:n_train])
    sizes = [len(v) for v in vectors]

    lams = sorted(config.lambda_grid)
    losses = np.empty((len(lams), len(specs)))
    for s, spec in enumerate(specs):
        K = _kernelize(spec, gram, sizes, sizes[:n_train])
        B = _ridge_columns(K[:n_train], K[n_train:].T, lams)
        for j in range(len(lams)):
            losses[j, s] = ((B[:, j, :].T @ Y_train - Y_val) ** 2).sum()
        del K, B  # freed before the next sigma's are built, which keeps peak memory down

    j, s = np.unravel_index(losses.argmin(), losses.shape)
    sigmas = [spec.sigma if spec.kind == "gaussian" else None for spec in specs]
    table = [(lam, sigma, loss) for lam, row in zip(lams, losses.tolist())
             for sigma, loss in zip(sigmas, row)]
    return GridSearchResult(lams[j], specs[s], table)
