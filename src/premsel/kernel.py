"""Kernels over sparse binary feature vectors and the closed-form
regularized least-squares ranker trained on top of them.

All per-premise scorers share one kernel matrix: with ``K`` the kernel
matrix of the training rows, ``Y`` the 0/1 label matrix (rows by
candidate premises), and regularization ``lam > 0``, the coefficient
matrix solves ``(K + lam*I) A = Y`` through a single symmetric
positive-definite factorization.  A conjecture is scored as
``A^T k`` where ``k`` holds its kernel values against the training
rows.  Hyperparameters come from a seeded 70/30 grid search, which needs
only the validation predictions ``K_vt (K_tt + lam*I)^-1 Y_train``: it
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
:func:`_checked_solve`.

Everything here is numpy alone: Gram matrices are exact counts from
feature posting lists, :class:`RidgeFactor` solves with matrix-vector
products, and :func:`ridge_solve` factors with ``numpy.linalg``.  numpy
runs on first use (see ``premsel._lazy``).  The grid search's shuffle
is numpy's ``default_rng(seed).permutation`` stream (SeedSequence,
PCG64, Fisher-Yates), computed by :func:`_permutation` without loading
``numpy.random``, so premsel pins it whatever numpy is installed.
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

# Residual bound checked after every solve, per entry of (K+lam*I)A - Y.
RESIDUAL_BOUND = 1e-8

# Logarithmic default grids; the sigma defaults square to 2^-3 .. 2^9.
LAMBDA_GRID_DEFAULT = tuple(2.0**e for e in range(-7, 8, 2))
SIGMA_GRID_DEFAULT = tuple(math.sqrt(2.0**e) for e in range(-3, 10, 2))

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


def kernel_eval(spec: KernelSpec, a: FeatureVector, b: FeatureVector) -> float:
    """k(a, b); for the gaussian kernel, exp(-(|a| - 2<a,b> + |b|)/sigma^2)."""
    ab = a.dot(b)
    if spec.kind == "linear":
        return float(ab)
    return math.exp(-(len(a) - 2 * ab + len(b)) / (spec.sigma**2))


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
    against the normal equations; a residual above ``RESIDUAL_BOUND``
    after one refinement step is reported as a failure, which for
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


def _checked_solve(solve, apply, rhs: np.ndarray) -> np.ndarray:
    """``solve(rhs)``, checked against ``RESIDUAL_BOUND``: ``apply``
    multiplies by the matrix that ``solve`` inverts, and a solution whose
    residual ``apply(x) - rhs`` exceeds the bound in any entry gets one
    refinement step ``x - solve(residual)``, after which a residual still
    above the bound is a :class:`TrainingError`.

    ``solve`` and ``apply`` return new arrays, which the check overwrites:
    it makes no temporary the size of ``x``."""
    x = solve(rhs)
    r = apply(x)
    r -= rhs
    # max |r|, written so that a NaN residual fails
    if not np.maximum(r.max(initial=0.0), -r.min(initial=0.0)) <= RESIDUAL_BOUND:
        x -= solve(r)
        del r  # freed before the next residual is built
        r = apply(x)
        r -= rhs
        worst = np.maximum(r.max(initial=0.0), -r.min(initial=0.0))
        if not worst <= RESIDUAL_BOUND:
            raise TrainingError(f"solve residual {worst:.3e} exceeds {RESIDUAL_BOUND:.0e}")
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
    up to rounding, with one solve per call.  The next row appended
    reuses the score's forward solve ``L^-1 k`` when its kernel row equals
    the score's ``k`` bit for bit, as when a walk appends the conjecture
    just scored and its features, cut to those seen before it, are the
    row's.

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
        self._scored: tuple | None = None   # (k, L^-1 k) of the last score
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
        scored, self._scored = self._scored, None
        for f in features.indices:
            self._rows_by_feature.setdefault(f, array("i")).append(i)
        self._sizes.append(len(features))
        k = self._kernel_row(features, i + 1)
        if scored is None or scored[0].tobytes() != k[:i].tobytes():
            l = self._forward(k[:i])  # L[:i, :i] l = k[:i]
        else:
            l = scored[1]
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
        """``y`` with ``L y = rhs``, for the first ``len(rhs)`` rows."""
        def solve(v):
            y = np.empty(len(v))
            for (_, L, inv), lo, hi in self._spans(len(v)):
                r = hi - lo
                y[lo:hi] = inv[:r, :r] @ (v[lo:hi] - L[:r] @ y[:lo])
            return y

        return _scaled(solve, rhs)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        k, y = self._scored
        if rhs is not k:  # a refinement step's residual
            y = self._forward(rhs)

        def solve(v):  # L^T x = v
            x = v.copy()
            for (_, L, inv), lo, hi in reversed(list(self._spans(len(x)))):
                r = hi - lo
                x[lo:hi] = inv[:r, :r].T @ x[lo:hi]
                x[:lo] -= L[:r].T @ x[lo:hi]
            return x

        return _scaled(solve, y)

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
            self._scored = (k, self._forward(k))
            alpha = _checked_solve(self._solve, self._apply, k)
        uses = np.frombuffer(self._use_rows, dtype=np.intc)
        premises = np.frombuffer(self._use_premises, dtype=np.intc)
        # an empty weight list makes bincount return integers
        return np.bincount(premises, weights=alpha[uses], minlength=pool).astype(float, copy=False)


@dataclass
class RidgeModel:
    """Trained coefficients plus everything needed to score new formulas."""

    kernel: KernelSpec
    lam: float
    premise_ids: tuple[str, ...]
    row_vectors: tuple[FeatureVector, ...]
    coef: np.ndarray  # len(row_vectors) x len(premise_ids)


def _label_matrix(view: TrainingView) -> np.ndarray:
    Y = np.zeros((len(view.rows), len(view.premise_ids)))
    for r, row in enumerate(view.rows):
        for p in row.used:
            Y[r, p] = 1.0
    return Y


def ridge_train(view: TrainingView, spec: KernelSpec, lam: float) -> RidgeModel:
    if not view.rows:
        raise TrainingError("no training rows")
    if not view.premise_ids:
        raise TrainingError("empty premise pool")
    vectors = tuple(row.features for row in view.rows)
    K = build_kernel_matrix(spec, vectors)
    A = ridge_solve(K, _label_matrix(view), lam)
    return RidgeModel(spec, lam, view.premise_ids, vectors, A)


def ridge_score(model: RidgeModel, features: FeatureVector) -> np.ndarray:
    """Per-premise scores: coef^T applied to the conjecture's kernel row."""
    k = cross_kernel(model.kernel, [features], model.row_vectors)[0]
    return model.coef.T @ k


@dataclass(frozen=True)
class GridSearchConfig:
    """Grids and split policy for hyperparameter search.

    The loss is fixed to square loss.  The split is a seeded uniform
    shuffle by default: the first ``split`` share of
    ``numpy.random.default_rng(seed).permutation(n)``, the PCG64 stream
    that premsel pins in :func:`_permutation`.  ``chronological=True``
    instead trains on the earliest rows and validates on the latest.
    Every sigma of ``sigma_grid`` must pass :class:`KernelSpec`'s check.
    """

    lambda_grid: tuple[float, ...] = LAMBDA_GRID_DEFAULT
    sigma_grid: tuple[float, ...] = SIGMA_GRID_DEFAULT
    split: float = 0.70
    seed: int = 0
    chronological: bool = False

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
        if not 0 < self.split < 1:
            raise ConfigError(f"split fraction must lie in (0, 1), got {self.split}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _permutation(seed: int, n: int) -> list[int]:
    """``numpy.random.default_rng(seed).permutation(n)`` as a list, bit for
    bit, without loading ``numpy.random`` (which also loads ``secrets``
    and ``hashlib``).  numpy does not promise that a ``Generator`` method
    keeps its stream across numpy versions (NEP 19); this copy pins it.

    Three steps, as numpy 2.x takes them: ``SeedSequence(seed)`` hashes
    the seed's 32-bit words, least significant first, into a pool of four
    words and draws four 64-bit words from it; PCG64, a 128-bit LCG with
    XSL-RR output, is seeded with the first two as its state and the
    last two as its increment; and a Fisher-Yates shuffle of ``0 … n-1``
    swaps position ``i``, from ``n-1`` down to 1, with a ``j <= i`` drawn
    by masked rejection from buffered 32-bit halves of the 64-bit outputs
    (low half first).  ``n`` is at most 2^32, so every ``i`` fits in 32
    bits.
    """
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, seeds = 0x8B51F9DD, 0
    for i in range(8):  # generate_state(4, uint64), as one 256-bit little-endian number
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        seeds |= (value ^ value >> 16) << 32 * i
    # words 0, 1, 2, 3 of 64 bits: state = word0 * 2^64 + word1, increment from words 2, 3
    initial = (seeds & _M64) << 64 | seeds >> 64 & _M64
    inc = ((seeds >> 128 & _M64) << 64 | seeds >> 192) << 1 & _M128 | 1
    lcg = 0x2360ED051FC65DA44385DF649FCCF645
    state = ((inc + initial) * lcg + inc) & _M128
    spare = None  # the high half of the last output, while not drawn yet

    order = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if spare is not None:
                j, spare = spare & mask, None
            else:
                state = (state * lcg + inc) & _M128
                x, rot = (state >> 64 ^ state) & _M64, state >> 122
                out = (x >> rot | x << (64 - rot)) & _M64
                j, spare = out & mask, out >> 32
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return order


def grid_search(view: TrainingView, kernel_kind: str, config: GridSearchConfig) -> GridSearchResult:
    """Pick (lambda, kernel) minimizing validation loss; training on the
    full view is left to :func:`ridge_train`.

    The loss of a point is ``|K_vt (K_tt + lam*I)^-1 Y_train - Y_val|^2``,
    computed as ``B^T Y_train - Y_val`` with ``B = (K_tt + lam*I)^-1 K_tv``:
    one right-hand side per validation row, not one per premise.  The
    Gram matrix of the training, then the validation rows against the
    training rows is kernelized once per sigma into ``K_tt`` over
    ``K_vt``, and one eigendecomposition of ``K_tt`` serves every lambda.
    The table runs lambda by lambda, sigma by sigma within each; its first
    minimum is chosen, so ties go to the smaller lambda, then sigma."""
    if kernel_kind == "gaussian":
        specs = [KernelSpec(kernel_kind, sigma) for sigma in sorted(config.sigma_grid)]
    else:
        specs = [KernelSpec(kernel_kind)]
    n = len(view.rows)
    if n < 2:
        raise TrainingError("grid search needs at least 2 training rows")
    order = range(n) if config.chronological else _permutation(config.seed, n)
    n_train = min(max(int(round(config.split * n)), 1), n - 1)
    # the training rows, then the validation rows, each in view order
    split = sorted(order[:n_train]) + sorted(order[n_train:])
    Y = _label_matrix(view)[split]
    Y_train, Y_val = Y[:n_train], Y[n_train:]
    vectors = [view.rows[i].features for i in split]
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
