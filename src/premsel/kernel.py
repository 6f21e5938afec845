"""Kernels over sparse binary feature vectors and the closed-form
regularized least-squares ranker trained on top of them.

All per-premise scorers share one kernel matrix: with ``K`` the kernel
matrix of the training rows, ``Y`` the 0/1 label matrix (rows by
candidate premises), and regularization ``lam > 0``, the coefficient
matrix solves ``(K + lam*I) A = Y`` through a single symmetric
positive-definite factorization.  A conjecture is scored as
``A^T k`` where ``k`` holds its kernel values against the training
rows.  Hyperparameters come from a seeded 70/30 grid search.

The same scores have a dual form, ``A^T k = Y^T alpha`` with
``alpha = (K + lam*I)^-1 k``: one right-hand side per conjecture
instead of one per premise, and a premise's score is the sum of
``alpha`` over the rows that used it.  :class:`RidgeFactor` scores this
way for a row sequence that grows between uses: it keeps ``K`` and the
Cholesky factor ``L`` of ``K + lam*I`` and appends one row at a time,
one triangular solve per row, so a step of a chronological walk costs
O(n^2) instead of a fresh O(n^3) factorization.
:func:`ridge_train` and :func:`ridge_score` stay the primal reference.

scipy is imported by the functions that use it, so naive Bayes and
problem emission never load it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .corpus import TrainingView
from .errors import ConfigError, TrainingError
from .features import FeatureVector

# Residual bound checked after every solve, per entry of (K+lam*I)A - Y.
RESIDUAL_BOUND = 1e-8

# Logarithmic default grids; the sigma defaults square to 2^-3 .. 2^9.
LAMBDA_GRID_DEFAULT = tuple(2.0**e for e in range(-7, 8, 2))
SIGMA_GRID_DEFAULT = tuple(math.sqrt(2.0**e) for e in range(-3, 10, 2))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: ``linear`` or ``gaussian`` with width ``sigma``."""

    kind: str = "gaussian"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.sigma < math.inf:
            raise ConfigError("gaussian kernel needs a finite sigma > 0")


def kernel_eval(spec: KernelSpec, a: FeatureVector, b: FeatureVector) -> float:
    """k(a, b); for the gaussian kernel, exp(-(|a| - 2<a,b> + |b|)/sigma^2)."""
    ab = a.dot(b)
    if spec.kind == "linear":
        return float(ab)
    return math.exp(-(len(a) - 2 * ab + len(b)) / (spec.sigma**2))


def _feature_csr(vectors, width: int):
    import scipy.sparse

    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        indptr[i + 1] = indptr[i] + len(v.indices)
    indices = np.fromiter(
        (i for v in vectors for i in v.indices), dtype=np.int64, count=int(indptr[-1])
    )
    data = np.ones(int(indptr[-1]))
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(vectors), width))


def _gram(rows, cols) -> np.ndarray:
    """Pairwise dot products; exact in float64 since entries are 0/1 counts."""
    width = 1 + max(
        (max(v.indices) for v in (*rows, *cols) if v.indices), default=0
    )
    a = _feature_csr(rows, width)
    b = _feature_csr(cols, width)
    return (a @ b.T).toarray()


def _kernelize(spec: KernelSpec, gram: np.ndarray, row_sizes, col_sizes) -> np.ndarray:
    if spec.kind == "linear":
        return gram
    d = np.asarray(row_sizes, dtype=float)[:, None]
    e = np.asarray(col_sizes, dtype=float)[None, :]
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
    import scipy.linalg

    _check_lambda(lam)
    K = np.asarray(K, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n) or Y.shape[0] != n:
        raise ValueError("shape mismatch between kernel and label matrices")
    M = K + lam * np.eye(n)
    try:
        factor = scipy.linalg.cho_factor(M)
    except scipy.linalg.LinAlgError as exc:
        raise TrainingError(f"kernel matrix factorization failed: {exc}") from exc
    A = scipy.linalg.cho_solve(factor, Y)
    residual = M @ A - Y
    bound = np.abs(residual).max(initial=0.0)
    # written so that a NaN residual fails
    if not bound <= RESIDUAL_BOUND:
        A = A - scipy.linalg.cho_solve(factor, residual)
        bound = np.abs(M @ A - Y).max(initial=0.0)
        if not bound <= RESIDUAL_BOUND:
            raise TrainingError(f"solve residual {bound:.3e} exceeds {RESIDUAL_BOUND:.0e}")
    return A


def _check_lambda(lam: float) -> None:
    if not 0 < lam < math.inf:
        raise ConfigError("regularization parameter must be finite and positive")


class RidgeFactor:
    """Kernel matrix ``K`` and Cholesky factor ``L`` of ``K + lam*I`` for
    a row sequence that grows between uses.

    :meth:`sync` brings the factor to a given row sequence, kernel and
    lambda, appending only the rows past the prefix already counted;
    any other input restarts from empty.  Rows are appended one at a
    time, in row order, also after a restart, so the factor of a row
    sequence is the same bits however it was reached.  :meth:`score`
    then equals ``ridge_score(ridge_train(view, spec, lam), features)``
    up to rounding, with one solve per call.

    ``K`` and ``L`` are kept packed, row ``i`` of their lower triangles
    at offset ``i*(i+1)/2`` of capacity buffers, so the first ``n`` rows
    are always a contiguous prefix: BLAS reads it in place, as the upper
    triangle in column-major packed order.
    """

    def __init__(self):
        self._reset(None, None)

    def _reset(self, spec, lam) -> None:
        self.spec: KernelSpec | None = spec
        self.lam: float | None = lam
        self.rows: tuple = ()
        self._K = np.empty(0)
        self._L = np.empty(0)
        self._sizes = array("d")            # feature count of each row
        self._rows_by_feature: dict[int, array] = {}
        self._use_rows = array("i")         # row of each (row, used premise) pair
        self._use_premises = array("i")     # premise position of each pair

    def sync(self, rows, spec: KernelSpec, lam: float) -> None:
        """Make this the factor of ``rows`` under ``spec`` and ``lam``."""
        _check_lambda(lam)
        n = len(self.rows)
        # a view's rows are the corpus's shared objects: mostly identity checks
        if (spec, lam) != (self.spec, self.lam) or rows[:n] != self.rows:
            self._reset(spec, lam)
            n = 0
        packed = len(rows) * (len(rows) + 1) // 2
        # an exception part-way, an interrupt too, leaves rows counted that
        # self.rows does not hold, so the state goes back to empty
        try:
            if packed > len(self._K):  # grow by doubling, not at every step
                extra = np.empty(max(packed, 2 * len(self._K)) - len(self._K))
                self._K = np.concatenate([self._K, extra])
                self._L = np.concatenate([self._L, extra])
            for i in range(n, len(rows)):
                self._append(i, rows[i])
        except BaseException:
            self._reset(None, None)
            raise
        self.rows = rows

    def _append(self, i: int, row) -> None:
        import scipy.linalg.blas

        for f in row.features.indices:
            self._rows_by_feature.setdefault(f, array("i")).append(i)
        self._sizes.append(len(row.features))
        k = self._kernel_row(row.features, i + 1)
        start = i * (i + 1) // 2
        l = k[:i]
        if i:  # solve L[:i, :i] l = k[:i]
            l = scipy.linalg.blas.dtpsv(i, self._L[:start], l, trans=1)
        pivot = k[i] + self.lam - l @ l
        if not pivot > 0:
            raise TrainingError(f"kernel matrix factorization failed: pivot {pivot:.3e} "
                                f"at row {i}")
        self._K[start : start + i + 1] = k
        self._L[start : start + i] = l
        self._L[start + i] = math.sqrt(pivot)
        self._use_rows.extend([i] * len(row.used))
        self._use_premises.extend(row.used)

    def _kernel_row(self, features: FeatureVector, n: int) -> np.ndarray:
        """Kernel values of ``features`` against the first ``n`` rows."""
        hits = [self._rows_by_feature[f] for f in features.indices if f in self._rows_by_feature]
        gram = np.bincount(np.frombuffer(b"".join(hits), dtype=np.intc), minlength=n)
        sizes = np.frombuffer(self._sizes, dtype=float)[:n]
        return _kernelize(self.spec, gram[None, :].astype(float), [len(features)], sizes)[0]

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        import scipy.linalg.blas

        n = len(self.rows)
        packed = self._L[: n * (n + 1) // 2]
        y = scipy.linalg.blas.dtpsv(n, packed, rhs, trans=1)  # L y = rhs
        return scipy.linalg.blas.dtpsv(n, packed, y, overwrite_x=1)  # L^T x = y

    def score(self, pool: int, features: FeatureVector) -> np.ndarray:
        """Scores of premises ``0 … pool-1``: ``Y^T alpha`` with
        ``alpha = (K + lam*I)^-1 k``, checked against ``RESIDUAL_BOUND``
        as :func:`ridge_solve` checks its solves."""
        import scipy.linalg.blas

        n = len(self.rows)
        if not n:
            raise TrainingError("no training rows")
        k = self._kernel_row(features, n)
        packed = self._K[: n * (n + 1) // 2]

        def residual(alpha):
            return scipy.linalg.blas.dspmv(n, 1.0, packed, alpha) + self.lam * alpha - k

        alpha = self._solve(k)
        r = residual(alpha)
        bound = np.abs(r).max()
        # written so that a NaN residual fails
        if not bound <= RESIDUAL_BOUND:
            alpha = alpha - self._solve(r)
            bound = np.abs(residual(alpha)).max()
            if not bound <= RESIDUAL_BOUND:
                raise TrainingError(f"solve residual {bound:.3e} exceeds {RESIDUAL_BOUND:.0e}")
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

    def save(self, path) -> None:
        import json

        payload = {
            "format": "premsel-ridge/1",
            "kernel": {"kind": self.kernel.kind, "sigma": self.kernel.sigma},
            "lambda": self.lam,
            "premises": list(self.premise_ids),
            "rows": [list(v.indices) for v in self.row_vectors],
            "coef": [[float(x) for x in row] for row in self.coef],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "RidgeModel":
        import json

        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != "premsel-ridge/1":
            raise ValueError(f"not a premsel-ridge/1 file: {path}")
        return cls(
            kernel=KernelSpec(payload["kernel"]["kind"], float(payload["kernel"]["sigma"])),
            lam=float(payload["lambda"]),
            premise_ids=tuple(payload["premises"]),
            row_vectors=tuple(FeatureVector(r) for r in payload["rows"]),
            coef=np.asarray(payload["coef"], dtype=float),
        )


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
    shuffle by default; ``chronological=True`` instead trains on the
    earliest rows and validates on the latest.
    """

    lambda_grid: tuple[float, ...] = LAMBDA_GRID_DEFAULT
    sigma_grid: tuple[float, ...] = SIGMA_GRID_DEFAULT
    split: float = 0.70
    seed: int = 0
    chronological: bool = False

    def __post_init__(self):
        if not self.lambda_grid or not self.sigma_grid:
            raise ConfigError("hyperparameter grids must be nonempty")
        if not all(0 < v < math.inf for v in (*self.lambda_grid, *self.sigma_grid)):
            raise ConfigError("grid values must be finite and positive")
        if not 0 < self.split < 1:
            raise ConfigError(f"split fraction must lie in (0, 1), got {self.split}")


@dataclass
class GridSearchResult:
    best_lambda: float
    best_kernel: KernelSpec
    # (lambda, sigma or None, validation square loss), in evaluation order
    table: list[tuple[float, float | None, float]]


def grid_search(view: TrainingView, kernel_kind: str, config: GridSearchConfig) -> GridSearchResult:
    """Pick (lambda, kernel) minimizing validation loss; training on the
    full view is left to :func:`ridge_train`.  Ties go to the smaller
    lambda, then smaller sigma."""
    if kernel_kind == "gaussian":
        specs = [KernelSpec(kernel_kind, sigma) for sigma in sorted(config.sigma_grid)]
    else:
        specs = [KernelSpec(kernel_kind)]
    n = len(view.rows)
    if n < 2:
        raise TrainingError("grid search needs at least 2 training rows")
    order = np.arange(n)
    if not config.chronological:
        order = np.random.default_rng(config.seed).permutation(n)
    n_train = min(max(int(round(config.split * n)), 1), n - 1)
    train_idx = np.sort(order[:n_train])
    val_idx = np.sort(order[n_train:])

    vectors = [row.features for row in view.rows]
    Y = _label_matrix(view)
    Y_train, Y_val = Y[train_idx], Y[val_idx]

    # Entries are exact counts, so slicing one Gram matrix gives the same
    # blocks as building each block on its own.
    gram = _gram(vectors, [vectors[i] for i in train_idx])
    gram_tt, gram_vt = gram[train_idx], gram[val_idx]
    sizes = np.array([len(v) for v in vectors])
    sizes_t, sizes_v = sizes[train_idx], sizes[val_idx]

    table: list[tuple[float, float | None, float]] = []
    best: tuple[float, KernelSpec] | None = None
    best_loss = math.inf
    for lam in sorted(config.lambda_grid):
        for spec in specs:
            K_tt = _kernelize(spec, gram_tt, sizes_t, sizes_t)
            K_vt = _kernelize(spec, gram_vt, sizes_v, sizes_t)
            A = ridge_solve(K_tt, Y_train, lam)
            loss = float(((K_vt @ A - Y_val) ** 2).sum())
            table.append((lam, spec.sigma if spec.kind == "gaussian" else None, loss))
            if loss < best_loss:
                best_loss = loss
                best = (lam, spec)
    assert best is not None
    return GridSearchResult(*best, table)


def write_loss_table(table, path) -> None:
    """Emit the grid-search loss table as CSV (lambda, sigma, loss)."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["lambda", "sigma", "validation_loss"])
        for lam, sigma, loss in table:
            writer.writerow([repr(lam), "" if sigma is None else repr(sigma), repr(loss)])
