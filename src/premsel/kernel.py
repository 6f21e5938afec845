"""Kernels over sparse binary feature vectors and the closed-form
regularized least-squares ranker trained on top of them.

All per-premise scorers share one kernel matrix: with ``K`` the kernel
matrix of the training rows, ``Y`` the 0/1 label matrix (rows by
candidate premises), and regularization ``lam > 0``, the coefficient
matrix solves ``(K + lam*I) A = Y`` through a single symmetric
positive-definite factorization.  A conjecture is scored as
``A^T k`` where ``k`` holds its kernel values against the training
rows.  Hyperparameters come from a seeded 70/30 grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

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


def _feature_csr(vectors, width: int) -> scipy.sparse.csr_matrix:
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
    if not 0 < lam < math.inf:
        raise ConfigError("regularization parameter must be finite and positive")
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
    if bound > RESIDUAL_BOUND:
        A = A - scipy.linalg.cho_solve(factor, residual)
        bound = np.abs(M @ A - Y).max(initial=0.0)
        if bound > RESIDUAL_BOUND:
            raise TrainingError(f"solve residual {bound:.3e} exceeds {RESIDUAL_BOUND:.0e}")
    return A


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
