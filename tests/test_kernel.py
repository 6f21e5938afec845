"""Kernel evaluation, the closed-form ridge solve, scoring, and grid
search, checked against finite-difference and eigenvalue oracles."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from premsel import kernel
from premsel.corpus import load_corpus
from premsel.errors import ConfigError, TrainingError
from premsel.features import FeatureVector
from premsel.kernel import (
    BLOCK_ROWS,
    RESIDUAL_BOUND,
    GridSearchConfig,
    KernelSpec,
    RidgeFactor,
    build_kernel_matrix,
    cross_kernel,
    grid_search,
    ridge_score,
    ridge_solve,
    ridge_train,
    _gram,
)

from helpers import (
    kernel_eval,
    planted_corpus_text,
    random_vectors,
    reference_gram,
    rich_corpus_text,
    ridge_fd_gradient,
    ridge_objective,
    spy_forward_solves,
    view_from_indices,
    write_corpus,
)

GAUSS = KernelSpec("gaussian", 1.0)
LINEAR = KernelSpec("linear")


class TestKernelEval:
    def test_gaussian_of_identical_vectors_is_one(self):
        v = FeatureVector([0, 4, 7])
        assert kernel_eval(GAUSS, v, v) == 1.0

    def test_gaussian_disjoint_singletons(self):
        a, b = FeatureVector([0]), FeatureVector([1])
        assert kernel_eval(GAUSS, a, b) == pytest.approx(math.exp(-2), abs=1e-12)

    def test_linear_is_intersection_size(self):
        assert kernel_eval(LINEAR, FeatureVector([1, 3]), FeatureVector([3, 7])) == 1.0

    def test_sigma_must_be_positive(self):
        # 1e200 squares to inf and 1e-170 to 0
        for sigma in (0.0, -2.0, math.inf, math.nan, 1e200, 1e-170):
            with pytest.raises(ConfigError):
                KernelSpec("gaussian", sigma)
        with pytest.raises(ConfigError):
            KernelSpec("triangle")


class TestKernelMatrix:
    def test_single_row(self):
        m = build_kernel_matrix(LINEAR, [FeatureVector([2, 5])])
        np.testing.assert_array_equal(m, [[2.0]])

    def test_gaussian_disjoint_unit_rows(self):
        rows = [FeatureVector([i]) for i in range(4)]
        m = build_kernel_matrix(GAUSS, rows)
        expected = np.full((4, 4), math.exp(-2))
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(0)
        rows = random_vectors(rng, 8)
        for spec in (GAUSS, LINEAR, KernelSpec("gaussian", 2.5)):
            m = build_kernel_matrix(spec, rows)
            for i in range(8):
                for j in range(8):
                    assert m[i, j] == pytest.approx(
                        kernel_eval(spec, rows[i], rows[j]), abs=1e-12
                    )

    def test_symmetry_unit_diagonal_and_psd(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rows = random_vectors(rng, int(rng.integers(2, 20)), width=25, max_size=8)
            m = build_kernel_matrix(KernelSpec("gaussian", float(rng.uniform(0.3, 4.0))), rows)
            assert np.abs(m - m.T).max() <= 1e-12
            np.testing.assert_array_equal(np.diag(m), np.ones(len(rows)))
            eigenvalues = np.linalg.eigvalsh(m)
            assert eigenvalues.min() >= -1e-8 * np.trace(m)

    def test_a_subnormal_sigma_square_gives_the_identity_without_a_warning(self):
        # 1e-160 squares to about 1e-320, a subnormal: the exponent of two
        # distinct vectors overflows to -inf and their kernel value is 0
        rows = [FeatureVector([0]), FeatureVector([0, 1]), FeatureVector([2]), FeatureVector([])]
        sizes = [len(v) for v in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = kernel._kernelize(KernelSpec("gaussian", 1e-160), _gram(rows, rows), sizes, sizes)
        np.testing.assert_array_equal(m, np.eye(len(rows)))


class TestRidgeSolve:
    def test_scalar_case(self):
        A = ridge_solve(np.array([[2.0]]), np.array([[1.0]]), 1.0)
        np.testing.assert_allclose(A, [[1.0 / 3.0]], atol=1e-15)

    def test_identity_case(self):
        A = ridge_solve(np.eye(2), np.eye(2), 1.0)
        np.testing.assert_allclose(A, np.eye(2) / 2.0, atol=1e-15)

    def test_needs_positive_regularization(self):
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                ridge_solve(np.eye(2), np.eye(2), lam)

    def test_factorization_failure_reported(self):
        # Only possible when the input is far from positive semidefinite.
        indefinite = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(TrainingError, match="factorization"):
            ridge_solve(indefinite, np.ones((2, 1)), 0.5)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(1)
        rows = random_vectors(rng, 5, width=10, max_size=5)
        K = build_kernel_matrix(GAUSS, rows)
        Y = rng.uniform(size=(5, 3))
        A = ridge_solve(K, Y, 0.1)
        grad = ridge_fd_gradient(K, Y, 0.1, A)
        assert np.abs(grad).max() <= 1e-6

    def test_residual_bound_holds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rows = random_vectors(rng, int(rng.integers(1, 30)), width=40, max_size=10)
            K = build_kernel_matrix(GAUSS, rows)
            Y = (rng.uniform(size=(len(rows), 4)) < 0.3).astype(float)
            lam = float(rng.choice([2.0**-7, 0.1, 1.0, 2.0**7]))
            A = ridge_solve(K, Y, lam)
            residual = (K + lam * np.eye(len(rows))) @ A - Y
            assert np.abs(residual).max() <= 1e-8

    def test_solve_is_linear_in_labels(self):
        rng = np.random.default_rng(3)
        rows = random_vectors(rng, 7, width=12, max_size=6)
        K = build_kernel_matrix(GAUSS, rows)
        Y1 = rng.uniform(size=(7, 2))
        Y2 = rng.uniform(size=(7, 2))
        lam = 0.5
        combined = ridge_solve(K, Y1 + Y2, lam)
        separate = ridge_solve(K, Y1, lam) + ridge_solve(K, Y2, lam)
        assert np.abs(combined - separate).max() <= 1e-8

    def test_coefficients_shrink_to_zero_with_regularization(self):
        rng = np.random.default_rng(4)
        rows = random_vectors(rng, 6, width=10, max_size=5)
        K = build_kernel_matrix(GAUSS, rows)
        Y = (rng.uniform(size=(6, 3)) < 0.5).astype(float)
        norms = []
        for lam in [0.01, 1.0, 100.0, 1e4, 1e6]:
            norms.append(np.abs(ridge_solve(K, Y, lam)).max())
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1e-6

    def test_a_nan_residual_is_a_training_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, math.nan))
        with pytest.raises(TrainingError, match="residual"):
            ridge_solve(np.eye(2), np.eye(2), 1.0)

    def test_a_solve_off_by_more_than_the_bound_is_refined(self, monkeypatch):
        rng = np.random.default_rng(25)
        rows = random_vectors(rng, 12, width=20, max_size=6)
        K = build_kernel_matrix(GAUSS, rows)
        Y = (rng.uniform(size=(12, 3)) < 0.4).astype(float)
        reference = ridge_solve(K, Y, 0.5)
        solve = np.linalg.solve
        calls = []

        def first_call_off(a, b):
            calls.append(b)
            return solve(a, b) + (1e-6 if len(calls) == 1 else 0.0)

        monkeypatch.setattr(np.linalg, "solve", first_call_off)
        A = ridge_solve(K, Y, 0.5)
        # the solve and one refinement step, each through L and then L^T
        assert len(calls) == 4
        assert np.abs(A - reference).max() <= 1e-9 * np.abs(reference).max()

    @pytest.mark.parametrize("wrong", [1e-3, math.nan, math.inf])
    def test_a_solve_that_refinement_cannot_mend_is_a_training_error(self, monkeypatch, wrong):
        rng = np.random.default_rng(26)
        K = build_kernel_matrix(GAUSS, random_vectors(rng, 12, width=20, max_size=6))
        solve = np.linalg.solve
        # a solver off by ``wrong`` in every answer, refinements included
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + wrong)
        with pytest.raises(TrainingError, match=f"exceeds {RESIDUAL_BOUND:.0e}"):
            ridge_solve(K, np.eye(12), 0.5)

    def test_perturbing_the_solution_never_improves_the_objective(self):
        rng = np.random.default_rng(5)
        rows = random_vectors(rng, 6, width=10, max_size=5)
        K = build_kernel_matrix(GAUSS, rows)
        Y = (rng.uniform(size=(6, 2)) < 0.4).astype(float)
        lam = 0.1
        A = ridge_solve(K, Y, lam)
        base = ridge_objective(K, Y, lam, A)
        for _ in range(100):
            probe = A.copy()
            i = int(rng.integers(A.shape[0]))
            j = int(rng.integers(A.shape[1]))
            probe[i, j] += float(rng.choice([-1e-4, 1e-4]))
            assert ridge_objective(K, Y, lam, probe) >= base - 1e-12 * max(1.0, abs(base))


class TestRidgeModel:
    def test_score_at_training_row_reads_coefficient_row(self):
        # Orthogonal singleton rows make the linear kernel matrix the
        # identity, so the kernel row of a training row is a unit vector.
        view = view_from_indices(
            rows=[([0], {0}), ([1], {1})],
            pool=2,
        )
        model = ridge_train(view, LINEAR, 1.0)
        np.testing.assert_allclose(model.coef, np.eye(2) / 2.0, atol=1e-12)
        scores = ridge_score(model, FeatureVector([0]))
        np.testing.assert_allclose(scores, model.coef[0], atol=1e-12)

    def test_never_used_premise_scores_zero(self):
        view = view_from_indices(
            rows=[([0], {0}), ([1], {0})],
            pool=2,  # premise 1 is never used
        )
        model = ridge_train(view, GAUSS, 0.5)
        for conj in ([0], [1], [0, 1], []):
            assert ridge_score(model, FeatureVector(conj))[1] == 0.0

    def test_cofeatured_premises_outrank_unrelated_ones(self):
        # Usage correlates with a shared feature; a fresh conjecture
        # carrying feature 0 must rank the feature-0 premise above the
        # never-co-featured ones.
        view = view_from_indices(
            rows=[
                ([0], {0}),
                ([1], {1}),
                ([2], {2}),
                ([0, 1], {0, 1}),
                ([1, 2], {1, 2}),
                ([0, 2], {0, 2}),
            ],
            pool=4,
        )
        model = ridge_train(view, GAUSS, 0.1)
        scores = ridge_score(model, FeatureVector([0]))
        assert scores[0] > scores[1]
        assert scores[0] > scores[2]
        assert scores[0] > scores[3]


class TestGridSearch:
    def _simple_view(self):
        return view_from_indices(
            rows=[([0], {0}), ([1], set()), ([0, 1], {0}), ([2], set())],
            pool=2,
        )

    def test_single_point_grid_returns_that_point(self):
        config = GridSearchConfig(lambda_grid=(0.5,), sigma_grid=(2.0,))
        result = grid_search(self._simple_view(), "gaussian", config)
        assert (result.best_lambda, result.best_kernel) == (0.5, KernelSpec("gaussian", 2.0))
        assert len(result.table) == 1

    def test_exactly_fitting_point_is_chosen(self):
        # The chronological split puts the third row in validation.  Its
        # features are far from both training rows, so with a tiny
        # kernel width the exponent underflows, predictions are exactly
        # zero, and the validation loss is exactly zero; the wide kernel
        # leaks mass and pays a positive loss.
        view = view_from_indices(
            rows=[([0], {0}), ([1], set()), ([5], set())],
            pool=1,
        )
        config = GridSearchConfig(lambda_grid=(0.01,), sigma_grid=(0.01, 10.0))
        result = grid_search(view, "gaussian", config)
        assert (result.best_lambda, result.best_kernel) == (0.01, KernelSpec("gaussian", 0.01))
        zero_loss = [loss for _, sigma, loss in result.table if sigma == 0.01]
        wide_loss = [loss for _, sigma, loss in result.table if sigma == 10.0]
        assert zero_loss == [0.0]
        assert wide_loss[0] > 0.0

    def test_ties_prefer_smaller_lambda_then_sigma(self):
        # All labels are zero, so every grid point has exactly zero loss.
        view = view_from_indices(
            rows=[([0], set()), ([1], set()), ([2], set())],
            pool=1,
        )
        config = GridSearchConfig(lambda_grid=(4.0, 0.25, 1.0), sigma_grid=(3.0, 0.5))
        result = grid_search(view, "gaussian", config)
        assert (result.best_lambda, result.best_kernel) == (0.25, KernelSpec("gaussian", 0.5))

    def test_deterministic(self):
        config = GridSearchConfig()
        first = grid_search(self._simple_view(), "gaussian", config)
        second = grid_search(self._simple_view(), "gaussian", config)
        assert first.table == second.table
        assert (first.best_lambda, first.best_kernel) == (second.best_lambda, second.best_kernel)

    def test_linear_kernel_searches_lambda_only(self):
        config = GridSearchConfig(lambda_grid=(0.1, 1.0), sigma_grid=(1.0, 2.0))
        result = grid_search(self._simple_view(), "linear", config)
        assert len(result.table) == 2
        assert result.best_kernel == KernelSpec("linear")
        assert [sigma for _, sigma, _ in result.table] == [None, None]

    def test_needs_two_rows(self):
        view = view_from_indices([([0], set())], 1)
        with pytest.raises(TrainingError):
            grid_search(view, "gaussian", GridSearchConfig())

    def test_the_split_leaves_a_row_on_each_side(self):
        for n in range(2, 100_000):
            assert 1 <= round(kernel.TRAIN_SHARE * n) <= n - 1, n

    def test_bad_grids_rejected_before_work(self):
        with pytest.raises(ConfigError):
            GridSearchConfig(lambda_grid=())
        for sigma in (-2.0, 1e200, 1e-170):
            with pytest.raises(ConfigError):
                GridSearchConfig(sigma_grid=(1.0, sigma))
        with pytest.raises(ConfigError):
            GridSearchConfig(lambda_grid=(1.0, math.inf))
        with pytest.raises(ConfigError, match="lambda grid repeats the value 1.0"):
            GridSearchConfig(lambda_grid=(1.0, 2.0, 1.0))
        with pytest.raises(ConfigError, match="sigma grid repeats the value 0.5"):
            GridSearchConfig(sigma_grid=(0.5, 0.5))


def _reference_grid_search(view, kernel_kind, config):
    """The per-point loop the eigendecomposition replaced: one pool-wide
    ``ridge_solve`` per (lambda, sigma), loss ``|K_vt A - Y_val|^2``, on
    the earliest 70% of the rows against the rest."""
    n = len(view.rows)
    n_train = round(0.7 * n)
    train_idx, val_idx = np.arange(n_train), np.arange(n_train, n)
    Y = np.zeros((n, view.pool))
    for r, row in enumerate(view.rows):
        Y[r, list(row.used)] = 1.0
    train = [view.rows[i].features for i in train_idx]
    val = [view.rows[i].features for i in val_idx]
    if kernel_kind == "gaussian":
        specs = [KernelSpec("gaussian", sigma) for sigma in sorted(config.sigma_grid)]
    else:
        specs = [LINEAR]
    table, best, best_loss = [], None, math.inf
    for lam in sorted(config.lambda_grid):
        for spec in specs:
            A = ridge_solve(cross_kernel(spec, train, train), Y[train_idx], lam)
            loss = float(((cross_kernel(spec, val, train) @ A - Y[val_idx]) ** 2).sum())
            table.append((lam, spec.sigma if spec.kind == "gaussian" else None, loss))
            if loss < best_loss:
                best_loss, best = loss, (lam, spec)
    return best, table


def _assert_matches_reference(view, kernel_kind, config):
    result = grid_search(view, kernel_kind, config)
    best, table = _reference_grid_search(view, kernel_kind, config)
    assert (result.best_lambda, result.best_kernel) == best
    assert [row[:2] for row in result.table] == [row[:2] for row in table]
    for (_, _, got), (_, _, want) in zip(result.table, table):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    return result


class TestGridSearchAgainstReference:
    """One eigendecomposition per sigma against one ``ridge_solve`` per
    grid point: same chosen point, losses equal to 1e-12 relative."""

    @pytest.mark.parametrize("kernel_kind", ["gaussian", "linear"])
    def test_random_views(self, kernel_kind):
        rng = np.random.default_rng(21)
        for _ in range(24):
            view = _random_view(rng, int(rng.integers(2, 40)), pool=int(rng.integers(1, 9)))
            _assert_matches_reference(view, kernel_kind, GridSearchConfig())

    @pytest.mark.parametrize("kernel_kind", ["gaussian", "linear"])
    def test_one_validation_row(self, kernel_kind):
        rng = np.random.default_rng(22)
        for n in (2, 3):  # round(0.7 * n) = n - 1 training rows
            _assert_matches_reference(_random_view(rng, n), kernel_kind, GridSearchConfig())

    @pytest.mark.parametrize("kernel_kind", ["gaussian", "linear"])
    def test_empty_pool(self, kernel_kind):
        view = _random_view(np.random.default_rng(23), 10, pool=0)
        result = _assert_matches_reference(view, kernel_kind, GridSearchConfig())
        assert {loss for _, _, loss in result.table} == {0.0}


class TestGridSearchPoolCut:
    """Premises past the last training row are label columns of zeros.
    ``KernelRidgeRanker`` searches on the pool cut after that row, and the
    cut moves no chosen point.  It can move a loss by rounding:
    the sum of squares then adds its terms in another order."""

    @pytest.mark.parametrize("corpus_text", [planted_corpus_text, rich_corpus_text],
                             ids=["planted", "rich"])
    def test_the_cut_keeps_the_point_and_the_losses_to_rounding(self, tmp_path, corpus_text):
        cut_premises = 0
        for seed in (1, 2, 3, 4):
            directory = tmp_path / f"seed{seed}"
            directory.mkdir()
            formulas, deps = write_corpus(directory, *corpus_text(
                n_items=70, n_topics=4, feats_per_topic=6, seed=seed))
            corpus = load_corpus([formulas], deps)
            for position in range(14, len(corpus), 5):
                view = corpus.training_view(position)
                # a prefix of the rows, as a search of fewer rows than the view's
                rows = view.rows[: 2 + position % (len(view.rows) - 1)]
                full = dataclasses.replace(view, rows=rows)
                cut = dataclasses.replace(view, rows=rows, pool=rows[-1].position + 1)
                cut_premises += full.pool - cut.pool
                for kind in ("gaussian", "linear"):
                    config = GridSearchConfig()
                    got, want = grid_search(cut, kind, config), grid_search(full, kind, config)
                    assert (got.best_lambda, got.best_kernel) == (want.best_lambda,
                                                                  want.best_kernel)
                    assert [row[:2] for row in got.table] == [row[:2] for row in want.table]
                    for (_, _, a), (_, _, b) in zip(got.table, want.table):
                        assert a == pytest.approx(b, rel=1e-14, abs=0)
        assert cut_premises > 200


def _shift_eigenvalues(monkeypatch, shift):
    """Make every solve through ``np.linalg.eigh`` off: eigenvalues move
    by ``shift``, so ``(K_tt + lam*I)`` is inverted as if lam were
    ``lam + shift``, in the first solve and in the refinement alike."""
    eigh = np.linalg.eigh

    def shifted(K):
        w, Q = eigh(K)
        return w + shift, Q

    monkeypatch.setattr(np.linalg, "eigh", shifted)


class TestGridSearchResidual:
    """Mirrors :class:`TestRidgeFactor`'s residual tests for the grid
    search's eigenbasis solves."""

    CONFIG = GridSearchConfig(lambda_grid=(0.5, 1.0, 4.0), sigma_grid=(1.0, 3.0))

    def _view(self):
        return _random_view(np.random.default_rng(24), 25)

    def test_a_solve_off_by_more_than_the_bound_is_refined(self, monkeypatch):
        # Off by 1e-6 the solves miss the bound and the losses the
        # reference's by about 1e-6 relative; one refinement step takes
        # the error to about (1e-6 / lam)^2.
        view = self._view()
        _, reference = _reference_grid_search(view, "gaussian", self.CONFIG)
        _shift_eigenvalues(monkeypatch, 1e-6)
        result = grid_search(view, "gaussian", self.CONFIG)
        for (_, _, got), (_, _, want) in zip(result.table, reference):
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("wrong", [1e-3, math.nan, math.inf])
    def test_a_solve_that_refinement_cannot_mend_is_a_training_error(self, monkeypatch, wrong):
        view = self._view()
        _shift_eigenvalues(monkeypatch, wrong)
        with pytest.raises(TrainingError, match=f"exceeds {RESIDUAL_BOUND:.0e}"):
            grid_search(view, "gaussian", self.CONFIG)


class TestGram:
    """Posting-list counts against the ``scipy.sparse`` product they replaced."""

    def test_matches_the_sparse_product(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            # rows draw from features 0..29, columns from 0..19 only, and
            # random_vectors draws empty vectors too
            rows = random_vectors(rng, int(rng.integers(0, 15)), width=30, max_size=8)
            cols = random_vectors(rng, int(rng.integers(0, 15)), width=20, max_size=8)
            gram = _gram(rows, cols)
            assert gram.dtype == float and gram.shape == (len(rows), len(cols))
            np.testing.assert_array_equal(gram, reference_gram(rows, cols))

    def test_empty_vectors_and_features_no_column_has(self):
        rows = [FeatureVector([]), FeatureVector([7, 8]), FeatureVector([1, 7])]
        cols = [FeatureVector([1, 2]), FeatureVector([]), FeatureVector([1])]
        np.testing.assert_array_equal(_gram(rows, cols), [[0, 0, 0], [0, 0, 0], [1, 0, 1]])
        np.testing.assert_array_equal(_gram(rows, cols), reference_gram(rows, cols))
        assert _gram(rows, []).shape == (3, 0)
        assert _gram([], cols).shape == (0, 3)


class TestCrossKernel:
    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(9)
        rows = random_vectors(rng, 5)
        cols = random_vectors(rng, 3)
        for spec in (GAUSS, LINEAR):
            m = cross_kernel(spec, rows, cols)
            for i in range(5):
                for j in range(3):
                    assert m[i, j] == pytest.approx(
                        kernel_eval(spec, rows[i], cols[j]), abs=1e-12
                    )


def _random_view(rng, n_rows, pool=6):
    rows = [(list(v.indices), {p for p in range(pool) if rng.uniform() < 0.3})
            for v in random_vectors(rng, n_rows, width=15, max_size=6)]
    return view_from_indices(rows, pool,
                             conjecture_indices=list(random_vectors(rng, 1, width=15)[0]))


def _dual_scores(view, spec, lam, factor=None):
    factor = factor if factor is not None else RidgeFactor()
    factor.sync(view.rows, spec, lam)
    return factor.score(view.pool, view.conjecture_features)


class TestRidgeFactor:
    """The appended factor's dual scores against the primal reference
    ``ridge_score(ridge_train(...))``, and the bits of its history."""

    @pytest.mark.parametrize("spec", [GAUSS, LINEAR, KernelSpec("gaussian", 2.5)],
                             ids=["gauss1", "linear", "gauss2.5"])
    def test_growing_rows_match_the_reference(self, spec):
        rng = np.random.default_rng(11)
        view = _random_view(rng, 30)
        for lam in (2.0**-7, 1.0, 2.0**7):
            factor = RidgeFactor()
            for n in range(1, len(view.rows) + 1):
                prefix = dataclasses.replace(view, rows=view.rows[:n])
                scores = _dual_scores(prefix, spec, lam, factor)
                reference = ridge_score(ridge_train(prefix, spec, lam), view.conjecture_features)
                assert scores.dtype == float and scores.shape == reference.shape
                assert np.abs(scores - reference).max() <= 1e-9 * max(np.abs(reference).max(), 1)

    def test_appending_in_steps_gives_the_bits_of_one_sync(self):
        rng = np.random.default_rng(12)
        view = _random_view(rng, 40)
        walked = RidgeFactor()
        for n in (2, 3, 9, 10, 25, 40):
            walked.sync(view.rows[:n], GAUSS, 0.5)
        fresh = RidgeFactor()
        fresh.sync(view.rows, GAUSS, 0.5)
        for features in random_vectors(rng, 5, width=15):
            assert ([s.hex() for s in walked.score(6, features)]
                    == [s.hex() for s in fresh.score(6, features)])

    def test_other_rows_kernel_or_lambda_restart(self):
        rng = np.random.default_rng(13)
        view, other = _random_view(rng, 20), _random_view(rng, 20)
        factor = RidgeFactor()
        steps = [(view.rows, GAUSS, 1.0), (view.rows[:12], GAUSS, 1.0), (view.rows, GAUSS, 1.0),
                 (other.rows, GAUSS, 1.0), (other.rows, GAUSS, 0.25),
                 (other.rows, KernelSpec("gaussian", 3.0), 0.25), (other.rows, LINEAR, 0.25)]
        for rows, spec, lam in steps:
            prefix = dataclasses.replace(view, rows=rows)
            assert ([s.hex() for s in _dual_scores(prefix, spec, lam, factor)]
                    == [s.hex() for s in _dual_scores(prefix, spec, lam)])
            assert factor.rows == rows

    def test_premises_used_by_the_same_rows_tie_exactly(self):
        rng = np.random.default_rng(14)
        rows = [(list(v.indices), {0, 2} if rng.uniform() < 0.5 else {1})
                for v in random_vectors(rng, 25, width=15, max_size=6)]
        view = view_from_indices(rows, 4, conjecture_indices=[1, 4])
        scores = _dual_scores(view, GAUSS, 2.0**-7)
        assert scores[0] == scores[2] != scores[1]
        assert scores[3] == 0.0

    def test_lambda_must_be_finite_and_positive(self):
        view = _random_view(np.random.default_rng(15), 3)
        for lam in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                RidgeFactor().sync(view.rows, GAUSS, lam)

    def test_a_non_positive_pivot_is_a_training_error_and_empties_the_factor(self, monkeypatch):
        view = _random_view(np.random.default_rng(16), 10)
        factor = RidgeFactor()
        factor.sync(view.rows[:4], GAUSS, 0.5)
        with monkeypatch.context() as patch:
            patch.setattr(RidgeFactor, "_kernel_row", lambda self, features, n: np.full(n, -1.0))
            with pytest.raises(TrainingError, match="pivot"):
                factor.sync(view.rows, GAUSS, 0.5)
        assert factor.rows == ()
        assert ([s.hex() for s in _dual_scores(view, GAUSS, 0.5, factor)]
                == [s.hex() for s in _dual_scores(view, GAUSS, 0.5)])

    def test_a_solve_off_by_more_than_the_bound_is_refined(self, monkeypatch):
        view = _random_view(np.random.default_rng(17), 20)
        reference = ridge_score(ridge_train(view, GAUSS, 0.5), view.conjecture_features)
        solve = RidgeFactor._solve
        calls = []

        def first_call_off(self, rhs):
            calls.append(rhs)
            return solve(self, rhs) + (1e-6 if len(calls) == 1 else 0.0)

        monkeypatch.setattr(RidgeFactor, "_solve", first_call_off)
        scores = _dual_scores(view, GAUSS, 0.5)
        assert len(calls) == 2
        assert np.abs(scores - reference).max() <= 1e-9 * np.abs(reference).max()

    @pytest.mark.parametrize("wrong", [1e-3, math.nan, math.inf])
    def test_a_solve_that_refinement_cannot_mend_is_a_training_error(self, monkeypatch, wrong):
        view = _random_view(np.random.default_rng(18), 20)
        solve = RidgeFactor._solve
        monkeypatch.setattr(RidgeFactor, "_solve", lambda self, rhs: solve(self, rhs) + wrong)
        with pytest.raises(TrainingError, match=f"exceeds {RESIDUAL_BOUND:.0e}"):
            _dual_scores(view, GAUSS, 0.5)

    def test_a_wrong_product_is_caught_however_small_the_kernel_values(self, monkeypatch):
        view = _random_view(np.random.default_rng(27), BLOCK_ROWS + 20)
        # three features from row 0 and further from every other row:
        # every kernel value is at most exp(-3 / sigma^2) = exp(-24)
        features = FeatureVector([*view.rows[0].features, 99, 100, 101])
        factor = RidgeFactor()
        # the point that the default search picks on the 2078-item benchmark corpora
        factor.sync(view.rows, KernelSpec("gaussian", math.sqrt(2.0**-3)), 2.0**-7)
        assert 0 < np.abs(factor._kernel_row(features, len(view.rows))).max() < 1e-8

        def apply_without_first_block(self, x):
            out = self.lam * x
            for (K, _, _), lo, hi in list(self._spans(len(x)))[1:]:
                panel = K[: hi - lo, :hi]
                out[lo:hi] += panel @ x[:hi]
                out[:lo] += panel[:, :lo].T @ x[lo:hi]
            return out

        monkeypatch.setattr(RidgeFactor, "_apply", apply_without_first_block)
        with pytest.raises(TrainingError, match=f"exceeds {RESIDUAL_BOUND:.0e}"):
            factor.score(view.pool, features)

    def test_an_all_zero_right_hand_side_passes(self):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = kernel._checked_solve(lambda rhs: np.linalg.solve(M, rhs), lambda x: M @ x,
                                  np.zeros((2, 3)))
        assert x.shape == (2, 3) and not x.any()
        # every kernel value of a conjecture far from every row underflows to 0
        view = _random_view(np.random.default_rng(28), 20)
        factor = RidgeFactor()
        factor.sync(view.rows, KernelSpec("gaussian", 0.01), 0.5)
        assert not factor.score(view.pool, FeatureVector(range(100, 110))).any()

    def test_kernel_values_below_the_normal_floats_get_no_refinement_step(self, monkeypatch):
        # kernel values near 4e-322, whose rounding is absolute: a bound of
        # RESIDUAL_BOUND times them would underflow to 0 and force a refinement
        view = _random_view(np.random.default_rng(29), 20)
        features = FeatureVector([*view.rows[0].features, *range(100, 107)])
        factor = RidgeFactor()
        factor.sync(view.rows, KernelSpec("gaussian", math.sqrt(7 / 740)), 2.0**-7)
        assert 0 < np.abs(factor._kernel_row(features, len(view.rows))).max() < 1e-320
        solve, calls = RidgeFactor._solve, []
        monkeypatch.setattr(RidgeFactor, "_solve",
                            lambda self, rhs: calls.append(rhs) or solve(self, rhs))
        factor.score(view.pool, features)
        assert len(calls) == 1


class TestRidgeFactorBlocks:
    """Walks of a few hundred rows, past two boundaries of the factor's
    row blocks, scored the way ``eval`` scores them: each step scores the
    row it appends next, so most appends reuse that score's forward
    solve."""

    N = 2 * BLOCK_ROWS + 60
    CHECKPOINTS = (1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 70,
                   2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1, N)

    @pytest.mark.parametrize("spec, lam", [(GAUSS, 2.0**-7), (LINEAR, 1.0)],
                             ids=["gauss1", "linear"])
    def test_hundreds_of_rows_match_the_reference(self, spec, lam):
        view = _random_view(np.random.default_rng(19), self.N, pool=8)
        factor = RidgeFactor()
        for n in range(1, self.N + 1):
            prefix = dataclasses.replace(view, rows=view.rows[:n])
            if n in self.CHECKPOINTS:
                scores = _dual_scores(prefix, spec, lam, factor)
                reference = ridge_score(ridge_train(prefix, spec, lam), view.conjecture_features)
                assert np.abs(scores - reference).max() <= 1e-9 * max(np.abs(reference).max(), 1)
            factor.sync(prefix.rows, spec, lam)
            if n < self.N:
                factor.score(8, view.rows[n].features)

    def test_a_walk_with_scores_and_a_restart_gives_the_bits_of_one_sync(self):
        view = _random_view(np.random.default_rng(20), self.N)
        restart = BLOCK_ROWS + BLOCK_ROWS // 2  # in the middle of the second block
        walked = RidgeFactor()
        for n in range(1, self.N + 1):
            if n == restart:
                walked.sync(view.rows[:n], GAUSS, 2.0)  # another lambda: both syncs restart
            walked.sync(view.rows[:n], GAUSS, 0.5)
            if n in self.CHECKPOINTS:
                fresh = RidgeFactor()
                fresh.sync(view.rows[:n], GAUSS, 0.5)
                for features in (view.conjecture_features, view.rows[n - 1].features):
                    assert ([s.hex() for s in walked.score(6, features)]
                            == [s.hex() for s in fresh.score(6, features)])
            if n < self.N:
                walked.score(6, view.rows[n].features)

    def test_appending_the_row_just_scored_reuses_its_forward_solve(self, monkeypatch):
        view = _random_view(np.random.default_rng(21), BLOCK_ROWS + 2)
        n = BLOCK_ROWS
        factor = RidgeFactor()
        factor.sync(view.rows[:n], GAUSS, 0.5)
        solved = []
        spy_forward_solves(monkeypatch, lambda rhs: solved.append(len(rhs)))
        factor.score(6, view.rows[n].features)
        factor.sync(view.rows[: n + 1], GAUSS, 0.5)  # the scored kernel row: reused
        # feature 99 is in no row, but one more feature changes every
        # gaussian kernel value, so the forward solve is not reused
        factor.score(6, FeatureVector([*view.rows[n + 1].features, 99]))
        factor.sync(view.rows[: n + 2], GAUSS, 0.5)
        assert solved == [n, n + 1, n + 1]
        fresh = RidgeFactor()
        fresh.sync(view.rows[: n + 2], GAUSS, 0.5)
        assert ([s.hex() for s in factor.score(6, view.conjecture_features)]
                == [s.hex() for s in fresh.score(6, view.conjecture_features)])

    def test_other_features_with_the_same_kernel_row_reuse_the_forward_solve(self, monkeypatch):
        view = _random_view(np.random.default_rng(22), BLOCK_ROWS + 1)
        n = BLOCK_ROWS
        factor = RidgeFactor()
        factor.sync(view.rows[:n], LINEAR, 0.5)
        solved = []
        spy_forward_solves(monkeypatch, lambda rhs: solved.append(len(rhs)))
        # feature 99 is in no row, so the linear kernel row is the row's own
        factor.score(6, FeatureVector([*view.rows[n].features, 99]))
        factor.sync(view.rows[: n + 1], LINEAR, 0.5)
        assert solved == [n]
        fresh = RidgeFactor()
        fresh.sync(view.rows[: n + 1], LINEAR, 0.5)
        assert ([s.hex() for s in factor.score(6, view.conjecture_features)]
                == [s.hex() for s in fresh.score(6, view.conjecture_features)])
