"""Recall metric, incremental protocol, problem emission, and CSVs."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from premsel import evaluate, kernel
from premsel.corpus import load_corpus
from premsel.errors import ConfigError, TrainingError
from premsel.evaluate import (
    KernelRidgeRanker,
    NaiveBayesRanker,
    RankedAdvice,
    chronological_fallback,
    emit_problems,
    rank_advice,
    recall_at,
    report_csv,
    run_incremental,
    select_conjectures,
)
from premsel.fol import ROLES, parse_file, print_item
from premsel.kernel import GridSearchConfig, RidgeFactor, grid_search, ridge_score, ridge_train
from premsel.naive_bayes import nb_score, nb_train

from helpers import (
    dependencies_by_name,
    nb_oracle_score,
    oracle_feature_keys,
    planted_corpus_text,
    reference_problem_text,
    rich_corpus_text,
    view_from_indices,
    walk_advice,
    write_corpus,
)

THREE = """\
fof(item1, axiom, p(a)).
fof(item2, axiom, q(b)).
fof(item3, theorem, p(a) & q(b)).
"""


class TestRecallAt:
    def test_half(self):
        advice = RankedAdvice((0, 2, 1), (3.0, 2.0, 1.0))
        assert recall_at({0, 1}, advice, 2) == 0.5

    def test_full_pool_advised_means_one(self):
        advice = RankedAdvice((0, 1, 2), (3.0, 2.0, 1.0))
        assert recall_at({0, 1}, advice, 50) == 1.0

    def test_top_hit(self):
        advice = RankedAdvice((0, 1), (1.0, 0.0))
        assert recall_at({0}, advice, 1) == 1.0

    def test_empty_used_is_a_skip_signal(self):
        advice = RankedAdvice((0,), (0.0,))
        with pytest.raises(ValueError):
            recall_at(set(), advice, 1)

    def test_monotone_in_n(self):
        import random

        rng = random.Random(4)
        for _ in range(200):
            pool = list(range(rng.randint(1, 12)))
            rng.shuffle(pool)
            advice = RankedAdvice(tuple(pool), tuple(float(-i) for i in range(len(pool))))
            used = set(rng.sample(pool, rng.randint(1, len(pool))))
            values = [recall_at(used, advice, n) for n in range(1, len(pool) + 2)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0


class TestRankAdvice:
    def test_orders_by_score_then_position(self):
        advice = rank_advice("c", [1.0, 5.0, 5.0])
        assert advice.premises == (1, 2, 0)  # tie: earlier premise first
        assert advice.scores == (5.0, 5.0, 1.0)

    def test_permutation_of_pool(self):
        advice = rank_advice("c", [0.0, 0.0, 0.0])
        assert sorted(advice.premises) == [0, 1, 2]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_is_a_training_error(self, bad):
        with pytest.raises(TrainingError, match="non-finite"):
            rank_advice("c", [1, bad, 3, 2])

    def test_order_and_scores_equal_a_python_sort(self):
        # signed zeros, subnormals and repeats are where an array sort
        # could part from sorting on (-score, position)
        rng = random.Random(11)
        palette = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 1e300, -1e300]
        for trial in range(3000):
            size = rng.randrange(40)
            scores = [rng.choice(palette) if rng.random() < 0.5 else rng.uniform(-3, 3)
                      for _ in range(size)]
            order = sorted(range(size), key=lambda j: (-scores[j], j))
            advice = rank_advice("c", np.array(scores) if trial % 2 else scores)
            assert advice.premises == tuple(order)
            assert [s.hex() for s in advice.scores] == [scores[j].hex() for j in order]


class TestAdviseFallback:
    def test_advice_is_never_none(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE + "fof(item4, theorem, p(a)).\n",
                            "item3: item1\nitem4: item1\n")
        corpus = load_corpus([f], d)
        empty_pool = corpus.training_view(0)
        one_row = corpus.training_view(3)
        assert empty_pool.pool == 0 and len(one_row.rows) == 1
        mor = KernelRidgeRanker(grid=GridSearchConfig(lambda_grid=(1.0,), sigma_grid=(1.0,)))
        for ranker in (NaiveBayesRanker(), mor):
            advice = ranker.advise(empty_pool)
            assert advice == RankedAdvice((), (), fallback=True)
        # naive Bayes trains on any non-empty pool; ridge needs two rows
        assert not NaiveBayesRanker().advise(one_row).fallback
        assert mor.advise(one_row) == RankedAdvice((0, 1, 2), (0.0, 0.0, 0.0), fallback=True)


class _SecondReadFails:
    """Features that read once and raise on the second read of their
    indices: a row cut short part-way through being counted."""

    def __init__(self, features):
        self._features = features
        self._reads = 0

    def __len__(self):
        return len(self._features)

    @property
    def indices(self):
        self._reads += 1
        if self._reads > 1:
            raise RuntimeError("interrupted")
        return self._features.indices


def _interrupted_at(view, i):
    """``view`` with a used row ``i`` whose counting raises part-way."""
    row = view.rows[i]
    assert row.used and row.features
    cut = dataclasses.replace(row, features=_SecondReadFails(row.features))
    return dataclasses.replace(view, rows=view.rows[:i] + (cut,) + view.rows[i + 1 :])


class TestNaiveBayesRanker:
    """Advice from the running counts equals advice from a model trained
    from scratch on the same view, float for float."""

    @staticmethod
    def _planted(tmp_path, seed, row_roles=("theorem",)):
        formulas, deps = planted_corpus_text(n_items=40, n_topics=3, feats_per_topic=5,
                                             seed=seed)
        directory = tmp_path / f"seed{seed}"
        directory.mkdir(exist_ok=True)
        f, d = write_corpus(directory, formulas, deps)
        return load_corpus([f], d, row_roles)

    @staticmethod
    def _check(ranker, view):
        advice = ranker.advise(view)
        if view.pool:
            scores = nb_score(nb_train(view), view.conjecture_features)
            expected = rank_advice(view.conjecture_id, scores)
        else:
            expected = chronological_fallback(view)
        assert advice == expected
        assert [s.hex() for s in advice.scores] == [s.hex() for s in expected.scores]

    @pytest.mark.parametrize("row_roles", [("theorem",), ROLES], ids=["theorems", "all"])
    def test_every_step_equals_the_reference(self, tmp_path, row_roles):
        corpus = self._planted(tmp_path, seed=1, row_roles=row_roles)
        ranker = NaiveBayesRanker()
        for position in range(len(corpus)):
            self._check(ranker, corpus.training_view(position))

    def test_views_that_do_not_extend_the_counted_rows_restart(self, tmp_path):
        first, second = self._planted(tmp_path, seed=1), self._planted(tmp_path, seed=2)
        first_all = self._planted(tmp_path, seed=1, row_roles=ROLES)
        ranker = NaiveBayesRanker()
        steps = [(first, p) for p in (30, 10, 35, 34, 1, 0, 20)]
        steps += [(first_all, p) for p in (20, 25)]
        steps += [(second, p) for p in (15, 39)]
        for corpus, position in steps:
            self._check(ranker, corpus.training_view(position))

    def test_an_interrupted_sync_does_not_poison_the_counts(self, tmp_path):
        corpus = self._planted(tmp_path, seed=1)
        ranker = NaiveBayesRanker()
        ranker.advise(corpus.training_view(20))
        view = corpus.training_view(39)
        with pytest.raises(RuntimeError):
            ranker.advise(_interrupted_at(view, 15))
        self._check(ranker, view)

    def test_empty_pool_and_rowless_views(self, tmp_path):
        corpus = self._planted(tmp_path, seed=1)
        empty_pool = corpus.training_view(0)
        rowless = corpus.training_view(1)
        assert not empty_pool.pool
        assert rowless.pool and not rowless.rows
        ranker = NaiveBayesRanker()
        for view in (empty_pool, rowless):
            self._check(ranker, view)
        assert ranker.advise(empty_pool).fallback
        assert not ranker.advise(rowless).fallback


class TestKernelRidgeRanker:
    @pytest.mark.parametrize("regrid", ["once", "always"])
    def test_advice_trains_the_searched_point(self, regrid):
        view = view_from_indices(
            rows=[([0], {0}), ([1], set()), ([0, 1], {0}), ([2], set())],
            pool=2,
            conjecture_indices=(0, 2),
        )
        config = GridSearchConfig()
        ranker = KernelRidgeRanker(grid=config, regrid=regrid)
        advice = ranker.advise(view)

        if regrid == "once":
            # the first two rows and the pool up to the second of them
            first = dataclasses.replace(view, rows=view.rows[:2], pool=2)
            search = grid_search(first, "gaussian", config)
            assert ranker.search == search
        else:
            search = grid_search(view, "gaussian", config)
            assert ranker.search is None
        model = ridge_train(view, search.best_kernel, search.best_lambda)
        assert model.lam == search.best_lambda
        assert model.coef.shape == (4, 2)
        again = ridge_train(view, search.best_kernel, search.best_lambda)
        np.testing.assert_array_equal(model.coef, again.coef)
        factor = RidgeFactor()
        factor.sync(view.rows, search.best_kernel, search.best_lambda)
        scores = factor.score(view.pool, view.conjecture_features)
        assert advice == rank_advice(view.conjecture_id, scores)
        # the dual scores are the model's, up to rounding
        np.testing.assert_allclose(scores, ridge_score(model, view.conjecture_features),
                                   rtol=0, atol=1e-12)

    @staticmethod
    def _planted(tmp_path, seed=3, row_roles=("theorem",)):
        formulas, deps = planted_corpus_text(n_items=60, n_topics=4, feats_per_topic=6,
                                             seed=seed)
        directory = tmp_path / f"seed{seed}"
        directory.mkdir(exist_ok=True)
        f, d = write_corpus(directory, formulas, deps)
        return load_corpus([f], d, row_roles)

    def test_advice_depends_on_the_view_alone(self, tmp_path):
        corpus = self._planted(tmp_path)
        positions = select_conjectures(corpus)
        walked = walk_advice(corpus, KernelRidgeRanker(), positions)
        for position, advice in list(zip(positions, walked))[-10:]:
            assert KernelRidgeRanker().advise(corpus.training_view(position)) == advice

    def test_one_ranker_serves_any_corpus_and_row_roles(self, tmp_path):
        first, second = self._planted(tmp_path, seed=3), self._planted(tmp_path, seed=4)
        first_all = self._planted(tmp_path, seed=3, row_roles=ROLES)
        second_all = self._planted(tmp_path, seed=4, row_roles=ROLES)
        ranker = KernelRidgeRanker()
        steps = [(first, 50), (first_all, 40), (second, 45),
                 (first, 55), (second_all, 30), (second_all, 59)]
        for corpus, position in steps:
            view = corpus.training_view(position)
            assert ranker.advise(view) == KernelRidgeRanker().advise(view)

    def test_a_failed_search_is_an_error_of_every_trainable_step(self, tmp_path, monkeypatch):
        corpus = self._planted(tmp_path)

        def fail(*args):
            raise TrainingError("no search")

        monkeypatch.setattr(evaluate, "grid_search", fail)
        report = run_incremental(corpus, KernelRidgeRanker(), n_values=[5])
        trainable = [len(corpus.training_view(o.position).rows) >= 2 for o in report.outcomes]
        assert 0 < sum(trainable) < len(trainable)
        for outcome, can_train in zip(report.outcomes, trainable):
            assert outcome.error == ("no search" if can_train else None)
            assert outcome.fallback == (not can_train)
        assert report.error_count == sum(trainable)

    @pytest.mark.parametrize("regrid", ["once", "always"])
    def test_searches_per_walk(self, tmp_path, monkeypatch, regrid):
        corpus = self._planted(tmp_path)
        calls = []

        def counted(*args):
            calls.append(args)
            return grid_search(*args)

        monkeypatch.setattr(evaluate, "grid_search", counted)
        grid = GridSearchConfig(lambda_grid=(0.5, 2.0), sigma_grid=(1.0, 2.0))
        report = run_incremental(corpus, KernelRidgeRanker(grid=grid, regrid=regrid),
                                 n_values=[5])
        trainable = sum(not o.fallback for o in report.outcomes)
        assert len(calls) == (1 if regrid == "once" else trainable)

    def test_regrid_always_searches_a_repeated_view_once(self, tmp_path, monkeypatch):
        view = self._planted(tmp_path).training_view(40)
        calls = []

        def counted(*args):
            calls.append(args)
            return grid_search(*args)

        monkeypatch.setattr(evaluate, "grid_search", counted)
        ranker = KernelRidgeRanker(grid=GridSearchConfig(lambda_grid=(0.5, 2.0)),
                                   regrid="always")
        assert ranker.advise(view) == ranker.advise(view)
        assert len(calls) == 1
        assert calls[0][0].rows == view.rows
        assert ranker.search is None

    def test_regrid_once_does_not_depend_on_the_selection(self, tmp_path):
        # The search runs on the first trainable view of the walk however
        # few conjectures are selected, so one conjecture's advice, or a
        # late subset's outcomes, match the full run's.
        f, d = write_corpus(tmp_path, *planted_corpus_text(
            n_items=60, n_topics=4, feats_per_topic=6, seed=3))
        corpus = load_corpus([f], d)
        positions = select_conjectures(corpus)
        walked = walk_advice(corpus, KernelRidgeRanker(), positions)
        for position, advice in list(zip(positions, walked))[-10:]:
            assert walk_advice(corpus, KernelRidgeRanker(), [position]) == [advice]
        assert walk_advice(corpus, KernelRidgeRanker(), positions[-6:]) == walked[-6:]
        full = run_incremental(corpus, KernelRidgeRanker(), n_values=[5])
        late = full.outcomes[-6:]
        subset = run_incremental(corpus, KernelRidgeRanker(), n_values=[5],
                                 conjecture_ids=[o.conjecture_id for o in late])
        assert subset.outcomes == late


class TestKernelRidgeFactorPath:
    """The ranker's appended-factor advice against the primal reference,
    and its independence of the walk that led to a view."""

    @staticmethod
    def _bits(advice):
        return advice.premises, [s.hex() for s in advice.scores], advice.fallback

    @pytest.mark.parametrize("row_roles", [("theorem",), ROLES], ids=["theorems", "all"])
    def test_every_step_agrees_with_the_reference(self, tmp_path, row_roles):
        corpus = TestNaiveBayesRanker._planted(tmp_path, seed=1, row_roles=row_roles)
        ranker = KernelRidgeRanker()
        checked = 0
        for position in range(len(corpus)):
            view = corpus.training_view(position)
            advice = ranker.advise(view)
            if advice.fallback:
                assert len(view.rows) < 2 or not view.pool
                continue
            point = ranker.search
            model = ridge_train(view, point.best_kernel, point.best_lambda)
            reference = ridge_score(model, view.conjecture_features)
            tolerance = 1e-9 * np.abs(reference).max()
            expected = reference[list(advice.premises)]
            assert np.abs(np.array(advice.scores) - expected).max() <= tolerance
            # a descending order of the reference scores, up to the tolerance
            assert (np.diff(expected) <= tolerance).all()
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("regrid", ["once", "always"])
    def test_a_fresh_ranker_gives_the_bits_of_the_walk(self, tmp_path, regrid):
        corpus = TestKernelRidgeRanker._planted(tmp_path)
        positions = select_conjectures(corpus)
        walked = walk_advice(corpus, KernelRidgeRanker(regrid=regrid), positions)
        for position, advice in list(zip(positions, walked))[-10:]:
            fresh = KernelRidgeRanker(regrid=regrid).advise(corpus.training_view(position))
            assert self._bits(fresh) == self._bits(advice)

    def test_regrid_once_and_always_give_the_same_bits_at_one_point(self, tmp_path):
        corpus = TestKernelRidgeRanker._planted(tmp_path)
        positions = select_conjectures(corpus)
        grid = GridSearchConfig(lambda_grid=(0.5,), sigma_grid=(2.0,))
        once = walk_advice(corpus, KernelRidgeRanker(grid=grid, regrid="once"), positions)
        always = walk_advice(corpus, KernelRidgeRanker(grid=grid, regrid="always"), positions)
        assert [self._bits(a) for a in once] == [self._bits(a) for a in always]

    def test_regrid_always_keeps_its_factor_while_the_point_holds(self, tmp_path, monkeypatch):
        corpus = TestKernelRidgeRanker._planted(tmp_path)
        positions = select_conjectures(corpus)
        appended = []
        append = RidgeFactor._append

        def counted(factor, i, row):
            appended.append(i)
            append(factor, i, row)

        monkeypatch.setattr(RidgeFactor, "_append", counted)
        grid = GridSearchConfig(lambda_grid=(0.5,), sigma_grid=(2.0,))
        walk_advice(corpus, KernelRidgeRanker(grid=grid, regrid="always"), positions)
        assert appended == list(range(len(corpus.training_view(positions[-1]).rows)))

    def test_an_interrupted_sync_does_not_poison_the_factor(self, tmp_path):
        corpus = TestNaiveBayesRanker._planted(tmp_path, seed=1)
        ranker = KernelRidgeRanker()
        ranker.advise(corpus.training_view(20))
        view = corpus.training_view(39)
        with pytest.raises(RuntimeError):
            ranker.advise(_interrupted_at(view, 15))
        assert self._bits(ranker.advise(view)) == self._bits(KernelRidgeRanker().advise(view))

    def test_views_that_do_not_extend_the_factor_restart(self, tmp_path):
        first = TestKernelRidgeRanker._planted(tmp_path, seed=3)
        first_all = TestKernelRidgeRanker._planted(tmp_path, seed=3, row_roles=ROLES)
        second = TestKernelRidgeRanker._planted(tmp_path, seed=4)
        ranker = KernelRidgeRanker()
        steps = [(first, p) for p in (50, 20, 55, 54, 30)]
        steps += [(first_all, p) for p in (40, 45)]
        steps += [(second, p) for p in (35, 59)]
        for corpus, position in steps:
            view = corpus.training_view(position)
            assert self._bits(ranker.advise(view)) == self._bits(KernelRidgeRanker().advise(view))
        # a changed (lambda, sigma) on the same rows: three rankers share one factor
        rankers = [KernelRidgeRanker(grid=GridSearchConfig(lambda_grid=(lam,), sigma_grid=(sigma,)))
                   for lam, sigma in ((0.5, 1.0), (0.5, 2.0), (2.0, 2.0))]
        for other in rankers[1:]:
            other.factor = rankers[0].factor
        view = first.training_view(55)
        for ranker in (*rankers, rankers[0]):
            fresh = KernelRidgeRanker(grid=ranker.grid).advise(view)
            assert self._bits(ranker.advise(view)) == self._bits(fresh)

    def test_a_walk_counts_each_kernel_row_once_and_reuses_equal_ones(self, tmp_path,
                                                                       monkeypatch):
        formulas, deps = planted_corpus_text(n_items=80, n_topics=6, feats_per_topic=8, seed=2)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        log = []

        def spy(name, method):
            def call(*args):
                log.append((name, args[-1]))
                return method(*args)
            return call

        monkeypatch.setattr(kernel, "_counts", spy("counts", kernel._counts))
        monkeypatch.setattr(RidgeFactor, "_forward", spy("forward", RidgeFactor._forward))
        monkeypatch.setattr(RidgeFactor, "_append", spy("append", RidgeFactor._append))
        monkeypatch.setattr(RidgeFactor, "score", spy("score", RidgeFactor.score))
        assert run_incremental(corpus, KernelRidgeRanker(), n_values=[5]).error_count == 0
        # [name, row or features, _counts calls, _forward calls] per append
        # or score; the grid search's counts come before the first of them
        calls = []
        for name, arg in log:
            if name in ("append", "score"):
                calls.append([name, arg, 0, 0])
            elif calls:
                calls[-1][2 if name == "counts" else 3] += 1
        assert [counted for *_, counted, _ in calls] == [1] * len(calls)
        # forward solves of each append right after a score, by row position
        after_score = {row.position: forwards for (last, *_), (name, row, _, forwards)
                       in zip(calls, calls[1:]) if last == "score" and name == "append"}
        # theorems whose features were all seen before them: scored as a
        # conjecture, such a theorem has its row's features and kernel row
        whole = {p for p in after_score
                 if corpus.training_view(p).conjecture_features == corpus.rows[p].features}
        assert whole and after_score.keys() - whole
        # a conjecture cut to fewer features has another gaussian kernel row
        assert after_score == {p: int(p not in whole) for p in after_score}

    @pytest.mark.parametrize("regrid", ["once", "always"])
    def test_a_non_positive_pivot_is_a_step_error(self, tmp_path, monkeypatch, regrid):
        corpus = TestKernelRidgeRanker._planted(tmp_path)
        monkeypatch.setattr(RidgeFactor, "_kernel_row",
                            lambda self, features, n: np.full(n, -1.0))
        grid = GridSearchConfig(lambda_grid=(0.5,), sigma_grid=(1.0,))
        report = run_incremental(corpus, KernelRidgeRanker(grid=grid, regrid=regrid),
                                 n_values=[5])
        trainable = [len(corpus.training_view(o.position).rows) >= 2 for o in report.outcomes]
        assert 0 < sum(trainable) < len(trainable)
        for outcome, can_train in zip(report.outcomes, trainable):
            assert (outcome.error is not None and "pivot" in outcome.error) == can_train
            assert outcome.fallback == (not can_train)
        assert report.error_count == sum(trainable)


class TestRunIncremental:
    def test_single_conjecture_whose_dependency_tops(self, tmp_path):
        paths = write_corpus(tmp_path, "fof(a1, axiom, p(a)).\nfof(t1, theorem, p(a)).\n",
                             "t1: a1\n")
        corpus = load_corpus([paths[0]], paths[1])
        report = run_incremental(corpus, NaiveBayesRanker(), n_values=[1])
        assert report.evaluated_count == 1
        assert report.averages[1] == 1.0

    def test_matches_bruteforce_oracle_on_planted_corpus(self, tmp_path):
        formulas, deps = planted_corpus_text(
            n_items=20, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=3
        )
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        n_values = (1, 2, 3, 5)
        report = run_incremental(corpus, NaiveBayesRanker(), n_values=n_values)

        # Independent route: oracle features, oracle scores, oracle
        # ranking, exact-fraction recall, then compare the averages.
        items = parse_file(f)
        keys = [oracle_feature_keys(it.formula) for it in items]
        deps_by_name = dependencies_by_name(formulas, deps)
        expected: dict[int, list[Fraction]] = {n: [] for n in n_values}
        for i, item in enumerate(items):
            used = deps_by_name[item.name]
            if not used:
                continue
            known = set().union(*keys[:i]) if i else set()
            visible = sorted(keys[i] & known)
            scores = []
            for p in range(i):
                premise_rows = [
                    (keys[j], items[p].name in deps_by_name[items[j].name])
                    for j in range(i)
                ]
                scores.append(nb_oracle_score(premise_rows, visible))
            order = sorted(range(i), key=lambda j: (-scores[j], j))
            ranked = [items[j].name for j in order]
            for n in n_values:
                hits = sum(1 for name in ranked[:n] if name in used)
                expected[n].append(Fraction(hits, len(used)))
        for n in n_values:
            want = float(sum(expected[n], Fraction(0)) / len(expected[n]))
            assert report.averages[n] == pytest.approx(want, abs=1e-12)

    def test_ridge_matches_direct_inverse_oracle_on_tiny_corpus(self, tmp_path):
        import math

        import numpy as np

        formulas, deps = planted_corpus_text(
            n_items=20, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=14
        )
        f, d = write_corpus(tmp_path, formulas, deps)
        lam, sigma = 0.5, 1.5
        ranker = KernelRidgeRanker(
            grid=GridSearchConfig(lambda_grid=(lam,), sigma_grid=(sigma,))
        )
        report = run_incremental(load_corpus([f], d), ranker, n_values=[5])

        # Independent route: explicit loop kernels, a plain matrix
        # inverse instead of the factorization, and fraction recall.
        corpus = load_corpus([f], d)
        deps_by_name = dependencies_by_name(formulas, deps)

        def gauss(a, b):
            a, b = set(a.indices), set(b.indices)
            return math.exp(-((len(a) + len(b) - 2 * len(a & b)) / sigma**2))

        checked = 0
        for outcome in report.outcomes:
            if outcome.recalls is None or outcome.fallback:
                continue
            view = corpus.training_view(outcome.position)
            n = len(view.rows)
            K = np.array([[gauss(r.features, s.features) for s in view.rows]
                          for r in view.rows])
            Y = np.zeros((n, view.pool))
            for r, row in enumerate(view.rows):
                for p in row.used:
                    Y[r, p] = 1.0
            A = np.linalg.inv(K + lam * np.eye(n)) @ Y
            kvec = np.array([gauss(view.conjecture_features, r.features)
                             for r in view.rows])
            scores = A.T @ kvec
            order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
            ranked = [corpus.names[j] for j in order]
            used = deps_by_name[outcome.conjecture_id]
            hits = sum(1 for name in ranked[:5] if name in used)
            assert outcome.recalls[5] == pytest.approx(hits / len(used), abs=1e-12)
            checked += 1
        assert checked >= 5

    def test_segments_split_eight_into_four_pairs(self, tmp_path):
        lines = ["fof(a0, axiom, p(a))."]
        dep_lines = []
        for i in range(8):
            lines.append(f"fof(t{i}, theorem, p(a)).")
            dep_lines.append(f"t{i}: a0")
        f, d = write_corpus(tmp_path, "\n".join(lines) + "\n", "\n".join(dep_lines) + "\n")
        report = run_incremental(load_corpus([f], d), NaiveBayesRanker(), n_values=[1])
        assert [seg.count for seg in report.segments] == [2, 2, 2, 2]

    def test_ridge_falls_back_before_two_rows(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE + "fof(item4, theorem, p(a)).\n",
                            "item3: item1\nitem4: item1\n")
        corpus = load_corpus([f], d)
        grid = GridSearchConfig(lambda_grid=(1.0,), sigma_grid=(1.0,))
        report = run_incremental(corpus, KernelRidgeRanker(grid=grid), n_values=[1, 2])
        positions = [o.position for o in report.outcomes]
        walked = walk_advice(corpus, KernelRidgeRanker(grid=grid), positions)
        by_id = {o.conjecture_id: (o, advice) for o, advice in zip(report.outcomes, walked)}
        # item3 has no earlier theorem rows: chronological fallback.
        outcome, advice = by_id["item3"]
        assert outcome.fallback and advice.fallback
        assert advice.premises == (0, 1)  # item1, item2
        assert outcome.recalls[1] == 1.0

    def test_training_errors_are_recorded_and_skipped(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE + "fof(item4, theorem, p(a)).\n",
                            "item3: item1\nitem4: item1\n")
        corpus = load_corpus([f], d)

        class Boom(NaiveBayesRanker):
            def advise(self, view):
                if view.conjecture_id == "item3":
                    raise TrainingError("boom")
                return super().advise(view)

        report = run_incremental(corpus, Boom(), n_values=[1])
        assert report.error_count == 1
        assert report.evaluated_count == 1
        by_id = {o.conjecture_id: o for o in report.outcomes}
        assert by_id["item3"].error == "boom"
        assert by_id["item3"].recalls is None
        # an outcome is built once, after its step, and is not changed later
        with pytest.raises(dataclasses.FrozenInstanceError):
            by_id["item3"].error = None

    def test_running_out_of_memory_names_the_step(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE + "fof(item4, theorem, p(a)).\n",
                            "item3: item1\nitem4: item1\n")
        original = MemoryError()

        class Hungry(NaiveBayesRanker):
            def advise(self, view):
                if view.conjecture_id == "item4":
                    raise original
                return super().advise(view)

        with pytest.raises(MemoryError) as info:
            run_incremental(load_corpus([f], d), Hungry(), n_values=[1])
        assert str(info.value) == "out of memory at item4 (position 3, 1 training rows)"
        assert info.value.__cause__ is original

    def test_non_finite_scores_are_recorded_as_step_errors(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE + "fof(item4, theorem, p(a)).\n",
                            "item3: item1\nitem4: item1\n")

        class NanRanker(NaiveBayesRanker):
            def advise(self, view):
                return rank_advice(view.conjecture_id, [math.nan] * view.pool)

        report = run_incremental(load_corpus([f], d), NanRanker(), n_values=[1])
        assert report.error_count == 2
        assert report.evaluated_count == 0
        assert report.averages == {}
        for outcome in report.outcomes:
            assert outcome.recalls is None
            assert outcome.error == f"non-finite premise score for {outcome.conjecture_id}"

    def test_no_leakage_in_advice(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=15, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=5)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        report = run_incremental(corpus, NaiveBayesRanker(), n_values=[3])
        assert report.error_count == 0
        positions = [o.position for o in report.outcomes]
        for position, advice in zip(positions, walk_advice(corpus, NaiveBayesRanker(), positions)):
            for premise in advice.premises:
                assert premise < position

    def test_conjecture_filters(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "item3: item1\n")
        corpus = load_corpus([f], d)
        by_ids = run_incremental(corpus, NaiveBayesRanker(), n_values=[1],
                                 conjecture_ids=["item2"])
        assert [o.conjecture_id for o in by_ids.outcomes] == ["item2"]
        by_role = run_incremental(corpus, NaiveBayesRanker(), n_values=[1],
                                  conjecture_roles=("axiom",))
        assert [o.conjecture_id for o in by_role.outcomes] == ["item1", "item2"]

    def test_bad_n_values_rejected(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "")
        corpus = load_corpus([f], d)
        with pytest.raises(ConfigError):
            run_incremental(corpus, NaiveBayesRanker(), n_values=[0])
        with pytest.raises(ConfigError):
            run_incremental(corpus, NaiveBayesRanker(), n_values=[])


class TestReportCsv:
    def test_empty_filter_gives_header_only(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "")
        report = run_incremental(load_corpus([f], d), NaiveBayesRanker(), n_values=[1, 2],
                                 conjecture_ids=[])
        paths = report_csv(report, tmp_path / "out")
        lines = paths["conjectures"].read_text().splitlines()
        assert lines == ["conjecture_id,position,pool_size,used_count,fallback,error,recall@1,recall@2"]
        assert paths["average"].read_text().splitlines() == ["n,average_recall"]

    def test_rows_match_report(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "item3: item1\n")
        report = run_incremental(load_corpus([f], d), NaiveBayesRanker(), n_values=[1, 2])
        paths = report_csv(report, tmp_path / "out")
        lines = paths["conjectures"].read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "item3"
        assert fields[1] == "2" and fields[2] == "2" and fields[3] == "1"
        avg = paths["average"].read_text().splitlines()
        assert avg[1].startswith("1,") and avg[2].startswith("2,")

    def test_recall_columns_nondecreasing(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=20, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=9)
        f, d = write_corpus(tmp_path, formulas, deps)
        report = run_incremental(load_corpus([f], d), NaiveBayesRanker(),
                                 n_values=[1, 2, 5, 10])
        paths = report_csv(report, tmp_path / "out")
        for line in paths["conjectures"].read_text().splitlines()[1:]:
            cells = line.split(",")[6:]
            values = [float(c) for c in cells if c]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_byte_identical_across_runs(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=15, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=10)
        f, d = write_corpus(tmp_path, formulas, deps)
        outputs = []
        for name in ("one", "two"):
            report = run_incremental(load_corpus([f], d), NaiveBayesRanker(),
                                     n_values=[1, 3])
            paths = report_csv(report, tmp_path / name)
            outputs.append({k: p.read_bytes() for k, p in paths.items()})
        assert outputs[0] == outputs[1]


class TestEmit:
    def test_bushy_and_chainy_contents(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "item3: item1\n")
        corpus = load_corpus([f], d)
        bushy = emit_problems(corpus, "bushy", tmp_path / "bushy")
        assert [p.name for p in bushy] == ["item3.p"]
        assert bushy[0].read_text(encoding="utf-8") == (
            "fof(item1, axiom, p(a)).\n"
            "fof(item3, conjecture, p(a) & q(b)).\n"
        )
        chainy = emit_problems(corpus, "chainy", tmp_path / "chainy")
        assert chainy[0].read_text(encoding="utf-8") == (
            "fof(item1, axiom, p(a)).\n"
            "fof(item2, axiom, q(b)).\n"
            "fof(item3, conjecture, p(a) & q(b)).\n"
        )

    def test_emitted_files_reparse(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=10, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=11)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        for mode in ("bushy", "chainy"):
            for path in emit_problems(corpus, mode, tmp_path / mode):
                items = parse_file(path)
                assert items[-1].role == "conjecture"
                assert all(i.role == "axiom" for i in items[:-1])

    def test_bushy_axioms_subset_of_chainy(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=12, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=12)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        bushy = {p.name: {i.name for i in parse_file(p)[:-1]}
                 for p in emit_problems(corpus, "bushy", tmp_path / "b")}
        chainy = {p.name: {i.name for i in parse_file(p)[:-1]}
                  for p in emit_problems(corpus, "chainy", tmp_path / "c")}
        assert bushy.keys() == chainy.keys()
        for name in bushy:
            assert bushy[name] <= chainy[name]

    def test_chainy_axiom_counts_average(self, tmp_path):
        n = 9
        lines = [f"fof(t{i}, theorem, p(a))." for i in range(n)]
        f, d = write_corpus(tmp_path, "\n".join(lines) + "\n", "")
        corpus = load_corpus([f], d)
        files = emit_problems(corpus, "chainy", tmp_path / "chainy")
        counts = [len(parse_file(p)) - 1 for p in files]
        assert counts == list(range(n))
        assert sum(counts) / n == (n - 1) / 2

    def test_bushy_average_equals_average_dependency_count(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=12, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=13)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        files = emit_problems(corpus, "bushy", tmp_path / "bushy")
        emitted = {p.name[:-2]: len(parse_file(p)) - 1 for p in files}
        for name, used in dependencies_by_name(formulas, deps).items():
            assert emitted[name] == len(used)

    def test_advised_mode_needs_ranker_and_n(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "item3: item1\n")
        corpus = load_corpus([f], d)
        with pytest.raises(ConfigError):
            emit_problems(corpus, "advised", tmp_path / "a")
        files = emit_problems(corpus, "advised", tmp_path / "a", n=1,
                              ranker=NaiveBayesRanker())
        items = parse_file(files[0])
        assert len(items) == 2
        assert items[0].name == "item1"  # the dependency ranks first

    @pytest.mark.parametrize("seed", [1, 2])
    def test_files_match_the_per_axiom_reference(self, tmp_path, seed):
        formulas, deps = rich_corpus_text(n_items=40, seed=seed, n_topics=4, feats_per_topic=6)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        theorems = select_conjectures(corpus, None, ("theorem",))
        advice = dict(zip(theorems, walk_advice(corpus, NaiveBayesRanker(), theorems)))
        names = [item.name for item in parse_file(f)]
        deps_by_name = dependencies_by_name(formulas, deps)
        axioms = {
            "bushy": lambda p: sorted(deps_by_name[names[p]], key=names.index),
            "chainy": lambda p: names[:p],
            "advised": lambda p: [names[q] for q in advice[p].premises[:3]],
        }
        for mode, axiom_ids in axioms.items():
            options = {"n": 3, "ranker": NaiveBayesRanker()} if mode == "advised" else {}
            files = emit_problems(corpus, mode, tmp_path / mode, **options)
            assert [p.name for p in files] == [f"{names[p]}.p" for p in theorems]
            for position, path in zip(theorems, files):
                expected = reference_problem_text(corpus, position, axiom_ids(position))
                assert path.read_bytes() == expected.encode("utf-8"), (mode, path.name)

    def test_chainy_prints_each_item_once(self, tmp_path, monkeypatch):
        formulas, deps = rich_corpus_text(n_items=30, seed=3, n_topics=3, feats_per_topic=6)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        calls = []
        # the module-level name, which the benchmark tracer also wraps
        monkeypatch.setattr(evaluate, "print_item",
                            lambda item: calls.append(item.name) or print_item(item))
        files = emit_problems(corpus, "chainy", tmp_path / "chainy")
        last = max(select_conjectures(corpus, None, ("theorem",)))
        # chainy lists every item before the last conjecture as an axiom
        assert len(files) < len(calls) <= last + len(files)

    def test_unknown_mode_rejected(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "")
        with pytest.raises(ConfigError):
            emit_problems(load_corpus([f], d), "fluffy", tmp_path / "x")
