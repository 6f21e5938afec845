"""Naive Bayes training and scoring, checked against hand computations
and the independent count-table oracle; the running counts are checked
against the from-scratch reference."""

import math
import random

import numpy as np
import pytest

from premsel.corpus import TrainingRow
from premsel.errors import ConfigError, TrainingError
from premsel.features import FeatureVector
from premsel.kernel import KernelSpec, RidgeFactor
from premsel.naive_bayes import NbCounts, nb_score, nb_train

from helpers import nb_oracle_score, nb_weight, view_from_indices


def _two_row_view():
    # c1 uses the premise and has feature 0; c2 does not and has feature 1.
    return view_from_indices(
        rows=[([0], {0}), ([1], set())],
        pool=1,
        conjecture_indices=[0],
    )


class TestTraining:
    def test_prior_with_single_using_row(self):
        view = view_from_indices([([0], {0})], 1)
        model = nb_train(view)
        # smoothed prior is 2/3, so the log odds are ln 2
        assert model.priors[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_computed_weight(self):
        model = nb_train(_two_row_view())
        # P(f0 | used) = 2/3 and P(f0 | unused) = 1/3 after add-one smoothing
        assert nb_weight(model, 0, 0) == pytest.approx(math.log(2), abs=1e-12)
        assert nb_weight(model, 0, 1) == pytest.approx(-math.log(2), abs=1e-12)

    def test_feature_absent_from_all_rows_is_neutral(self):
        # One using and one non-using row: both classes get the same
        # smoothed mass for a never-seen feature, so the weight is ln 1.
        model = nb_train(_two_row_view())
        assert nb_weight(model, 0, 77) == 0.0

    def test_empty_pool_rejected(self):
        with pytest.raises(TrainingError):
            nb_train(view_from_indices([([0], set())], 0))

    def test_smoothing_must_be_finite_and_positive(self):
        for smoothing in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                nb_train(_two_row_view(), smoothing)
            with pytest.raises(ConfigError):
                NbCounts(smoothing)

    def test_zero_rows_is_uniform(self):
        model = nb_train(view_from_indices([], 2))
        assert model.priors == (0.0, 0.0)
        scores = nb_score(model, FeatureVector([]))
        assert scores[0] == scores[1] == 0.0

    def test_premise_set_equals_pool(self):
        model = nb_train(view_from_indices([([0], {1})], 3))
        assert model.pool == 3 and len(model.priors) == len(model.bases) == 3

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = random.Random(3)
        for _ in range(50):
            n_rows = rng.randint(0, 6)
            pool = rng.randint(1, 4)
            rows = [
                (rng.sample(range(5), rng.randint(0, 4)),
                 {p for p in range(pool) if rng.random() < 0.4})
                for _ in range(n_rows)
            ]
            model = nb_train(view_from_indices(rows, pool))
            for p in range(pool):
                assert math.isfinite(model.priors[p])
                assert math.isfinite(model.bases[p])
                for i in range(6):
                    a = model.smoothing
                    used = model.uses[p]
                    cp = model.positive_counts[p].get(i, 0)
                    cond = (cp + a) / (used + 2 * a)
                    assert 0.0 < cond < 1.0
                    assert math.isfinite(nb_weight(model, p, i))


class TestScoring:
    def test_empty_features_scores_equal_priors(self):
        model = nb_train(_two_row_view())
        assert nb_score(model, FeatureVector([]))[0] == model.priors[0]

    def test_conjecture_matching_used_premise_scores_higher(self):
        # Premise 0 was used by a row with feature 0; premise 1 never
        # used.  A conjecture with feature 0 must prefer premise 0.
        view = view_from_indices(
            rows=[([0], {0}), ([1], set())],
            pool=2,
            conjecture_indices=[0],
        )
        model = nb_train(view)
        scores = nb_score(model, FeatureVector([0]))
        assert scores[0] > scores[1]

    def test_scoring_is_idempotent_in_vector_construction(self):
        model = nb_train(_two_row_view())
        once = nb_score(model, FeatureVector([0, 1]))
        again = nb_score(model, FeatureVector([0, 1, 1, 0]))
        np.testing.assert_array_equal(once, again)

    def test_affine_in_single_features(self):
        # Adding feature i to the conjecture moves the score by w(p, i).
        rng = random.Random(11)
        rows = [
            (rng.sample(range(8), rng.randint(1, 5)), {0} if rng.random() < 0.5 else set())
            for _ in range(6)
        ]
        model = nb_train(view_from_indices(rows, 1))
        base_set = [0, 3]
        base = nb_score(model, FeatureVector(base_set))[0]
        for i in (1, 2, 4, 7):
            extended = nb_score(model, FeatureVector(base_set + [i]))[0]
            assert extended - base == pytest.approx(nb_weight(model, 0, i), abs=1e-12)

    def test_ranking_invariant_under_monotone_transforms(self):
        rng = random.Random(13)
        rows = [
            (rng.sample(range(6), 3), {p for p in range(4) if rng.random() < 0.5})
            for _ in range(5)
        ]
        model = nb_train(view_from_indices(rows, 4))
        scores = nb_score(model, FeatureVector([0, 2]))
        transformed = 3.0 * scores + 7.0
        assert list(np.argsort(-scores, kind="stable")) == list(
            np.argsort(-transformed, kind="stable")
        )


class TestOracleAgreement:
    def test_matches_count_table_oracle_on_random_views(self):
        rng = random.Random(17)
        for _ in range(150):
            n_rows = rng.randint(1, 5)
            pool = rng.randint(1, 3)
            rows = [
                (set(rng.sample(range(4), rng.randint(0, 4))),
                 {p for p in range(pool) if rng.random() < 0.4})
                for _ in range(n_rows)
            ]
            conj = set(rng.sample(range(4), rng.randint(0, 4)))
            view = view_from_indices(rows, pool, sorted(conj))
            scores = nb_score(nb_train(view), view.conjecture_features)
            for p in range(pool):
                expected = nb_oracle_score(
                    [(feats, p in used) for feats, used in rows], sorted(conj)
                )
                assert scores[p] == pytest.approx(expected, abs=1e-12)

    def test_row_order_does_not_matter(self):
        rng = random.Random(19)
        rows = [
            (rng.sample(range(4), rng.randint(0, 3)), {0} if rng.random() < 0.5 else set())
            for _ in range(5)
        ]
        conj = FeatureVector([0, 1, 2])
        base = nb_score(nb_train(view_from_indices(rows, 1)), conj)
        for _ in range(5):
            rng.shuffle(rows)
            shuffled = nb_score(nb_train(view_from_indices(rows, 1)), conj)
            np.testing.assert_allclose(shuffled, base, atol=1e-12)


def _bits(scores):
    # exact float identity, sign of zero included
    return [float(s).hex() for s in scores]


class TestRunningCounts:
    @pytest.mark.parametrize("smoothing", [1.0, 0.5])
    def test_growing_rows_score_as_the_reference(self, smoothing):
        rng = random.Random(29)
        counts = NbCounts(smoothing)
        rows = []
        for step in range(40):
            pool = step + 1
            conj = rng.sample(range(12), rng.randint(0, 6))
            # value-equal rows, not the same objects: still an extension
            view = view_from_indices(rows, pool, conj)
            counts.sync(view.rows)
            reference = nb_score(nb_train(view, smoothing), view.conjecture_features)
            assert _bits(counts.score(pool, view.conjecture_features)) == _bits(reference)
            for _ in range(rng.randint(0, 2)):
                rows.append((rng.sample(range(10), rng.randint(0, 5)),
                             {p for p in range(pool) if rng.random() < 0.3}))

    def test_row_without_features_is_a_training_error(self):
        # the check is RowState's, so the ridge factor gets it too; either
        # state stays as it was
        view = _two_row_view()
        bad = view.rows + (TrainingRow(2, None, frozenset({0})),)
        counts = NbCounts()
        counts.sync(view.rows)
        with pytest.raises(TrainingError):
            counts.sync(bad)
        reference = nb_score(nb_train(view), view.conjecture_features)
        assert _bits(counts.score(1, view.conjecture_features)) == _bits(reference)

        factor = RidgeFactor()
        factor.sync(view.rows, KernelSpec(), 1.0)
        before = _bits(factor.score(1, view.conjecture_features))
        with pytest.raises(TrainingError):
            factor.sync(bad, KernelSpec(), 1.0)
        assert factor.rows == view.rows
        assert _bits(factor.score(1, view.conjecture_features)) == before
