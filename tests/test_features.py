"""Feature extraction, dictionary, and sparse vector behavior."""

import random

import pytest

from premsel.features import FeatureVector, extract_features, vectorize
from premsel.fol import And, Not, parse_item

from helpers import oracle_feature_keys, rand_formula


def _formula(text):
    return parse_item(f"fof(t, axiom, {text}).").formula


class TestExtractFeatures:
    def test_one_symbol_layer(self):
        assert extract_features(_formula("p(a)")) == {"s:p/1", "s:a/0", "t:a"}

    def test_nested_term_with_bound_variable(self):
        # Enumerated by hand: p/2 and f/1 and the constant a as symbols;
        # subterms are the variable, f applied to it, and a.
        expected = {"s:p/2", "s:f/1", "s:a/0", "t:*0", "t:f(*0)", "t:a"}
        assert extract_features(_formula("![X]: p(f(X), a)")) == expected

    def test_alpha_variants_have_identical_features(self):
        f1 = _formula("![X]: ?[Y]: q(g(X, Y))")
        f2 = _formula("![U]: ?[V]: q(g(U, V))")
        assert extract_features(f1) == extract_features(f2)

    def test_equality_contributes_symbol_key(self):
        assert "s:=/2" in extract_features(_formula("a = b"))

    def test_arity_distinguishes_symbols(self):
        keys = extract_features(_formula("p(a) & p(a, b)"))
        assert "s:p/1" in keys and "s:p/2" in keys

    def test_long_chains_and_binder_lists(self):
        # far deeper than the interpreter stack
        for op in ("&", "|"):
            chain = _formula(f" {op} ".join(f"p{i}" for i in range(5000)))
            assert extract_features(chain) == {f"s:p{i}/0" for i in range(5000)}
        binders = ", ".join(f"X{i}" for i in range(5000))
        assert extract_features(_formula(f"![{binders}]: q(X0)")) == {"s:q/1", "t:*4999"}

    def test_matches_bruteforce_walker_on_random_formulas(self):
        rng = random.Random(7)
        for _ in range(200):
            f = rand_formula(rng, 0, rng.randint(1, 5))
            assert extract_features(f) == oracle_feature_keys(f)

    def test_subformula_keys_are_contained(self):
        rng = random.Random(8)
        for _ in range(100):
            g = rand_formula(rng, 0, 3)
            assert extract_features(g) <= extract_features(Not(g))
            other = rand_formula(rng, 0, 3)
            assert extract_features(g) <= extract_features(And(g, other))

    def test_extraction_is_pure(self):
        f = _formula("![X]: p(f(X), a)")
        assert extract_features(f) == extract_features(f)


class TestFeatureDictionary:
    def test_append_only_indices(self):
        d = {}
        vectorize(_formula("p(a)"), d)
        # a new key's index is the dictionary size; keys go in sorted order
        assert list(d.items()) == [("s:a/0", 0), ("s:p/1", 1), ("t:a", 2)]
        vectorize(_formula("q(a)"), d)  # re-adding never moves a key
        assert list(d.items()) == [("s:a/0", 0), ("s:p/1", 1), ("t:a", 2), ("s:q/1", 3)]


class TestVectorize:
    def test_known_keys_give_exactly_those_indices(self):
        d = {}
        v1 = vectorize(_formula("p(a)"), d)
        size = len(d)
        v2 = vectorize(_formula("p(a)"), d)
        assert v1 == v2
        assert len(d) == size  # dictionary unchanged
        assert len(v1) == 3

    def test_dictionary_stability_under_extension(self):
        d = {}
        early = vectorize(_formula("p(a)"), d)
        for text in ["q(b)", "r(c, d)", "![X]: p(f(X), a)"]:
            vectorize(_formula(text), d)
        size = len(d)
        again = vectorize(_formula("p(a)"), d)
        assert early == again
        assert len(d) == size


class TestDot:
    def test_self_dot_is_size(self):
        v = FeatureVector([4, 1, 9])
        assert v.dot(v) == 3 == len(v)

    def test_disjoint_vectors(self):
        assert FeatureVector([0, 2]).dot(FeatureVector([1, 3])) == 0

    def test_direct_count(self):
        assert FeatureVector([1, 3, 5]).dot(FeatureVector([3, 5, 7])) == 2

    def test_symmetry_and_cauchy_schwarz(self):
        rng = random.Random(5)
        for _ in range(200):
            a = FeatureVector(rng.sample(range(30), rng.randint(0, 10)))
            b = FeatureVector(rng.sample(range(30), rng.randint(0, 10)))
            assert a.dot(b) == b.dot(a)
            assert a.dot(b) ** 2 <= a.dot(a) * b.dot(b)

    def test_indices_sorted_and_distinct(self):
        v = FeatureVector([5, 1, 5, 3])
        assert v.indices == (1, 3, 5)
        with pytest.raises(ValueError):
            FeatureVector([-1])
