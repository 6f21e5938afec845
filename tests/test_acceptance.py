"""Acceptance gates for the whole package.

Each test prints one PASS/FAIL line so a plain ``pytest -s`` run shows
the acceptance status criterion by criterion.  Expected values come
from independent oracles (finite differences, eigendecompositions,
count-table probabilities, exhaustive enumeration), never from the code
paths under test.
"""

import contextlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from premsel import kernel
from premsel.cli import BLAS_THREAD_VARS
from premsel.corpus import TrainingRow, TrainingView, load_corpus
from premsel.evaluate import (
    KernelRidgeRanker,
    NaiveBayesRanker,
    RankedAdvice,
    emit_problems,
    recall_at,
    run_incremental,
)
from premsel.features import FeatureVector
from premsel.fol import parse_file, parse_item, print_item
from premsel.kernel import (
    GridSearchConfig,
    KernelSpec,
    build_kernel_matrix,
    cross_kernel,
    ridge_solve,
)
from premsel.minimize import batch_minimize, greedy_minimize
from premsel.naive_bayes import NbCounts, nb_score, nb_train

from helpers import (
    planted_corpus_text,
    rand_item,
    random_vectors,
    ridge_fd_gradient,
    ridge_objective,
    view_from_indices,
    walk_advice,
    write_corpus,
)

SEED = 20260808


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    print(f"[criterion {number}] PASS - {title}")


# ---------------------------------------------------------------------------
# 1. Closed-form ridge solution against the optimization oracle
# ---------------------------------------------------------------------------


def test_criterion_1_ridge_closed_form_matches_optimization_oracle():
    with criterion(1, "closed form solves the regularized objective"):
        rng = np.random.default_rng(SEED)
        started = time.perf_counter()
        for instance in range(25):
            n = int(rng.integers(2, 13))
            premises = int(rng.integers(1, 9))
            lam = [0.01, 0.1, 1.0][instance % 3]
            if instance % 2:
                spec = KernelSpec("gaussian", float(rng.uniform(0.5, 2.0)))
            else:
                spec = KernelSpec("linear")
            vectors = random_vectors(rng, n, width=15, max_size=6)
            K = build_kernel_matrix(spec, vectors)
            Y = (rng.uniform(size=(n, premises)) < 0.3).astype(float)
            A = ridge_solve(K, Y, lam)

            gradient = ridge_fd_gradient(K, Y, lam, A)
            assert np.abs(gradient).max() <= 1e-6

            base = ridge_objective(K, Y, lam, A)
            slack = 1e-12 * max(1.0, abs(base))  # float measurement noise only
            for _ in range(100):
                probe = A.copy()
                i = int(rng.integers(A.shape[0]))
                j = int(rng.integers(A.shape[1]))
                probe[i, j] += float(rng.choice([-1e-4, 1e-4]))
                assert ridge_objective(K, Y, lam, probe) >= base - slack

            # The walk's dual scores Y^T (K + lam*I)^-1 k equal A^T k, with A
            # the solution just checked, up to rounding.  The conjecture
            # comes from its own generator, so the instances stay as they were.
            conjecture = random_vectors(np.random.default_rng([SEED, instance]), 1,
                                        width=15, max_size=6)[0]
            rows = tuple(TrainingRow(r, v, frozenset(np.flatnonzero(Y[r]).tolist()))
                         for r, v in enumerate(vectors))
            factor = kernel.RidgeFactor()
            factor.sync(rows, spec, lam)
            expected = A.T @ cross_kernel(spec, [conjecture], vectors)[0]
            scores = factor.score(premises, conjecture)
            assert np.abs(scores - expected).max() <= 1e-12 * max(1.0, np.abs(A).max())
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Normal-equation residual bound on training runs
# ---------------------------------------------------------------------------


def test_criterion_2_normal_equation_residual_bound(monkeypatch, tmp_path):
    # ridge_solve and the grid search recheck this bound internally on
    # every run in the suite and raise on violation; here the residual is
    # recomputed independently for a battery of fresh solves.
    with criterion(2, "solve residual below 1e-8 on every training run"):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            spec = KernelSpec("gaussian", float(rng.uniform(0.4, 3.0)))
            K = build_kernel_matrix(spec, random_vectors(rng, n, width=30, max_size=8))
            Y = (rng.uniform(size=(n, int(rng.integers(1, 6)))) < 0.3).astype(float)
            lam = float(rng.choice([2.0**-7, 2.0**-3, 1.0, 2.0**7]))
            A = ridge_solve(K, Y, lam)
            residual = (K + lam * np.eye(n)) @ A - Y
            assert np.abs(residual).max() <= 1e-8

        # The grid search solves (K_tt + lam*I) B = K_tv for every lambda
        # of a sigma at once; its solves are recomputed here block by block.
        solves = []

        def recording(K_tt, K_tv, lams):
            B = ridge_columns(K_tt, K_tv, lams)
            solves.append((K_tt, K_tv, lams, B))
            return B

        def check_grid_solves():
            for K_tt, K_tv, lams, B in solves:
                assert B.shape == (len(K_tt), len(lams), K_tv.shape[1])
                for b, lam in enumerate(lams):
                    residual = (K_tt + lam * np.eye(len(K_tt))) @ B[:, b, :] - K_tv
                    assert np.abs(residual).max() <= 1e-8

        ridge_columns = kernel._ridge_columns
        monkeypatch.setattr(kernel, "_ridge_columns", recording)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            view = view_from_indices(
                [(list(v.indices), {int(p) for p in np.flatnonzero(rng.uniform(size=5) < 0.3)})
                 for v in random_vectors(rng, n, width=30, max_size=8)],
                5,
            )
            kind = ("gaussian", "linear")[trial % 2]
            kernel.grid_search(view, kind, GridSearchConfig())
        assert len(solves) == 10 * len(GridSearchConfig().sigma_grid) + 10
        check_grid_solves()

        # A walk scores each trainable step with one RidgeFactor solve of
        # (K + lam*I) alpha = k; K and k are rebuilt here from the rows the
        # factor held and the features of the conjecture the step ranked.
        # The walk's grid search checks its batch through the same
        # _checked_solve; that batch is rechecked through the recorder above.
        factor_solves = []

        def recording_solve(solve, apply, rhs):
            alpha = checked_solve(solve, apply, rhs)
            if rhs.ndim == 3:  # the grid search's (n_t, 1, n_v) right-hand side
                return alpha
            factor = solve.__self__
            assert isinstance(factor, kernel.RidgeFactor)
            factor_solves.append((factor.rows, factor.spec, factor.lam, alpha))
            return alpha

        checked_solve = kernel._checked_solve
        monkeypatch.setattr(kernel, "_checked_solve", recording_solve)
        f, d = write_corpus(tmp_path, *planted_corpus_text(n_items=150, noise=0.1, seed=SEED))
        corpus = load_corpus([f], d)
        for kind in ("gaussian", "linear"):
            factor_solves.clear()
            solves.clear()
            report = run_incremental(corpus, KernelRidgeRanker(kind), n_values=[10])
            assert report.error_count == 0
            assert solves
            check_grid_solves()
            steps = [o for o in report.outcomes if not o.fallback]
            assert len(factor_solves) == len(steps) > 100
            for outcome, (rows, spec, lam, alpha) in zip(steps, factor_solves):
                view = corpus.training_view(outcome.position)
                assert rows == view.rows
                vectors = [row.features for row in rows]
                K = build_kernel_matrix(spec, vectors)
                k = cross_kernel(spec, [view.conjecture_features], vectors)[0]
                residual = (K + lam * np.eye(len(rows))) @ alpha - k
                assert np.abs(residual).max() <= 1e-8


# ---------------------------------------------------------------------------
# 3. Naive Bayes against the count-table oracle, exhaustively
# ---------------------------------------------------------------------------

_MASKS = range(16)  # subsets of 4 features
_VECTORS = [FeatureVector([i for i in range(4) if mask >> i & 1]) for mask in _MASKS]
_ROW_CONFIGS = [(mask, used) for mask in _MASKS for used in (False, True)]
_ROWS = [
    TrainingRow(0, _VECTORS[mask], frozenset({0}) if used else frozenset())
    for mask, used in _ROW_CONFIGS
]


def _oracle_tables(combo):
    """Count tables of a row multiset: rows, rows using the premise, and
    per feature the rows holding it that do and do not use the premise."""
    uses, cp, cn = 0, [0] * 4, [0] * 4
    for c in combo:
        mask, used = _ROW_CONFIGS[c]
        uses += used
        table = cp if used else cn
        for feature in range(4):
            if mask >> feature & 1:
                table[feature] += 1
    return len(combo), uses, cp, cn


def _oracle_table_score(tables, conjecture_indices):
    """Direct route: smoothed count tables -> probability products -> one log."""
    n, uses, cp, cn = tables
    numerator = (uses + 1) / (n + 2)
    denominator = (n - uses + 1) / (n + 2)
    for feature in conjecture_indices:
        numerator *= (cp[feature] + 1) / (uses + 2)
        denominator *= (cn[feature] + 1) / (n - uses + 2)
    return math.log(numerator / denominator)


def _multisets(prefix=(), size=5):
    """Every multiset of at most ``size`` row indices, as a sorted tuple,
    each right after its longest proper prefix."""
    yield prefix
    if len(prefix) < size:
        for c in range(prefix[-1] if prefix else 0, len(_ROWS)):
            yield from _multisets(prefix + (c,), size)


def _packed_views(size=5):
    """Every multiset of at most ``size`` feature masks as one view, with
    one premise per pattern of used rows, and per view the row multiset
    (a sorted tuple of ``_ROWS`` indices) that each premise sees.  Among
    rows of one mask the used ones come last, so each row multiset is
    one pattern of one view."""
    for r in range(size + 1):
        for masks in itertools.combinations_with_replacement(_MASKS, r):
            runs = [len(list(run)) for _, run in itertools.groupby(masks)]
            combos = []
            for uses in itertools.product(*(range(k + 1) for k in runs)):
                used = [i >= k - u for k, u in zip(runs, uses) for i in range(k)]
                combos.append(tuple(2 * mask + u for mask, u in zip(masks, used)))
            rows = tuple(
                TrainingRow(0, _VECTORS[mask],
                            frozenset(j for j, combo in enumerate(combos) if combo[i] % 2))
                for i, mask in enumerate(masks)
            )
            yield combos, TrainingView(len(combos), rows, "c", FeatureVector([]))


def test_criterion_3_naive_bayes_matches_count_table_oracle_exhaustively():
    # Scores decompose per premise, and both routes are invariant to row
    # order (sums over rows; checked separately in the unit tests), so
    # enumerating all row multisets for a single premise covers every
    # corpus with <= 4 features and <= 5 rows.  The reference scores the
    # row multisets that share their feature masks as one view, one
    # premise each, and every premise is compared with the oracle of its
    # own multiset.  All 2^4 conjecture feature sets are checked per
    # multiset.  The running counts that eval scores with are checked on
    # every view of <= 3 rows, carried from one view to the next: a view
    # that extends the one before appends, any other restarts.
    with criterion(3, "naive Bayes equals the smoothed count-table oracle"):
        checked = 0
        covered = set()
        reference = {}  # row multiset of <= 3 rows -> its score per conjecture
        for combos, view in _packed_views():
            model = nb_train(view)
            scores = [nb_score(model, conjecture).tolist() for conjecture in _VECTORS]
            for j, combo in enumerate(combos):
                tables = _oracle_tables(combo)
                for conjecture, got in zip(_VECTORS, scores):
                    want = _oracle_table_score(tables, conjecture.indices)
                    assert abs(got[j] - want) <= 1e-12, (combo, conjecture.indices)
                    checked += 1
                covered.add(combo)
                if len(combo) <= 3:
                    reference[combo] = [got[j] for got in scores]
        multisets = sum(math.comb(31 + r, r) for r in range(6))
        assert checked == 16 * multisets
        # the patterns are the row multisets, each once
        assert len(covered) == multisets and all(combo in covered for combo in _multisets())
        counts = NbCounts()
        appended = restarted = 0
        for combo in _multisets(size=3):
            rows = tuple(_ROWS[c] for c in combo)
            tables = _oracle_tables(combo)
            if rows[: len(counts.rows)] == counts.rows:
                appended += 1
            else:
                restarted += 1
            counts.sync(rows)
            for conjecture, got in zip(_VECTORS, reference[combo]):
                want = _oracle_table_score(tables, conjecture.indices)
                fast = counts.score(1, conjecture)[0]
                assert float(fast).hex() == float(got).hex(), (combo, conjecture.indices)
                assert abs(fast - want) <= 1e-12, (combo, conjecture.indices)
        assert appended + restarted == sum(math.comb(31 + r, r) for r in range(4))
        assert appended and restarted


# ---------------------------------------------------------------------------
# 4. Gaussian kernel matrix properties
# ---------------------------------------------------------------------------


def test_criterion_4_gaussian_kernel_matrix_properties():
    with criterion(4, "kernel matrices symmetric, unit diagonal, PSD"):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            sigma = float(rng.uniform(0.3, 4.0))
            K = build_kernel_matrix(
                KernelSpec("gaussian", sigma),
                random_vectors(rng, n, width=25, max_size=10),
            )
            assert np.abs(K - K.T).max(initial=0.0) <= 1e-12
            np.testing.assert_array_equal(np.diag(K), np.ones(n))
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)


# ---------------------------------------------------------------------------
# 5. Recall metric: exact rationals and monotonicity
# ---------------------------------------------------------------------------


def _enumerated_recall_cases():
    # Systematic small cases with exact expected fractions, plus the
    # documented 0.5 and boundary cases.
    pool = (0, 1, 2, 3, 4)
    cases = []
    cases.append(((0, 2, 1), {0, 1}, 2, Fraction(1, 2)))
    cases.append(((0, 1), {0}, 1, Fraction(1, 1)))
    cases.append(((1, 0), {0}, 1, Fraction(0, 1)))
    cases.append(((0, 1, 2), {0, 1, 2}, 99, Fraction(1, 1)))
    for size in (1, 2, 3, 4, 5):
        ranked = pool[:size]
        for used_mask in range(1, 2**size):
            used = {ranked[i] for i in range(size) if used_mask >> i & 1}
            for n in (1, 2, size, size + 3):
                hits = sum(1 for premise in ranked[: min(n, size)] if premise in used)
                cases.append((ranked, used, n, Fraction(hits, len(used))))
    return cases[:50] + cases[50::7]  # 50 core cases plus a systematic tail


def test_criterion_5_recall_exact_values_and_monotonicity():
    with criterion(5, "recall@n exact on enumerated cases and monotone"):
        cases = _enumerated_recall_cases()
        assert len(cases) >= 50
        for ranked, used, n, expected in cases:
            advice = RankedAdvice(tuple(ranked), tuple(float(len(ranked) - i) for i in range(len(ranked))))
            assert recall_at(used, advice, n) == float(expected)

        rng = random.Random(SEED)
        for _ in range(1000):
            size = rng.randint(1, 15)
            ranked = list(range(size))
            rng.shuffle(ranked)
            advice = RankedAdvice(tuple(ranked), tuple(float(-i) for i in range(size)))
            used = set(rng.sample(ranked, rng.randint(1, size)))
            values = [recall_at(used, advice, n) for n in range(1, size + 3)]
            assert all(a <= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# 6 & 7. Planted-corpus ranking quality
# ---------------------------------------------------------------------------


def _planted_run(tmp_path, noise, tag):
    formulas, deps = planted_corpus_text(noise=noise, seed=SEED)
    f, d = write_corpus(tmp_path / tag, formulas, deps)
    nb = run_incremental(load_corpus([f], d), NaiveBayesRanker(), n_values=[5, 10])
    ridge = KernelRidgeRanker(
        grid=GridSearchConfig(lambda_grid=(0.3,), sigma_grid=(1.0,))
    )
    mor = run_incremental(load_corpus([f], d), ridge, n_values=[5, 10])
    return nb, mor


def test_criterion_6_planted_corpus_ranking_quality(tmp_path):
    with criterion(6, "planted corpus: NB and MOR recall@10 >= 0.80"):
        (tmp_path / "noisy").mkdir()
        started = time.perf_counter()
        nb, mor = _planted_run(tmp_path, 0.10, "noisy")
        elapsed = time.perf_counter() - started
        random_expectation = sum(
            min(10, o.position) / o.position
            for o in nb.outcomes
            if o.recalls is not None
        ) / nb.evaluated_count
        assert nb.averages[10] >= 0.80, f"NB recall@10 = {nb.averages[10]:.3f}"
        assert mor.averages[10] >= 0.80, f"MOR recall@10 = {mor.averages[10]:.3f}"
        assert nb.averages[10] - random_expectation >= 0.3
        assert mor.averages[10] - random_expectation >= 0.3
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_ridge_at_least_naive_bayes_when_separable(tmp_path):
    with criterion(7, "noise-free planted corpus: MOR recall@5 >= NB recall@5"):
        (tmp_path / "clean").mkdir()
        nb, mor = _planted_run(tmp_path, 0.0, "clean")
        assert mor.averages[5] >= nb.averages[5], (
            f"MOR {mor.averages[5]:.3f} < NB {nb.averages[5]:.3f}"
        )


# ---------------------------------------------------------------------------
# 8. Minimizer: exhaustive monotone oracle family and probe economy
# ---------------------------------------------------------------------------


def _subset_bits(universe_size=3):
    return [frozenset(i for i in range(universe_size) if s >> i & 1) for s in range(8)]


def test_criterion_8_minimizer_exhaustive_and_probe_economy():
    with criterion(8, "minimizer sound and 1-minimal; chunking probes fewer"):
        subsets = _subset_bits()
        names = ("a", "b", "c")
        start = frozenset({0, 1, 2})
        monotone_count = 0
        for family_mask in range(2 ** 8):
            sufficient_sets = {s for i, s in enumerate(subsets) if family_mask >> i & 1}
            if start not in sufficient_sets:
                continue
            if any(
                s in sufficient_sets and t not in sufficient_sets
                for s in subsets
                for t in subsets
                if s <= t
            ):
                continue  # not monotone
            monotone_count += 1

            def sufficient(ids):
                return frozenset(names.index(i) for i in ids) in sufficient_sets

            for runner in (
                lambda o: greedy_minimize(names, o),
                lambda o: greedy_minimize(names, o, order="reverse"),
                lambda o: batch_minimize(names, o, schedule=[2]),
            ):
                result = runner(sufficient)
                kept = result.kept_set
                assert sufficient(tuple(kept))
                for element in kept:
                    assert not sufficient(tuple(kept - {element}))
        assert monotone_count == 19  # all up-closed families containing the start

        universe = [f"x{i:02d}" for i in range(64)]
        plain = greedy_minimize(universe, lambda ids: "x17" in ids)
        chunked = batch_minimize(universe, lambda ids: "x17" in ids)
        assert plain.kept == chunked.kept == ("x17",)
        assert chunked.call_count < plain.call_count


# ---------------------------------------------------------------------------
# 9. Round-trip and protocol invariants
# ---------------------------------------------------------------------------


def test_criterion_9a_roundtrip_fuzz():
    with criterion(9, "parse/print identity on 1000 fuzzed items"):
        rng = random.Random(SEED)
        for index in range(1000):
            item = rand_item(rng, index)
            assert parse_item(print_item(item)) == item


def test_criterion_9b_no_leakage_over_full_run(tmp_path):
    with criterion(9, "no advice ever references a later position"):
        formulas, deps = planted_corpus_text(noise=0.10, seed=SEED)
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        report = run_incremental(corpus, NaiveBayesRanker(), n_values=[10])
        assert report.outcomes
        assert report.error_count == 0
        # the run's walk: one ranker over its positions, in order
        positions = [o.position for o in report.outcomes]
        for position, advice in zip(positions, walk_advice(corpus, NaiveBayesRanker(), positions)):
            assert len(advice.premises) == position
            for premise in advice.premises:
                assert premise < position


def test_criterion_9c_bushy_subset_of_chainy(tmp_path):
    with criterion(9, "bushy axiom sets contained in chainy axiom sets"):
        formulas, deps = planted_corpus_text(
            n_items=40, n_topics=3, noise=0.0, seed=SEED
        )
        f, d = write_corpus(tmp_path, formulas, deps)
        corpus = load_corpus([f], d)
        bushy = {p.name: {i.name for i in parse_file(p)[:-1]}
                 for p in emit_problems(corpus, "bushy", tmp_path / "bushy")}
        chainy = {p.name: {i.name for i in parse_file(p)[:-1]}
                  for p in emit_problems(corpus, "chainy", tmp_path / "chainy")}
        assert bushy.keys() == chainy.keys() and bushy
        for name in bushy:
            assert bushy[name] <= chainy[name]


def test_criterion_9d_byte_identical_csvs_across_runs_and_jobs(tmp_path):
    with criterion(9, "byte-identical CSVs across reruns, job and BLAS thread counts"):
        formulas, deps = planted_corpus_text(n_items=60, n_topics=4, noise=0.10, seed=SEED)
        f, d = write_corpus(tmp_path, formulas, deps)
        unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}

        def run_eval(out, *flags, env=unset):
            result = subprocess.run(
                [sys.executable, "-m", "premsel", "eval",
                 "--formulas", str(f), "--deps", str(d), "--n-set", "1,5,10",
                 *flags, "--out-dir", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            return {name: path.read_bytes() if path.exists() else None
                    for name in ("conjectures", "average", "segments", "grid_loss")
                    for path in [out / f"{name}.csv"]}

        first = run_eval(tmp_path / "run1", "--ranker", "nb", "--jobs", "1")
        second = run_eval(tmp_path / "run2", "--ranker", "nb", "--jobs", "1")
        four_jobs = run_eval(tmp_path / "run4", "--ranker", "nb", "--jobs", "4")
        assert first == second
        assert first == four_jobs

        # mor's solves run on one OpenBLAS thread unless a thread variable
        # is set; two threads must give the same bytes
        two = {**unset, "OPENBLAS_NUM_THREADS": "2"}
        for regrid in ("once", "always"):
            flags = ("--ranker", "mor", "--regrid", regrid)
            one_thread = run_eval(tmp_path / f"{regrid}-1", *flags)
            two_threads = run_eval(tmp_path / f"{regrid}-2", *flags, env=two)
            assert one_thread == two_threads
            assert (one_thread["grid_loss"] is None) == (regrid == "always")
