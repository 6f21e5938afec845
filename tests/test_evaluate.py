"""Recall metric, incremental protocol, problem emission, and CSVs."""

import math
from fractions import Fraction

import pytest

from premsel.corpus import load_corpus
from premsel.errors import ConfigError, TrainingError
from premsel.evaluate import (
    KernelRidgeRanker,
    NaiveBayesRanker,
    RankedAdvice,
    emit_problems,
    rank_advice,
    recall_at,
    report_csv,
    run_incremental,
)
from premsel.fol import parse_file
from premsel.kernel import GridSearchConfig

from helpers import nb_oracle_score, oracle_feature_keys, planted_corpus_text, write_corpus

THREE = """\
fof(item1, axiom, p(a)).
fof(item2, axiom, q(b)).
fof(item3, theorem, p(a) & q(b)).
"""


class TestRecallAt:
    def test_half(self):
        advice = RankedAdvice("c", ("a", "c", "b"), (3.0, 2.0, 1.0))
        assert recall_at({"a", "b"}, advice, 2) == 0.5

    def test_full_pool_advised_means_one(self):
        advice = RankedAdvice("c", ("a", "b", "x"), (3.0, 2.0, 1.0))
        assert recall_at({"a", "b"}, advice, 50) == 1.0

    def test_top_hit(self):
        advice = RankedAdvice("c", ("a", "b"), (1.0, 0.0))
        assert recall_at({"a"}, advice, 1) == 1.0

    def test_empty_used_is_a_skip_signal(self):
        advice = RankedAdvice("c", ("a",), (0.0,))
        with pytest.raises(ValueError):
            recall_at(set(), advice, 1)

    def test_monotone_in_n(self):
        import random

        rng = random.Random(4)
        for _ in range(200):
            pool = [f"p{i}" for i in range(rng.randint(1, 12))]
            rng.shuffle(pool)
            advice = RankedAdvice("c", tuple(pool), tuple(float(-i) for i in range(len(pool))))
            used = set(rng.sample(pool, rng.randint(1, len(pool))))
            values = [recall_at(used, advice, n) for n in range(1, len(pool) + 2)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0


class TestRankAdvice:
    def test_orders_by_score_then_position(self):
        advice = rank_advice("c", ("a", "b", "d"), [1.0, 5.0, 5.0])
        assert advice.premise_ids == ("b", "d", "a")  # tie: earlier premise first
        assert advice.scores == (5.0, 5.0, 1.0)

    def test_permutation_of_pool(self):
        advice = rank_advice("c", ("a", "b", "d"), [0.0, 0.0, 0.0])
        assert sorted(advice.premise_ids) == ["a", "b", "d"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_is_a_training_error(self, bad):
        with pytest.raises(TrainingError, match="non-finite"):
            rank_advice("c", ["a", "b", "c", "d"], [1, bad, 3, 2])


class TestAdviseFallback:
    def test_advice_is_never_none(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE + "fof(item4, theorem, p(a)).\n",
                            "item3: item1\nitem4: item1\n")
        corpus = load_corpus([f], d)
        empty_pool = corpus.training_view(0)
        one_row = corpus.training_view(3)
        assert empty_pool.premise_ids == () and len(one_row.rows) == 1
        mor = KernelRidgeRanker(grid=GridSearchConfig(lambda_grid=(1.0,), sigma_grid=(1.0,)))
        for ranker in (NaiveBayesRanker(), mor):
            advice = ranker.advise(empty_pool)
            assert advice == RankedAdvice("item1", (), (), fallback=True)
        # naive Bayes trains on any non-empty pool; ridge needs two rows
        assert not NaiveBayesRanker().advise(one_row).fallback
        assert mor.advise(one_row) == RankedAdvice(
            "item4", ("item1", "item2", "item3"), (0.0, 0.0, 0.0), fallback=True)


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
        report = run_incremental(corpus, NaiveBayesRanker(), n_values=n_values,
                                 keep_advice=True)

        # Independent route: oracle features, oracle scores, oracle
        # ranking, exact-fraction recall, then compare the averages.
        items = parse_file(f)
        keys = [oracle_feature_keys(it.formula) for it in items]
        deps_by_name = {e.name: set(e.dependencies) for e in corpus.entries}
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
        report = run_incremental(load_corpus([f], d), ranker, n_values=[5],
                                 keep_advice=True)

        # Independent route: explicit loop kernels, a plain matrix
        # inverse instead of the factorization, and fraction recall.
        corpus = load_corpus([f], d)
        corpus.ensure_featurized()

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
            Y = np.zeros((n, len(view.premise_ids)))
            for r, row in enumerate(view.rows):
                for p in row.used:
                    Y[r, p] = 1.0
            A = np.linalg.inv(K + lam * np.eye(n)) @ Y
            kvec = np.array([gauss(view.conjecture_features, r.features)
                             for r in view.rows])
            scores = A.T @ kvec
            order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
            ranked = [view.premise_ids[j] for j in order]
            used = corpus.entries[outcome.position].dependencies
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
        ranker = KernelRidgeRanker(grid=GridSearchConfig(lambda_grid=(1.0,), sigma_grid=(1.0,)))
        report = run_incremental(corpus, ranker, n_values=[1, 2], keep_advice=True)
        by_id = {o.conjecture_id: o for o in report.outcomes}
        # item3 has no earlier theorem rows: chronological fallback.
        assert by_id["item3"].fallback
        assert by_id["item3"].advice.premise_ids == ("item1", "item2")
        assert by_id["item3"].recalls[1] == 1.0

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

    def test_non_finite_scores_are_recorded_as_step_errors(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE + "fof(item4, theorem, p(a)).\n",
                            "item3: item1\nitem4: item1\n")

        class NanRanker(NaiveBayesRanker):
            def advise(self, view):
                return rank_advice(view.conjecture_id, view.premise_ids,
                                   [math.nan] * len(view.premise_ids))

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
        report = run_incremental(corpus, NaiveBayesRanker(), n_values=[3], keep_advice=True)
        for outcome in report.outcomes:
            assert outcome.advice is not None
            for pid in outcome.advice.premise_ids:
                assert corpus.position_of(pid) < outcome.position

    def test_conjecture_filters(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "item3: item1\n")
        corpus = load_corpus([f], d)
        by_ids = run_incremental(corpus, NaiveBayesRanker(), n_values=[1],
                                 conjecture_ids=["item2"])
        assert [o.conjecture_id for o in by_ids.outcomes] == ["item2"]
        by_role = run_incremental(corpus, NaiveBayesRanker(), n_values=[1],
                                  conjecture_roles=("axiom",))
        assert [o.conjecture_id for o in by_role.outcomes] == ["item1", "item2"]

    def test_jobs_do_not_change_results(self, tmp_path):
        formulas, deps = planted_corpus_text(n_items=15, n_topics=2, feats_per_topic=4, bases_per_topic=0, seed=6)
        f, d = write_corpus(tmp_path, formulas, deps)
        n_values = (1, 3, 5)
        rankers = (
            NaiveBayesRanker,
            lambda: KernelRidgeRanker(
                grid=GridSearchConfig(lambda_grid=(1.0,), sigma_grid=(2.0,)), regrid="once"),
        )
        for make in rankers:
            serial = run_incremental(load_corpus([f], d), make(), n_values=n_values,
                                     keep_advice=True)
            threaded = run_incremental(load_corpus([f], d), make(), n_values=n_values,
                                       jobs=4, keep_advice=True)
            assert serial.averages == threaded.averages
            assert serial.outcomes == threaded.outcomes

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
        for entry in corpus.entries:
            assert emitted[entry.name] == len(entry.dependencies)

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

    def test_unknown_mode_rejected(self, tmp_path):
        f, d = write_corpus(tmp_path, THREE, "")
        with pytest.raises(ConfigError):
            emit_problems(load_corpus([f], d), "fluffy", tmp_path / "x")
