"""End-to-end command-line behavior, including the golden-file check."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from premsel import cli
from premsel.corpus import load_corpus
from premsel.errors import TrainingError
from premsel.evaluate import KernelRidgeRanker, NaiveBayesRanker, select_conjectures
from premsel.fol import parse_file, print_item

from helpers import planted_corpus_text, walk_advice, write_corpus

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "data" / "toy"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "premsel", *map(str, args)],
        capture_output=True,
        text=True,
    )


def toy_args():
    return ["--formulas", TOY / "formulas.p", "--deps", TOY / "deps.txt"]


def long_chain_corpus(tmp_path, n=5000):
    """Theorems whose ASTs nest ``n`` deep: an ``&`` chain, an ``|`` chain
    and an ``n``-variable binder list."""
    text = (
        "fof(a0, axiom, p0).\n"
        f"fof(t_and, theorem, {' & '.join(f'p{i}' for i in range(n))}).\n"
        f"fof(t_or, theorem, {' | '.join(f'p{i}' for i in range(n))}).\n"
        f"fof(t_all, theorem, ![{', '.join(f'X{i}' for i in range(n))}]: q(X0)).\n"
    )
    return write_corpus(tmp_path, text, "t_and: a0\nt_or: a0\nt_all: a0\n")


SELECTION_ERRORS = [
    (["--conjectures", ","], "--conjectures names no item"),
    (["--conjecture-roles", ","], "got none"),
    (["--conjecture-roles", "theorm"], "got theorm"),
    (["--conjectures", "th_plus_succ", "--conjecture-roles", "theorem,lemma"], "got theorem, lemma"),
    (["--conjectures", "th_plus_succ,nope"], "configuration error: unknown conjecture id 'nope'"),
]


class TestRank:
    def test_top_two_in_score_order(self):
        result = run_cli("rank", *toy_args(), "--conjecture", "th_plus_succ",
                         "--ranker", "nb", "-n", "2")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        ids = [line.split("\t")[0] for line in lines]
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores[0] >= scores[1]
        assert set(ids) <= {f"{e}" for e in
                            ("ax_zero", "ax_succ", "def_one", "th_one_num",
                             "th_succ_one", "ax_plus", "th_plus_one")}

    def test_identical_invocations_identical_output(self):
        args = ["rank", *toy_args(), "--conjecture", "th_plus_one", "-n", "5"]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_n_beyond_pool_returns_whole_pool_with_warning(self):
        result = run_cli("rank", *toy_args(), "--conjecture", "th_one_num", "-n", "99")
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 3  # pool before position 3
        assert "exceeds pool size" in result.stderr

    def test_unknown_conjecture_is_a_config_error(self):
        result = run_cli("rank", *toy_args(), "--conjecture", "nope")
        assert result.returncode == 2

    def test_rank_writes_advice_and_metadata(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("rank", *toy_args(), "--conjecture", "th_plus_succ",
                         "-n", "3", "--out-dir", out)
        assert result.returncode == 0
        advice = (out / "advice.csv").read_text().splitlines()
        assert advice[0] == "rank,premise_id,score"
        assert len(advice) == 4
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["command"] == "rank"
        assert metadata["options"]["seed"] == 0

    def test_advice_csv_quotes_ids(self, tmp_path):
        f, d = write_corpus(tmp_path, "fof('x,y', axiom, p(a)).\nfof(b1, axiom, q(b)).\n"
                            "fof(t0, theorem, p(a)).\nfof(t1, theorem, p(a) & q(b)).\n",
                            "t0: x,y\n")
        out = tmp_path / "out"
        result = run_cli("rank", "-f", f, "--deps", d, "--conjecture", "t1", "-n", "3",
                         "--out-dir", out)
        assert result.returncode == 0, result.stderr
        with open(out / "advice.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        printed = [line.split("\t") for line in result.stdout.splitlines()]
        assert rows == [["rank", "premise_id", "score"]] + [
            [str(i), pid, score] for i, (pid, score) in enumerate(printed)]
        assert "x,y" in [pid for pid, _ in printed]

    def test_mor_regrid_once_agrees_with_eval(self, tmp_path):
        f, d = write_corpus(tmp_path, *planted_corpus_text(
            n_items=60, n_topics=4, feats_per_topic=6, seed=3))
        corpus = load_corpus([f], d)
        # the walk eval takes: one ranker over every selected position in order
        advice = walk_advice(corpus, KernelRidgeRanker(), select_conjectures(corpus))[-1]
        result = run_cli("rank", "-f", f, "--deps", d, "--ranker", "mor", "-n", "5",
                         "--conjecture", advice.conjecture_id)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            f"{pid}\t{score!r}" for pid, score in zip(advice.premise_ids[:5], advice.scores[:5])]


class TestEval:
    def test_toy_nb_run_matches_golden_files(self, tmp_path):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), "--ranker", "nb",
                         "--n-set", "1,2,3,5", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        for name in ("conjectures", "average", "segments"):
            produced = (out / f"{name}.csv").read_bytes()
            expected = (GOLDEN / f"{name}.csv").read_bytes()
            assert produced == expected, f"{name}.csv deviates from golden"

    def test_single_point_grid_ridge_run(self, tmp_path):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), "--ranker", "mor",
                         "--lambda-grid", "1", "--sigma-grid", "1",
                         "--n-set", "1,2", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        lines = (out / "conjectures.csv").read_text().splitlines()
        assert len(lines) == 5
        assert (out / "grid_loss.csv").read_text().splitlines()[0] == \
            "lambda,sigma,validation_loss"

    @pytest.mark.parametrize("flags", [["--ranker", "nb"],
                                       ["--ranker", "mor", "--regrid", "always"]],
                             ids=["nb", "always"])
    def test_a_run_without_a_search_leaves_no_loss_table(self, tmp_path, flags):
        out = tmp_path / "report"
        first = run_cli("eval", *toy_args(), "--ranker", "mor", "--n-set", "1", "--out-dir", out)
        assert first.returncode == 0, first.stderr
        assert (out / "grid_loss.csv").exists()
        again = run_cli("eval", *toy_args(), *flags, "--n-set", "1", "--out-dir", out)
        assert again.returncode == 0, again.stderr
        assert not (out / "grid_loss.csv").exists()

    def test_invalid_split_fails_before_any_computation(self, tmp_path):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), "--ranker", "mor", "--split", "1.5",
                         "--out-dir", out)
        assert result.returncode == 2
        assert "split" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--ranker", "mor", "--lambda-grid", "inf"],
        ["--ranker", "mor", "--sigma-grid", "inf"],
        ["--smoothing", "inf"],
        ["--smoothing", "nan"],
        ["--ranker", "mor", "--seed", "-1"],
        ["--ranker", "nb", "--seed", "-1"],
        ["--ranker", "mor", "--sigma-grid", "1e200"],  # sigma^2 overflows
        ["--ranker", "mor", "--sigma-grid", "1e-170"],  # sigma^2 underflows to 0
    ])
    def test_non_finite_hyperparameter_is_a_config_error(self, tmp_path, flags):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), *flags, "--out-dir", out)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("python_flags", [[], ["-W", "error"]], ids=["default", "W-error"])
    def test_a_sigma_whose_square_is_subnormal_runs_without_a_warning(self, tmp_path,
                                                                     python_flags):
        # 1e-160 squares to about 1e-320: the gaussian kernel of distinct
        # vectors is 0, the limit, and no numpy overflow warning is printed
        result = subprocess.run(
            [sys.executable, *python_flags, "-m", "premsel", "eval", *map(str, toy_args()),
             "--ranker", "mor", "--sigma-grid", "1e-160", "--out-dir", str(tmp_path / "report")],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    @pytest.mark.parametrize("flags, message", [
        (["--lambda-grid", "1,1.0", "--sigma-grid", "2,2"], "lambda grid repeats the value 1.0"),
        (["--lambda-grid", "1,2", "--sigma-grid", "2,3,2.0"], "sigma grid repeats the value 2.0"),
    ])
    def test_a_repeated_grid_value_is_a_config_error(self, tmp_path, flags, message):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), "--ranker", "mor", *flags, "--out-dir", out)
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert not out.exists()

    def test_jobs_below_one_is_a_config_error(self, tmp_path):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), "--jobs", "0", "--out-dir", out)
        assert result.returncode == 2, result.stderr
        assert "--jobs must be >= 1" in result.stderr
        assert not out.exists()

    def test_repeated_conjecture_ids_count_once(self, tmp_path):
        once, twice = tmp_path / "once", tmp_path / "twice"
        first = run_cli("eval", *toy_args(), "--conjectures", "th_plus_succ",
                        "--n-set", "1,2", "--out-dir", once)
        second = run_cli("eval", *toy_args(), "--conjectures", "th_plus_succ,th_plus_succ",
                         "--n-set", "1,2", "--out-dir", twice)
        assert first.returncode == second.returncode == 0
        assert second.stdout.startswith("evaluated 1 conjectures")
        for name in ("conjectures", "average", "segments"):
            assert (twice / f"{name}.csv").read_bytes() == (once / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("flags, message", SELECTION_ERRORS)
    def test_empty_or_unknown_selection_is_a_config_error(self, tmp_path, flags, message):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), *flags, "--out-dir", out)
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        if "roles" in flags[-2]:
            assert "one or more of axiom, definition, theorem, conjecture" in result.stderr
        assert not out.exists()

    def test_long_chains_and_binder_lists_evaluate(self, tmp_path):
        f, d = long_chain_corpus(tmp_path)
        result = run_cli("eval", "-f", f, "--deps", d, "--n-set", "1", "--out-dir", tmp_path / "out")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("evaluated 3 conjectures (0 with no dependencies, 0 errors)")

    def test_missing_input_file_is_a_config_error(self, tmp_path):
        result = run_cli("eval", "--formulas", tmp_path / "absent.p",
                         "--deps", TOY / "deps.txt", "--out-dir", tmp_path / "x")
        assert result.returncode == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.p"
        bad.write_text("fof(broken, axiom, p(a).\n", encoding="utf-8")
        result = run_cli("eval", "--formulas", bad, "--deps", TOY / "deps.txt",
                         "--out-dir", tmp_path / "x")
        assert result.returncode == 3

    @pytest.mark.parametrize("bad", ["formulas", "deps"])
    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, bad):
        paths = {"formulas": TOY / "formulas.p", "deps": TOY / "deps.txt"}
        broken = tmp_path / "broken"
        broken.write_bytes(paths[bad].read_bytes() + b"\xff\n")
        paths[bad] = broken
        out = tmp_path / "report"
        result = run_cli("eval", "--formulas", paths["formulas"], "--deps", paths["deps"],
                         "--out-dir", out)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        assert f"parse error: {broken}: 'utf-8' codec can't decode byte 0xff" in result.stderr
        assert not out.exists()

    def test_metadata_echoes_configuration(self, tmp_path):
        out = tmp_path / "report"
        run_cli("eval", *toy_args(), "--n-set", "1,2", "--seed", "9",
                "--out-dir", out)
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["command"] == "eval"
        assert metadata["options"]["seed"] == 9
        assert metadata["options"]["n_set"] == "1,2"
        assert metadata["version"]


class TestEmit:
    def test_bushy_files(self, tmp_path):
        out = tmp_path / "bushy"
        result = run_cli("emit", *toy_args(), "--mode", "bushy", "--out-dir", out)
        assert result.returncode == 0
        text = (out / "th_one_num.p").read_text(encoding="utf-8")
        assert text == (
            "fof(ax_zero, axiom, num(zero)).\n"
            "fof(ax_succ, axiom, ![V0]: (num(V0) => num(s(V0)))).\n"
            "fof(def_one, axiom, one = s(zero)).\n"
            "fof(th_one_num, conjecture, num(one)).\n"
        )

    def test_chainy_axiom_counts(self, tmp_path):
        out = tmp_path / "chainy"
        run_cli("emit", *toy_args(), "--mode", "chainy", "--out-dir", out)
        counts = {}
        for path in out.glob("*.p"):
            counts[path.stem] = sum(
                1 for line in path.read_text().splitlines() if ", axiom," in line
            )
        assert counts == {"th_one_num": 3, "th_succ_one": 4,
                          "th_plus_one": 6, "th_plus_succ": 7}

    def test_repeated_conjecture_ids_count_once(self, tmp_path):
        out = tmp_path / "bushy"
        result = run_cli("emit", *toy_args(), "--mode", "bushy",
                         "--conjectures", "th_plus_succ,th_plus_succ", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"wrote 1 problem files to {out}\n"
        assert [path.name for path in out.glob("*.p")] == ["th_plus_succ.p"]

    @pytest.mark.parametrize("mode", ["bushy", "advised"])
    @pytest.mark.parametrize("flags, message", SELECTION_ERRORS)
    def test_empty_or_unknown_selection_is_a_config_error(self, tmp_path, mode, flags, message):
        out = tmp_path / "problems"
        result = run_cli("emit", *toy_args(), "--mode", mode, "-n", "2", *flags, "--out-dir", out)
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert not out.exists()

    def test_chainy_long_chains_reprint_identically(self, tmp_path):
        f, d = long_chain_corpus(tmp_path)
        out = tmp_path / "chainy"
        result = run_cli("emit", "-f", f, "--deps", d, "--mode", "chainy", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert sorted(path.name for path in out.glob("*.p")) == ["t_all.p", "t_and.p", "t_or.p"]
        for path in out.glob("*.p"):
            text = path.read_text(encoding="utf-8")
            # texts, not ASTs: dataclass == recurses as deep as the formula
            assert "".join(print_item(item) + "\n" for item in parse_file(path)) == text

    def test_advised_needs_n(self, tmp_path):
        result = run_cli("emit", *toy_args(), "--mode", "advised",
                         "--out-dir", tmp_path / "a")
        assert result.returncode == 2

    def test_advised_rank_and_eval_agree(self, tmp_path):
        out = tmp_path / "advised"
        result = run_cli("emit", *toy_args(), "--mode", "advised", "-n", "2",
                         "--out-dir", out)
        assert result.returncode == 0, result.stderr
        corpus = load_corpus([TOY / "formulas.p"], TOY / "deps.txt")
        walked = walk_advice(corpus, NaiveBayesRanker(), select_conjectures(corpus))
        assert len(walked) == 4
        for advice in walked:
            top = list(advice.premise_ids[:2])
            axioms = [item.name for item in parse_file(out / f"{advice.conjecture_id}.p")][:-1]
            ranked = run_cli("rank", *toy_args(), "--conjecture", advice.conjecture_id,
                             "-n", "2")
            assert ranked.returncode == 0, ranked.stderr
            assert axioms == top
            assert [line.split("\t")[0] for line in ranked.stdout.splitlines()] == top

    @pytest.mark.parametrize("mode", ["bushy", "chainy", "advised"])
    def test_file_name_clash_is_a_config_error(self, tmp_path, mode):
        # 't,1' and t_1 would both be written to t_1.p
        f, d = write_corpus(tmp_path, "fof(a0, axiom, p(a)).\nfof('t,1', theorem, p(a)).\n"
                            "fof(t_1, theorem, p(a)).\n", "t_1: a0\n")
        out = tmp_path / "problems"
        result = run_cli("emit", "-f", f, "--deps", d, "--mode", mode, "-n", "1",
                         "--out-dir", out)
        assert result.returncode == 2
        assert "'t,1'" in result.stderr and "'t_1'" in result.stderr
        assert not out.exists()

    def test_problem_files_of_an_earlier_run_are_a_config_error(self, tmp_path):
        out = tmp_path / "bushy"
        assert run_cli("emit", *toy_args(), "--mode", "bushy", "--out-dir", out).returncode == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        result = run_cli("emit", *toy_args(), "--mode", "bushy", "--conjectures", "th_one_num",
                         "--out-dir", out)
        assert result.returncode == 2, result.stderr
        assert f"{out / 'th_plus_one.p'} is left from an earlier run" in result.stderr
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # the same selection again overwrites its own files
        (out / "th_one_num.p").write_text("stale\n", encoding="utf-8")
        again = run_cli("emit", *toy_args(), "--mode", "bushy", "--out-dir", out)
        assert again.returncode == 0, again.stderr
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("command", [
        ["rank", "--conjecture", "th_plus_succ", "-n", "2"],
        ["emit", "--mode", "advised", "-n", "2", "--out-dir", "{out}"],
    ], ids=["rank", "advised-emit"])
    def test_advised_training_error_is_a_runtime_error(self, tmp_path, monkeypatch, capsys,
                                                       command):
        class Boom(NaiveBayesRanker):
            def advise(self, view):
                raise TrainingError("boom")

        monkeypatch.setattr(cli, "_build_ranker", lambda **flags: (Boom(), ("theorem",)))
        argv = [command[0], *map(str, toy_args()),
                *(arg.format(out=tmp_path / "a") for arg in command[1:])]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 4
        captured = capsys.readouterr()
        assert captured.err == "error: boom\n"
        if command[0] == "rank":
            assert captured.out == ""


def test_no_command_loads_scipy(tmp_path):
    script = (
        "import sys\n"
        "import premsel.cli\n"
        "loaded = [any(m.split('.')[0] == 'scipy' for m in sys.modules)]\n"
        "corpus = ['-f', sys.argv[1], '--deps', sys.argv[2]]\n"
        "out = sys.argv[3]\n"
        "for argv in (['eval', *corpus, '--ranker', 'nb', '--out-dir', out + '/nb'],\n"
        "             ['emit', *corpus, '--mode', 'chainy', '--out-dir', out + '/p'],\n"
        "             ['eval', *corpus, '--ranker', 'mor', '--out-dir', out + '/mor'],\n"
        "             ['rank', *corpus, '--ranker', 'mor', '--conjecture', 'th_plus_succ',\n"
        "              '-n', '2', '--out-dir', out + '/rank'],\n"
        "             ['emit', *corpus, '--mode', 'advised', '--ranker', 'mor', '-n', '2',\n"
        "              '--out-dir', out + '/advised']):\n"
        "    loaded.append(premsel.cli.main(argv))\n"
        "    loaded.append(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "print(loaded)\n"
    )
    result = subprocess.run([sys.executable, "-c", script, TOY / "formulas.p", TOY / "deps.txt",
                             tmp_path],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # exit code, then whether scipy is loaded, after each command: the kernel
    # ranker's numerics run on numpy alone
    assert result.stdout.splitlines()[-1] == "[False" + ", 0, False" * 5 + "]"


# the output path given: a regular file, a file under a missing
# directory, or an existing directory
@pytest.mark.parametrize("command, flag, target", [
    (["rank", *toy_args(), "--conjecture", "th_plus_one"], "--out-dir", "blocker"),
    (["eval", *toy_args()], "--out-dir", "blocker"),
    (["emit", *toy_args(), "--mode", "bushy"], "--out-dir", "blocker"),
    (["minimize", "--ids", "a,b"], "--out-dir", "blocker"),
    (["minimize", "--ids", "a,b"], "--trace-csv", "missing/trace.csv"),
    (["minimize", "--ids", "a,b"], "--trace-csv", "."),
], ids=["rank", "eval", "emit", "minimize-out-dir", "minimize-trace-csv",
        "minimize-trace-csv-directory"])
def test_unwritable_output_path_fails_before_any_work(tmp_path, command, flag, target):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n", encoding="utf-8")
    path = tmp_path / target
    marker = tmp_path / "probed"
    if command[0] == "minimize":
        command = [*command, "--oracle-cmd", f"touch '{marker}'"]
    result = run_cli(*command, flag, path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"configuration error: {flag} {path}: ")
    assert result.stdout == ""
    assert not marker.exists()  # no oracle probe ran


class TestMinimize:
    A_SUFFICES = "import sys; sys.exit(0 if 'a' in sys.stdin.read().split() else 1)"

    def test_prints_minimal_set(self, tmp_path):
        result = run_cli("minimize", "--oracle-cmd",
                         f'"{sys.executable}" -c "{self.A_SUFFICES}"',
                         "--ids", "a,b,c")
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["a"]
        assert "oracle calls: 4" in result.stderr

    def test_batch_and_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        result = run_cli("minimize", "--oracle-cmd",
                         f'"{sys.executable}" -c "{self.A_SUFFICES}"',
                         "--ids", ",".join("abcdefgh"), "--batch",
                         "--trace-csv", trace)
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["a"]
        rows = trace.read_text().splitlines()
        assert rows[0] == "step,attempted_ids,sufficient"
        assert len(rows) > 1

    def test_requires_exactly_one_id_source(self):
        result = run_cli("minimize", "--oracle-cmd", "true")
        assert result.returncode == 2

    def test_repeated_candidate_id_is_a_config_error(self):
        result = run_cli("minimize", "--oracle-cmd", "true", "--ids", "a,b,a")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "'a'" in result.stderr

    def test_insufficient_start_is_runtime_error(self):
        result = run_cli("minimize", "--oracle-cmd", "false", "--ids", "a,b")
        assert result.returncode == 4

    def test_oracle_timeout_marks_the_trace(self, tmp_path):
        # removing b hangs the oracle, which is killed after the timeout
        script = ("import sys, time; ids = sys.stdin.read().split(); "
                  "'b' in ids or time.sleep(30); sys.exit(0 if 'a' in ids else 1)")
        trace = tmp_path / "trace.csv"
        result = run_cli("minimize", "--oracle-cmd", f'"{sys.executable}" -c "{script}"',
                         "--ids", "a,b,c", "--oracle-timeout", "2", "--trace-csv", trace)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["a", "b"]
        assert trace.read_text().splitlines() == [
            "step,attempted_ids,sufficient", "0,a,false", "1,b,timeout", "2,c,true"]

    def test_a_hung_start_is_a_runtime_error(self):
        result = run_cli("minimize", "--oracle-cmd", "sleep 30", "--ids", "a",
                         "--oracle-timeout", "0.2")
        assert result.returncode == 4
        assert "timed out" in result.stderr

    @pytest.mark.parametrize("flags, message", [
        (["--oracle-cmd", "", "--ids", "a"], "--oracle-cmd names no command"),
        (["--oracle-cmd", " \t", "--ids", "a"], "--oracle-cmd names no command"),
        (["--oracle-cmd", "sh '", "--ids", "a"], "--oracle-cmd cannot be split into words"),
        (["--oracle-cmd", "true", "--ids-file", "{ids}"], "'utf-8' codec can't decode byte 0xff"),
        # the byte 0xff reaches the command line as this surrogate
        (["--oracle-cmd", "true", "--ids", "a,b\udcff"], "--ids is not UTF-8 text"),
        (["--oracle-cmd", "true", "--ids", "a", "--schedule", "2"],
         "--schedule requires --batch"),
        (["--oracle-cmd", "true", "--ids", "a", "--batch", "--order", "reverse"],
         "--order reverse applies to the greedy pass only"),
    ], ids=["empty", "blank", "unclosed-quote", "ids-file-not-utf8", "ids-not-utf8",
            "schedule-without-batch", "batch-reverse"])
    def test_malformed_oracle_or_ids_is_a_config_error(self, tmp_path, flags, message):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_bytes(b"a\n\xff\n")
        out = tmp_path / "out"
        result = run_cli("minimize", *[f.format(ids=ids_file) for f in flags], "--out-dir", out)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "configuration error: " in result.stderr
        assert message in result.stderr
        assert not out.exists()

    def test_interrupt_exits_130_without_a_traceback(self, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "batch_minimize", interrupted)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--oracle-cmd", "true", "--ids", "a,b", "--batch"])
        assert exit_info.value.code == 130
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "aborted"

    @pytest.mark.parametrize("timeout", ["0", "-1", "inf", "nan"])
    def test_oracle_timeout_must_be_finite_and_positive(self, tmp_path, timeout):
        out = tmp_path / "out"
        result = run_cli("minimize", "--oracle-cmd", "true", "--ids", "a",
                         "--oracle-timeout", timeout, "--out-dir", out)
        assert result.returncode == 2
        assert "--oracle-timeout must be finite and positive" in result.stderr
        assert not out.exists()


RANKER_OPTIONS = {
    "ranker": "nb", "kernel": "gaussian", "lambda_grid": None, "sigma_grid": None,
    "split": 0.7, "chrono_split": False, "regrid": "once", "smoothing": 1.0,
    "train_rows": "theorems", "seed": 0,
}
CORPUS_OPTIONS = {"formulas": [str(TOY / "formulas.p")], "deps": str(TOY / "deps.txt")}


class TestMetadata:
    CASES = {
        "rank": (
            ["rank", *toy_args(), "--conjecture", "th_plus_one", "-n", "2"],
            {**CORPUS_OPTIONS, **RANKER_OPTIONS, "conjecture": "th_plus_one", "n": 2},
        ),
        "eval": (
            ["eval", *toy_args(), "--n-set", "1,2", "--jobs", "2", "--seed", "3"],
            {**CORPUS_OPTIONS, **RANKER_OPTIONS, "seed": 3, "conjectures": None,
             "conjecture_roles": "theorem", "n_set": "1,2"},
        ),
        "emit-bushy": (
            ["emit", *toy_args(), "--mode", "bushy", "--conjectures", "th_one_num"],
            {**CORPUS_OPTIONS, **RANKER_OPTIONS, "ranker": None, "mode": "bushy",
             "n": None, "conjectures": "th_one_num", "conjecture_roles": "theorem"},
        ),
        "emit-bushy-top": (
            ["emit", *toy_args(), "--mode", "bushy", "-n", "2"],
            {**CORPUS_OPTIONS, **RANKER_OPTIONS, "ranker": None, "mode": "bushy",
             "n": None, "conjectures": None, "conjecture_roles": "theorem"},
        ),
        "emit-advised": (
            ["emit", *toy_args(), "--mode", "advised", "-n", "2", "--ranker", "mor",
             "--lambda-grid", "1", "--sigma-grid", "2"],
            {**CORPUS_OPTIONS, **RANKER_OPTIONS, "ranker": "mor", "lambda_grid": "1",
             "sigma_grid": "2", "mode": "advised", "n": 2, "conjectures": None,
             "conjecture_roles": "theorem"},
        ),
        "minimize": (
            ["minimize", "--oracle-cmd", "true", "--ids", "a,b", "--batch"],
            {"oracle_cmd": "true", "ids": "a,b", "ids_file": None, "order": "given",
             "batch": True, "schedule": None, "trace_csv": None, "oracle_timeout": None},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_options_are_pinned(self, tmp_path, case):
        args, options = self.CASES[case]
        out = tmp_path / "out"
        result = run_cli(*args, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata == {"command": args[0], "version": "0.1.0", "options": options}


class TestHelp:
    def test_version_flag(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert "premsel" in result.stdout

    @pytest.mark.parametrize("command", ["rank", "eval", "emit", "minimize"])
    def test_subcommand_help(self, command):
        result = run_cli(command, "--help")
        assert result.returncode == 0

    @pytest.mark.parametrize("args, code, stdout", [
        (["rank", "--form", TOY / "formulas.p", "--deps", TOY / "deps.txt",
          "--conjecture", "th_plus_succ"], 2, ""),
        ([], 2, ""),
        (["minimize", "--oracle-cmd", "true", "--ids", "a", "--bogus"], 2, ""),
        (["minimize", "--oracle-cmd", "grep -qx -- -a", "--ids=-a,b"], 0, "-a\n"),
        (["-h"], 0, None),
        (["--version"], 0, "premsel, version 0.1.0\n"),
    ], ids=["abbreviation", "no-command", "unknown-option", "dash-value", "short-help",
            "version"])
    def test_argument_parsing_edge_cases(self, args, code, stdout):
        result = run_cli(*args)
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        if stdout is not None:
            assert result.stdout == stdout
