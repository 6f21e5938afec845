"""End-to-end command-line behavior, including the golden-file check."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from premsel import cli
from premsel.corpus import load_corpus
from premsel.errors import TrainingError
from premsel.evaluate import NaiveBayesRanker, run_incremental
from premsel.fol import parse_file

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

    def test_invalid_split_fails_before_any_computation(self, tmp_path):
        out = tmp_path / "report"
        result = run_cli("eval", *toy_args(), "--ranker", "mor", "--split", "1.5",
                         "--out-dir", out)
        assert result.returncode == 2
        assert "split" in result.stderr
        assert not out.exists()

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
        report = run_incremental(corpus, NaiveBayesRanker(), n_values=[2], keep_advice=True)
        assert len(report.outcomes) == 4
        for outcome in report.outcomes:
            top = list(outcome.advice.premise_ids[:2])
            axioms = [item.name for item in parse_file(out / f"{outcome.conjecture_id}.p")][:-1]
            ranked = run_cli("rank", *toy_args(), "--conjecture", outcome.conjecture_id,
                             "-n", "2")
            assert ranked.returncode == 0, ranked.stderr
            assert axioms == top
            assert [line.split("\t")[0] for line in ranked.stdout.splitlines()] == top

    def test_advised_training_error_is_a_runtime_error(self, tmp_path, monkeypatch, capsys):
        class Boom(NaiveBayesRanker):
            def advise(self, view):
                raise TrainingError("boom")

        monkeypatch.setattr(cli, "_build_ranker", lambda *args: Boom())
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["emit", *map(str, toy_args()), "--mode", "advised", "-n", "2",
                      "--out-dir", str(tmp_path / "a")])
        assert exit_info.value.code == 4
        assert capsys.readouterr().err == "error: boom\n"


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

    def test_insufficient_start_is_runtime_error(self):
        result = run_cli("minimize", "--oracle-cmd", "false", "--ids", "a,b")
        assert result.returncode == 4


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
             "batch": True, "schedule": None, "trace_csv": None},
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
