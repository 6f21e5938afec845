"""Start-up cost: commands that do no numeric work never execute numpy,
and no command loads ``numpy.random``.

Each check runs in a fresh interpreter, since the test process itself
has numpy loaded.  ``numpy._core`` appears in ``sys.modules`` only once
numpy's package code has really run, however its import was arranged.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "data" / "toy"

# Runs each argument list (JSON on argv[1]) through premsel.cli.main in
# this one process, then prints the exit codes and what is loaded.
SCRIPT = """\
import json, sys
import premsel.cli
RANDOM = ("numpy.random", "secrets", "hashlib")
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        premsel.cli.main(argv)
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes,
                  "numpy": "numpy._core" in sys.modules,
                  "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
                  "random": [m for m in RANDOM if m in sys.modules]}))
"""


def run_in_child(commands):
    result = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                            capture_output=True, text=True, stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def corpus():
    return ["-f", str(TOY / "formulas.p"), "--deps", str(TOY / "deps.txt")]


def test_commands_without_numeric_work_never_run_numpy(tmp_path):
    state = run_in_child([
        ["--version"],
        ["emit", *corpus(), "--mode", "chainy", "--out-dir", str(tmp_path / "chainy")],
        ["emit", *corpus(), "--mode", "bushy", "--out-dir", str(tmp_path / "bushy")],
        ["minimize", "--oracle-cmd", "sh -c 'cat >/dev/null'", "--ids", "a,b,c", "--batch",
         "--trace-csv", str(tmp_path / "trace.csv")],
    ])
    assert state == {"codes": [0, 0, 0, 0], "numpy": False, "scipy": False, "random": []}


def test_naive_bayes_eval_runs_numpy_but_not_scipy(tmp_path):
    state = run_in_child([["eval", *corpus(), "--ranker", "nb", "--out-dir", str(tmp_path)]])
    assert state == {"codes": [0], "numpy": True, "scipy": False, "random": []}


def test_kernel_ridge_commands_never_load_numpy_random(tmp_path):
    # numpy.random would also load secrets and hashlib, with OpenSSL
    state = run_in_child([
        ["eval", *corpus(), "--ranker", "mor", "--out-dir", str(tmp_path / "eval")],
        ["rank", *corpus(), "--ranker", "mor", "--conjecture", "th_plus_succ"],
    ])
    assert state == {"codes": [0, 0], "numpy": True, "scipy": False, "random": []}
