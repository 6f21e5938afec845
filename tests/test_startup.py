"""Start-up cost: commands that do no numeric work never execute numpy,
no command loads ``numpy.random``, only ``minimize`` loads
``subprocess``, and ``python -m premsel`` freezes the heap at exit
unless warnings or dev mode are on.

Each check runs in a fresh interpreter, since the test process itself
has numpy loaded.  ``numpy._core`` appears in ``sys.modules`` only once
numpy's package code has really run, however its import was arranged.
"""

import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "data" / "toy"

# Runs each argument list (JSON on argv[1]) through premsel.cli.main in
# this one process, then prints the exit codes, whether subprocess was
# loaded after each command, and what is loaded at the end.
SCRIPT = """\
import json, sys
import premsel.cli
RANDOM = ("numpy.random", "secrets", "hashlib")
codes = []
loaded = []
for argv in json.loads(sys.argv[1]):
    try:
        premsel.cli.main(argv)
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
    loaded.append("subprocess" in sys.modules)
print(json.dumps({"codes": codes, "subprocess": loaded,
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
    assert state == {"codes": [0, 0, 0, 0], "subprocess": [False, False, False, True],
                     "numpy": False, "scipy": False, "random": []}


def test_naive_bayes_eval_runs_numpy_but_not_scipy(tmp_path):
    state = run_in_child([["eval", *corpus(), "--ranker", "nb", "--out-dir", str(tmp_path)]])
    assert state == {"codes": [0], "subprocess": [False], "numpy": True, "scipy": False,
                     "random": []}


def test_kernel_ridge_commands_never_load_numpy_random(tmp_path):
    # numpy.random would also load secrets and hashlib, with OpenSSL
    state = run_in_child([
        ["eval", *corpus(), "--ranker", "mor", "--out-dir", str(tmp_path / "eval")],
        ["rank", *corpus(), "--ranker", "mor", "--conjecture", "th_plus_succ"],
        ["emit", *corpus(), "--mode", "advised", "-n", "2", "--ranker", "mor",
         "--out-dir", str(tmp_path / "advised")],
    ])
    assert state == {"codes": [0, 0, 0], "subprocess": [False, False, False], "numpy": True,
                     "scipy": False, "random": []}


# ``python -m premsel`` with the arguments after -c, run as -m runs it,
# plus an atexit hook that reports on stderr whether the heap was frozen
# when the interpreter began to shut down.
ENTRY = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen={gc.get_freeze_count() > 0}", file=sys.stderr))
runpy.run_module("premsel", run_name="__main__", alter_sys=True)
"""


def run_entry(flags, args, **options):
    options.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *flags, "-c", ENTRY, *args], stderr=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True, timeout=60, **options)


def test_entry_point_freezes_the_heap_unless_warnings_or_dev_mode(tmp_path):
    bad = tmp_path / "bad.p"
    bad.write_text("fof(t, axiom, p(X)).\n", encoding="utf-8")
    deps = tmp_path / "deps.txt"
    deps.write_text("", encoding="utf-8")
    commands = [
        (["rank", *corpus(), "--conjecture", "th_plus_succ", "-n", "3"], 0),
        (["eval", "-f", str(bad), "--deps", str(deps), "--out-dir", str(tmp_path / "out")], 3),
    ]
    for args, code in commands:
        runs = {flags: run_entry(flags, args) for flags in [(), ("-W", "error"), ("-X", "dev")]}
        assert {flags: run.returncode for flags, run in runs.items()} == dict.fromkeys(runs, code)
        assert [run.stderr.splitlines()[-1] for run in runs.values()] == [
            "frozen=True", "frozen=False", "frozen=False"]
        outputs = {(run.stdout, run.stderr.rsplit("frozen=", 1)[0]) for run in runs.values()}
        assert len(outputs) == 1, outputs


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_also_when_the_command_then_fails(tmp_path, unbuffered):
    # rank prints its advice, then cannot write advice.csv
    (tmp_path / "advice.csv").mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = run_entry((), ["rank", *corpus(), "--conjecture", "th_plus_succ", "-n", "5",
                             "--out-dir", str(tmp_path)], stdout=write_end, env=env)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, "frozen=True\n")

def test_entry_point_exit_codes_for_a_closed_stdout_and_ctrl_c(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the child's stdout fails
    try:
        run = run_entry((), ["rank", *corpus(), "--conjecture", "th_plus_succ", "-n", "5"],
                        stdout=write_end)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, "frozen=True\n")

    ready = tmp_path / "ready"
    oracle = f"sh -c ': > {shlex.quote(str(ready))}; exec sleep 30'"
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, "minimize", "--oracle-cmd", oracle,
                             "--ids", "a,b"], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ready.exists(), "the oracle never started"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (130, "", "aborted\nfrozen=True\n")
