"""The CLI contract against its committed byte ledger (see make_cli_ledger):
every command of the list gives the exit code, stdout, stderr and written
files recorded in ``cli_ledger.json``."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from make_cli_ledger import LEDGER, differences, run_commands, versions


def test_cli_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    assert ledger["versions"] == versions(), (
        f"the ledger was made with {ledger['versions']}, this is {versions()}: run the "
        "test on those versions, or rewrite the ledger on these with "
        "tests/make_cli_ledger.py and name the outputs that moved")
    moved = differences(ledger["commands"], run_commands(tmp_path))
    assert moved == [], "CLI output moved against the ledger:\n" + "\n".join(moved)


def test_python_dash_m_helix4_runs_the_cli_with_its_exit_codes(tmp_path):
    # ``python -m helix4`` in a child process gives the ledger's bytes and
    # passes the exit code of ``cli.main`` on through ``sys.exit``
    rows = {row["name"]: row for row in json.loads(LEDGER.read_text())["commands"]}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for name in ("deform-forward", "deform-m-alone"):
        row = rows[name]
        done = subprocess.run([sys.executable, "-m", "helix4", *row["argv"]], cwd=tmp_path,
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == row["exit"], name
        assert hashlib.sha256(done.stdout).hexdigest() == row["stdout_sha256"], name
        assert done.stderr.decode() == row["stderr"], name
