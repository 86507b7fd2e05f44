"""The CLI contract against its committed byte ledger (see make_cli_ledger):
every command of the list gives the exit code, stdout, stderr and written
files recorded in ``cli_ledger.json``."""

import json

from make_cli_ledger import LEDGER, differences, run_commands, versions


def test_cli_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    assert ledger["versions"] == versions(), (
        f"the ledger was made with {ledger['versions']}, this is {versions()}: run the "
        "test on those versions, or rewrite the ledger on these with "
        "tests/make_cli_ledger.py and name the outputs that moved")
    moved = differences(ledger["commands"], run_commands(tmp_path))
    assert moved == [], "CLI output moved against the ledger:\n" + "\n".join(moved)
