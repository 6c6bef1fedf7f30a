import json

from make_golden import COMMANDS, TABLE, digest


def test_cli_outputs_match_the_golden_table():
    # byte-identity to the last table, exit codes, stdout, stderr and CSVs;
    # a change that moves an output regenerates the table (make_golden.py)
    # and lists the moved commands
    table = json.loads(TABLE.read_text())
    assert list(table) == COMMANDS
    moved = {command: got for command in COMMANDS
             if (got := digest(command)) != table[command]}
    assert not moved, moved
