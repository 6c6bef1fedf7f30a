import functools
import json
import math

from make_golden import COMMANDS, TABLE, digest, outputs

# each command runs once for both tests
_outputs = functools.cache(outputs)


def test_cli_outputs_match_the_golden_table():
    # byte-identity to the last table, exit codes, stdout, stderr, CSVs and
    # JSON files; a change that moves an output regenerates the table
    # (make_golden.py) and lists the moved commands
    table = json.loads(TABLE.read_text())
    assert list(table) == COMMANDS
    moved = {command: got for command in COMMANDS
             if (got := digest(_outputs(command))) != table[command]}
    assert not moved, moved


def _strict(text: str) -> dict:
    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")
    return json.loads(text, parse_constant=reject)


def _csv_rows(text: str) -> list:
    header, *lines = text.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _assert_cells_match(csv_rows: list, json_rows: list) -> None:
    # a JSON cell is the value its CSV text reads as: a finite float the
    # same double, anything else the same text
    assert len(csv_rows) == len(json_rows)
    for csv_row, json_row in zip(csv_rows, json_rows):
        for col, text in csv_row.items():
            cell = json_row[col]
            if isinstance(cell, float):
                assert math.isfinite(cell) and float(text) == cell, (col, text, cell)
            else:
                assert text == (cell if isinstance(cell, str) else json.dumps(cell)), (col, text, cell)


def test_every_json_output_is_strict_and_prints_the_csv_cells():
    checked = 0
    for command in COMMANDS:
        code, out, _, files = _outputs(command)
        if command.endswith(" --format json") and code == 0:
            csv_out = _outputs(command.removesuffix(" --format json"))[1]
            _assert_cells_match(_csv_rows(csv_out), _strict(out)["rows"])
            checked += 1
        if "r.json" in files:  # a simulate summary, on its CSV's columns
            _assert_cells_match(_csv_rows(files["r.csv"]), _strict(files["r.json"])["rows"])
            checked += 1
    # 9 ratefn, 9 mdp, the float-edge mdp, 3 estimate and 12 simulate runs
    assert checked == 34
