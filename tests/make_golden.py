"""Regenerate ``golden.json``, the table of CLI output digests that
``test_golden.py`` checks::

    PYTHONPATH=src python tests/make_golden.py

Each command of ``COMMANDS`` runs through ``regrates.cli.main`` in a fresh
temporary directory that holds ``FIXTURES``, with relative paths only, so
that no digest holds a temporary path. Its entry is the exit code and the
sha256 of the exit code, stdout, stderr and every CSV and JSON file the
command writes. A report prints every float it computes at 10 significant
digits, in the CSV and in the JSON, and a JSON ``meta``'s settings as given,
so every output is the same on every CPU. A change that moves an output
rewrites the table with this script, which prints the commands whose entry
moved.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from regrates.cli import main

TABLE = Path(__file__).with_name("golden.json")

MODELS = ("uniform_quadratic_gauss", "uniform_rademacher", "constant_response")
KERNELS = ("epanechnikov", "uniform", "gaussian")

PLAN = """\
[schedule]
alpha = 0.92
a = 0.3
q = 0.1
c = 2
gamma0 = 5

[kernel]
name = epanechnikov

[run]
seed = 20250808
replicates = 64
n_list = 200, 1000
x_points = 0.4, 0.6
r0 = 0.25
v_exponent = 0.2
tail_thresholds = 0.2
"""

# name -> text, or None for a directory
FIXTURES = {"plan.ini": PLAN, "threads.ini": PLAN + "threads = 2\n", "taken.json": None}

COMMANDS = [
    *(f"ratefn --model {m} --kernel {k} --x 0.4 --t -4:4:9" for m in MODELS for k in KERNELS),
    *(f"ratefn --model {m} --kernel {k} --x 0.4 --t -4:4:9 --format json"
      for m in MODELS for k in KERNELS),
    *(f"mdp --model {m} --kernel {k} --x 0.4 --t -2:2:5" for m in MODELS for k in KERNELS),
    *(f"mdp --model {m} --kernel {k} --x 0.4 --t -2:2:5 --format json"
      for m in MODELS for k in KERNELS),
    # J(t) within the float range, where t^2 is past it
    "mdp --sigma 1e50 --x 0.5 --t 1e160:1e160:1",
    # a J(t) whose 10 digits would read back as inf, printed in full
    "mdp --x 0.5 --t 6.3017993950397e+153:6.3017993950397e+153:1",
    "mdp --x 0.5 --t 6.3017993950397e+153:6.3017993950397e+153:1 --format json",
    *(f"estimate --model {m} --n 5000 --grid 0.3:0.7:5 --seed 3" for m in MODELS),
    *(f"estimate --model {m} --n 5000 --grid 0.3:0.7:5 --seed 3 --format json"
      for m in MODELS),
    *(f"simulate --experiment {e} --config plan.ini --model {m} --out r.csv"
      for e in ("bias", "variance", "tail", "mdp") for m in MODELS),
    "validate --alpha 0.92 --a 0.3 --q 0.1",
    # exit 2: a bad schedule, one whose bandwidth interval is empty, and the
    # worker count, which is no setting
    "validate --alpha 1 --a 0.6 --q 0.1",
    "validate --alpha 0.8 --a 0.3 --q 0.1",
    "simulate --experiment bias --config plan.ini --threads 1 --out r.csv",
    "simulate --experiment bias --config threads.ini --out r.csv",
    # exit 3: an estimate past the largest float, and I(t) and J(t) past it
    "estimate --n 50 --grid 0.3:0.7:3 --seed 1 --r0 1e308",
    "ratefn --model uniform_rademacher --kernel uniform --x 0.5 --t 1e308:1e308:1",
    "mdp --x 0.5 --t 1e200:1e200:1",
    # exit 4: a missing config, and a summary path that is a directory
    "simulate --experiment bias --config missing.ini --out r.csv",
    "simulate --experiment bias --config plan.ini --out taken.csv",
]


def outputs(command: str) -> tuple:
    """``(exit code, stdout, stderr, {name: text})`` of one command run in a
    fresh directory that holds ``FIXTURES``; the dict holds every CSV and JSON
    file the command writes."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FIXTURES.items():
            if text is None:
                os.mkdir(os.path.join(tmp, name))
            else:
                Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(shlex.split(command))
        finally:
            os.chdir(cwd)
        files = {path.name: path.read_text() for path in sorted(Path(tmp).iterdir())
                 if path.suffix in (".csv", ".json") and path.is_file()}
    return code, out.getvalue(), err.getvalue(), files


def digest(result: tuple) -> dict:
    """``{"exit": code, "sha256": hex}`` of a command's ``outputs``."""
    return {"exit": result[0], "sha256": hashlib.sha256(json.dumps(result).encode()).hexdigest()}


if __name__ == "__main__":
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    table = {command: digest(outputs(command)) for command in COMMANDS}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    for command, entry in table.items():
        if old.get(command) != entry:
            print("moved:", command, entry)
