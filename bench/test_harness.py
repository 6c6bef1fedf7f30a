"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def harness(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(workload, trace):
    proc = harness(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[0])["meta"]
    return result, meta, lines


def check_metrics(result, lines, spec):
    units = {m["name"]: m["unit"] for m in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, meta, lines = result_of(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    check_metrics(result, lines, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # failed_frac counts the expected-failure probe points and nothing else
    total = result["attempted"] + meta["probe_attempted"]
    assert meta["failed_frac"] == meta["probe_failed"] / total
    for key in ("nproc", "python", "numpy", "git_commit", "seed", "src_nonblank_lines"):
        assert key in meta
    # the gated times are scaled by the calibration; the raw ones are kept
    assert meta["wall_unscaled_s"] > 0 and meta["setup_unscaled_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_with_repeatable_counts(workload):
    first, _, lines = result_of(workload, 1)
    assert first["correct"] is True
    check_metrics(first, lines, SPEC["per_layer"])
    second, _, _ = result_of(workload, 1)
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = harness("mc_dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
