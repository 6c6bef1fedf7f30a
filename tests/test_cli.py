import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regrates
from regrates import cli, experiments
from regrates.cli import (
    _FIELDS,
    RunConfig,
    _load_config,
    build_parser,
    config_to_text,
    main,
    parse_config,
    render_csv,
    render_json,
)
from regrates.experiments import SAMPLE_CHUNK, ExperimentPlan, _simulate
from regrates.kernels import EPANECHNIKOV
from regrates.models import UniformQuadraticGauss
from regrates.schedules import ScheduleConfig, ValidationError

MINIMAL = """
[schedule]
alpha = 1.0
a = 0.3
q = 0.1

[kernel]
name = epanechnikov

[model]
name = uniform_quadratic_gauss
sigma = 0.5
"""

SIM_CONFIG = """
[schedule]
alpha = 0.92
a = 0.3
q = 0.1
c = 1.0
gamma0 = 3.0

[kernel]
name = epanechnikov

[model]
name = uniform_quadratic_gauss
sigma = 0.5

[run]
seed = 123
replicates = 64
n_list = 400
x_points = 0.5
r0 = 0.25
"""


def test_parse_minimal_document():
    cfg = parse_config(MINIMAL)
    assert cfg.schedule.a == 0.3
    assert cfg.kernel_name == "epanechnikov"
    assert cfg.model_name == "uniform_quadratic_gauss"
    assert cfg.seed is None


def test_parse_rejects_bad_bandwidth_exponent():
    with pytest.raises(ValidationError, match="bandwidth_exponent"):
        parse_config(MINIMAL.replace("a = 0.3", "a = 0.6"))


def test_parse_rejects_unknown_kernel():
    with pytest.raises(ValidationError, match="unknown kernel"):
        parse_config(MINIMAL.replace("epanechnikov", "triangle"))


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(MINIMAL + "\n[run]\nbogus = 1\n")


def test_config_round_trip():
    cfg = parse_config(SIM_CONFIG)
    assert parse_config(config_to_text(cfg)) == cfg


def test_render_csv_deterministic():
    rows = [{"a": 1.23456789012345, "b": 7}, {"a": math.inf, "b": -1},
            {"a": 1.7976931348500004e308, "b": np.int64(3)}]
    one = render_csv(["a", "b"], rows)
    two = render_csv(["a", "b"], rows)
    assert one == two
    assert one.splitlines()[0] == "a,b"
    assert one.splitlines()[1] == "1.23456789,7"
    assert one.splitlines()[2] == "inf,-1"
    # 10 digits would read 1.797693135e+308, which is inf
    assert one.splitlines()[3] == "1.7976931348500004e+308,3"


def test_render_csv_empty_rows_header_only():
    assert render_csv(["t", "I"], []) == "t,I\n"


def _reject(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def test_render_json_structure():
    # a row cell is what its CSV text reads as, a non-finite one that text;
    # the meta keeps its floats exact
    meta = {"model": "m", "x": 0.41234567891234}
    row = {"v": 1.5, "p": math.inf, "m": -math.inf, "n": math.nan, "z": -0.0,
           "f": np.float64(1.23456789012345), "i": np.int64(7), "b": True,
           "top": 1.7976931348500004e308}
    text = render_json(meta, [row])
    payload = json.loads(text, parse_constant=_reject)
    assert payload == {"meta": meta, "rows": [{
        "v": 1.5, "p": "inf", "m": "-inf", "n": "nan", "z": 0.0, "f": 1.23456789,
        "i": 7, "b": True, "top": 1.7976931348500004e308}]}
    assert '"z": -0.0,' in text and '"i": 7,' in text


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--alpha", "1", "--a", "0.3", "--q", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "stepsize_exponent: ok" in out
    assert main(["validate", "--alpha", "1", "--a", "0.6", "--q", "0.1"]) == 2
    out = capsys.readouterr().out
    assert "bandwidth_exponent: FAIL" in out
    # alpha in (3/4, 5/6]: the bandwidth interval is empty, so the bandwidth
    # exponent is never checked
    assert main(["validate", "--alpha", "0.8", "--a", "0.3", "--q", "0.1"]) == 2
    out = capsys.readouterr().out
    assert "bandwidth_interval_empty: FAIL" in out
    assert "bandwidth_exponent: skipped (bandwidth interval empty)" in out

    bad_configs = {"bad.ini": SIM_CONFIG.replace("replicates = 64", "replicates = many"),
                   "sigma.ini": SIM_CONFIG.replace("sigma = 0.5", "sigma = -1"),
                   "tol.ini": SIM_CONFIG + "[quadrature]\nquad_abs_tol = 0\n",
                   "threads.ini": SIM_CONFIG + "threads = 2\n",
                   "good.ini": SIM_CONFIG}  # made bad by a flag below
    simulate = []
    for name, text in bad_configs.items():
        (tmp_path / name).write_text(text)
        simulate.append(["simulate", "--experiment", "bias", "--config",
                         str(tmp_path / name), "--out", str(tmp_path / "r.csv")])
    good = simulate.pop()
    simulate += [good + ["--threads", "0"], good + ["--threads", "-3"]]
    estimate = ["estimate", "--n", "10", "--grid", "0.3:0.7:3", "--seed", "1"]
    for argv in (estimate + ["--n", "0"],
                 estimate + ["--c", "-1"],
                 estimate + ["--gamma0", "0"],
                 estimate + ["--grid", "0.3:0.7:abc"],
                 estimate + ["--sigma", "-1"],
                 estimate + ["--kernel", "triangle"],
                 estimate + ["--n", "ten"],
                 estimate + ["--seed", "-1"],
                 estimate + ["--sigma", "nan"],
                 estimate + ["--c", "nan"],
                 estimate + ["--gamma0", "nan"],
                 estimate + ["--r0", "nan"],
                 estimate + ["--c-prime", "inf"],
                 ["mdp", "--x", "0.5", "--t", "nan:nan:1"],
                 ["ratefn", "--x", "0.5"],
                 ["bogus"],
                 *simulate):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[validation]:"), err
    # the quadrature tolerances are constants of the rate engine, and the
    # worker count is the cores the process may use; neither is a setting
    for name, message in (("tol.ini", "unknown section [quadrature]"),
                          ("threads.ini", "unknown key 'threads' in section [run]")):
        assert main(["simulate", "--experiment", "bias", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert message in capsys.readouterr().err


def test_estimate_writes_expected_csv(tmp_path):
    out = tmp_path / "est.csv"
    rc = main([
        "estimate", "--model", "constant_response",
        "--n", "60", "--grid", "0.3:0.7:3", "--seed", "9", "--r0", "3",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,r_n,r_avg,nw,semi_rec,true_r"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = [float(v) for v in line.split(",")]
        assert fields[1:] == [3.0, 3.0, 3.0, 3.0, 3.0]


@pytest.mark.parametrize("kernel", ["epanechnikov", "gaussian"])
def test_estimate_at_vanishing_bandwidth(tmp_path, capsys, kernel):
    # at c = 1e-300 every kernel argument is past 1e154, where z * z
    # overflows and K(z) = 0: no step moves r_n off r0, and both kernel
    # ratios have a zero denominator
    out = tmp_path / "est.csv"
    assert main(["estimate", "--n", "50", "--grid", "0.3:0.7:3", "--seed", "1",
                 "--c", "1e-300", "--r0", "0.25", "--kernel", kernel,
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for line in out.read_text().splitlines()[1:]:
        assert [float(v) for v in line.split(",")[1:5]] == [0.25, 0.25, 0.0, 0.0]


def test_estimate_deterministic_bytes(tmp_path):
    args = ["estimate", "--model", "uniform_quadratic_gauss", "--n", "500",
            "--grid", "0.3:0.7:5", "--seed", "4", "--alpha", "0.95",
            "--gamma0", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_requires_seed(tmp_path, capsys):
    rc = main(["estimate", "--model", "uniform_rademacher", "--n", "10",
               "--grid", "0.4:0.6:2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    # the same line as simulate without a seed: seed_problem's message
    assert capsys.readouterr().err == (
        "error[validation]: seed must be a nonnegative integer ([run] seed "
        "or --seed), got None\n")


def test_estimate_is_simulate_replicate_zero(monkeypatch):
    # estimate streams replicate 0 of simulate's seeding, a chunk at a time;
    # n ends two chunks and five steps in
    n = 2 * SAMPLE_CHUNK + 5
    reports = []
    monkeypatch.setattr(cli, "emit_report", lambda report, *_: reports.append(report))
    assert main(["estimate", "--n", str(n), "--grid", "0.5:0.5:1", "--seed", "7"]) == 0
    # the report's own values, bit for bit, not its 10-digit text
    ((row,),) = [report.rows for report in reports]
    plan = ExperimentPlan(model=UniformQuadraticGauss(), schedule=ScheduleConfig(),
                          kernel=EPANECHNIKOV, x_points=(0.5,), n_list=(n,),
                          replicates=2, master_seed=7)
    assert row["r_avg"] == _simulate(plan)[n][0][0]


def test_estimate_memory_does_not_grow_with_n(tmp_path):
    def peak(n):
        tracemalloc.start()
        try:
            assert main(["estimate", "--n", str(n), "--grid", "0.3:0.7:3", "--seed", "1",
                         "--out", str(tmp_path / "est.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(8 * SAMPLE_CHUNK), peak(64 * SAMPLE_CHUNK)
    assert large <= 1.5 * small, (small, large)


def test_ratefn_matches_library(tmp_path):
    out = tmp_path / "rate.csv"
    rc = main(["ratefn", "--model", "uniform_rademacher", "--kernel", "uniform",
               "--a", "0.25", "--q", "0.25", "--x", "0.5", "--t", "1:1:1",
               "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == "t,I,u_star,psi_at_ustar"
    t, i_val, u_star, psi_val = (float(v) for v in row.split(","))
    closed = math.asinh(1.0) - math.sqrt(2.0) + 1.0
    assert abs(i_val - closed) < 1e-9
    assert abs(u_star - math.asinh(1.0)) < 1e-8


def test_ratefn_reaches_small_noise(tmp_path):
    # u* = 1.6e32 at sigma = 1e-31, past what 100 doublings from |u| = 1024 reach
    out = tmp_path / "r.csv"
    assert main(["ratefn", "--model", "uniform_quadratic_gauss", "--sigma", "1e-31",
                 "--x", "0.5", "--t", "1:1:1", "--out", str(out)]) == 0
    _, row = out.read_text().splitlines()
    assert all(math.isfinite(float(v)) for v in row.split(","))


@pytest.mark.parametrize("argv, code", [
    (["--t", "1e308:1e308:1", "--model", "uniform_rademacher", "--kernel", "uniform"], 3),
    (["--t", "-1e300:1e300:2", "--model", "uniform_quadratic_gauss",
      "--kernel", "gaussian"], 0),
], ids=["atoms-1e308", "gauss-1e300"])
def test_ratefn_overflow_stays_off_stderr(tmp_path, argv, code):
    # numpy's overflow warnings go to stderr unless silenced where they arise;
    # a child process shows stderr as a user sees it, where pytest would
    # capture the warnings
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(regrates.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "regrates.cli", "ratefn", "--x", "0.5", *argv,
         "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error[numeric]: ") \
            and proc.stderr.count("\n") == 1, proc.stderr
        # psi' = 1e308 at u* ~ 714.96, and I = t u* - psi(u*) overflows a
        # float there; the message names that point
        assert re.search(r"I\(t\) overflows a float at u = 71\d\.\d", proc.stderr), \
            proc.stderr


def test_simulate_tail_rate_failure_exits_3(tmp_path, capsys):
    # the tail experiment's rate oracle runs before any sampling; a threshold
    # past the range of psi' ends the run with one line and no report
    cfg = tmp_path / "tail.ini"
    cfg.write_text(
        "[schedule]\nalpha = 0.92\na = 0.3\nq = 0.3\nc = 0.05\ngamma0 = 0.05\n"
        "[kernel]\nname = uniform\n[model]\nname = uniform_rademacher\n"
        "[run]\nseed = 1\nreplicates = 64\nn_list = 200\nx_points = 0.5\n"
        "tail_thresholds = 1e308\n")
    rc = main(["simulate", "--experiment", "tail", "--config", str(cfg),
               "--out", str(tmp_path / "tail.csv")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[numeric]: "), err
    assert [path.name for path in tmp_path.iterdir()] == ["tail.ini"]


def test_mdp_command_values(tmp_path):
    out = tmp_path / "mdp.csv"
    rc = main(["mdp", "--model", "uniform_rademacher", "--kernel",
               "epanechnikov", "--a", "0.25", "--q", "0.25", "--x", "0.5",
               "--t", "1:1:1", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == "t,J_avg,J_nw,J_semirec"
    _, j_avg, j_nw, j_semi = (float(v) for v in row.split(","))
    assert abs(j_avg - (4 / 3) * (1 / 0.6) * 0.5) < 1e-9
    assert abs(j_nw - (1 / 0.6) * 0.5) < 1e-9
    assert abs(j_semi - 1.25 * (1 / 0.6) * 0.5) < 1e-9


def test_mdp_rates_at_the_edge_of_the_float_range(capsys):
    # J(t) = t^2 / (2 sigma^2) within the float range is printed, though t^2
    # overflows; past it, as I(t) past it, it exits 3 with one stderr line
    assert main(["mdp", "--sigma", "1e50", "--x", "0.5", "--t", "1e160:1e160:1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1] == "1e+160,1.131687243e+220,8.333333333e+219,1.083333333e+220"
    # a J(t) whose 10 digits would read back as inf prints in full, and is
    # a JSON number
    edge = ["mdp", "--x", "0.5", "--t", "6.3017993950397e+153:6.3017993950397e+153:1"]
    assert main(edge) == 0
    out, err = capsys.readouterr()
    assert err == "" and float(out.splitlines()[1].split(",")[1]) == 1.7976931348500004e308
    assert main([*edge, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    (row,) = json.loads(out, parse_constant=_reject)["rows"]
    assert err == "" and row["J_avg"] == 1.7976931348500004e308
    assert main(["mdp", "--x", "0.5", "--t", "1e200:1e200:1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error[numeric]: J(t) overflows a float at t = 1e+200\n"
    # a zero variance is still J = inf, exit 0
    assert main(["mdp", "--model", "constant_response", "--x", "0.5",
                 "--t", "1e200:1e200:1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1e+200,inf,inf,inf"


def test_range_starting_with_minus_is_a_value(tmp_path):
    out = tmp_path / "mdp.csv"
    rc = main(["mdp", "--model", "uniform_rademacher", "--x", "0.5",
               "--t", "-2:2:5", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_simulate_writes_csv_and_summary(tmp_path):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    # the summary's tolerances are those of acceptance criteria 07 and 08
    for experiment, header, tolerance in (
            ("bias", "x,n,h_n,mean_error,se_mean", 0.15),
            ("variance", "x,n,h_n,sample_var,variance_scaled", 0.10)):
        out = tmp_path / f"{experiment}.csv"
        rc = main(["simulate", "--experiment", experiment, "--config",
                   str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith(header)
        summary = json.loads((tmp_path / f"{experiment}.json").read_text())
        assert summary["meta"]["experiment"] == experiment
        assert summary["rows"][0]["tolerance"] == tolerance
        assert "within_tolerance" in summary["rows"][0]
        assert "warnings" not in summary["meta"]


@pytest.mark.filterwarnings("error")  # no warning may leave main()
def test_simulate_puts_runner_warning_in_summary(tmp_path, capsys):
    # 64 replicates at n = 400 expect ~7 exceedances of 0.05, and the tail
    # runner warns that the cell will be noisy
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG + "tail_thresholds = 0.05\n")
    out = tmp_path / "tail.csv"
    rc = main(["simulate", "--experiment", "tail", "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    messages = json.loads((tmp_path / "tail.json").read_text())["meta"]["warnings"]
    assert len(messages) == 1 and "exceedances" in messages[0], messages


def test_simulate_requires_seed(tmp_path, capsys):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG.replace("seed = 123", ""))
    rc = main(["simulate", "--experiment", "variance", "--config",
               str(cfg_path), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "error[validation]" in capsys.readouterr().err


def test_negative_seed_has_one_message(tmp_path, capsys):
    # simulate builds a plan and estimate does not; both print the plan's
    # seed message
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    errors = []
    for argv in (["simulate", "--experiment", "bias", "--config", str(cfg_path),
                  "--out", str(tmp_path / "r.csv"), "--seed", "-3"],
                 ["estimate", "--n", "10", "--grid", "0.3:0.7:3", "--seed", "-1"]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [
        f"error[validation]: seed must be a nonnegative integer ([run] seed "
        f"or --seed), got {seed}\n" for seed in (-3, -1)]


def test_simulate_runs_on_the_cores_it_may_use(tmp_path, monkeypatch):
    # the run gets every core the process may use, and _simulate caps that
    # at the block count: 300 replicates are two blocks, so two cores run two
    # workers, and the CSV and the summary keep their bytes
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG.replace("replicates = 64", "replicates = 300"))
    run, received = experiments.run_experiments, []

    def spy(plan, kinds, threads):
        received.append(threads)
        return run(plan, kinds, threads)

    monkeypatch.setattr(experiments, "run_experiments", spy)
    outputs = []
    for cores in (1, 2):
        monkeypatch.setattr(experiments, "_cores", lambda: cores)
        out = tmp_path / str(cores) / "v.csv"
        out.parent.mkdir()
        assert main(["simulate", "--experiment", "variance", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert received == [1, 2]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("out", ["res.json", ""], ids=["json", "empty"])
def test_simulate_rejects_out_the_summary_would_take(tmp_path, monkeypatch, capsys, out):
    # res.json would be overwritten by its own summary, and '' would put the
    # CSV on stdout and the summary at ./.json
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "--experiment", "variance", "--seed", "1",
               "--replicates", "4", "--out", out])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error[validation]: --out"), captured.err
    assert list(tmp_path.iterdir()) == []


def test_io_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    rc = main(["simulate", "--experiment", "variance", "--config",
               str(cfg_path), "--out", str(tmp_path)])  # a directory
    assert rc == 4
    assert "error[io]" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing_dir", "directory", "summary_directory"])
def test_simulate_bad_out_fails_before_the_run(tmp_path, monkeypatch, capsys, where):
    # a missing directory or a directory as --out, or as the summary's path
    # beside it, ends the run before the simulation starts, with the line that
    # writing the report would print
    monkeypatch.chdir(tmp_path)
    out, bad = {"missing_dir": ("nope/r.csv", "nope/r.csv"), "directory": ("d", "d"),
                "summary_directory": ("d/r.csv", "d/r.json")}[where]
    if where != "missing_dir":
        os.makedirs(bad)
    before = sorted(tmp_path.rglob("*"))
    calls = []
    monkeypatch.setattr(experiments, "_simulate", lambda *args, **kw: calls.append(args))
    rc = main(["simulate", "--experiment", "variance", "--seed", "1",
               "--replicates", "4", "--out", out])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[io]: cannot write {bad!r}: "), err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--experiment", "bias", "--config",
               str(tmp_path / "nope.ini"), "--out", str(tmp_path / "r.csv")])
    assert rc == 4
    assert "error[io]" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    cfg = parse_config(SIM_CONFIG)
    assert cfg.seed == 123
    args = build_parser().parse_args(
        ["simulate", "--experiment", "bias", "--config", str(cfg_path),
         "--out", str(tmp_path / "r.csv"), "--seed", "99", "--replicates", "32"])
    assert _load_config(args) == replace(cfg, seed=99, replicates=32)


def test_flag_replaces_bad_config_value(tmp_path, capsys):
    # a flag replaces the file's value before the one validation pass
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(MINIMAL.replace("a = 0.3", "a = 0.6"))
    argv = ["mdp", "--config", str(cfg_path), "--x", "0.5", "--t", "0:1:3",
            "--out", str(tmp_path / "m.csv")]
    assert main(argv) == 2
    assert "bandwidth_exponent" in capsys.readouterr().err
    assert main(argv + ["--a", "0.3"]) == 0
    assert capsys.readouterr().err == ""


def test_readme_config_example_lists_every_key_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    example = next(b for b in blocks if "v_exponent" in b)  # the full example
    keys = re.findall(r"^(\[\w+\]|\w+) *=?", example, re.M)
    pairs, section = [], None
    for key in keys:
        if key.startswith("["):
            section = key[1:-1]
        else:
            pairs.append((section, key))
    assert sorted(pairs) == sorted((sec, key) for sec, key, *_ in _FIELDS)
    parse_config(example)


def _readme_command_lines() -> list:
    """The argv of each ``regrates`` line in README's "Command line" block,
    less ``simulate``, which needs a config file, and in the "Rate curves"
    recipe."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = []
    for heading in ("## Command line", "**Rate curves**"):
        block = re.search(r"```bash\n(.*?)```", readme.split(heading)[1], re.S)[1]
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("regrates "):
                lines.append(shlex.split(line)[1:])
    return [argv for argv in lines if argv[0] != "simulate"]


def test_readme_recipes_parse():
    # every config block and every regrates line of README, the recipes'
    # included: a renamed key or flag fails here, not only in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    configs = re.findall(r"```ini\n(.*?)```", readme, re.S)
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").replace("$seed", "11").splitlines():
            if line.strip().startswith("regrates "):
                commands.append(shlex.split(line)[1:])
    assert len(configs) == 3 and len(commands) == 10
    for text in configs:
        parse_config(text)
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_command_lines_run(tmp_path, capsys):
    # a renamed flag fails here, not only in the docs
    lines = _readme_command_lines()
    assert [argv[0] for argv in lines] == ["validate", "estimate", "ratefn", "mdp",
                                           "ratefn", "mdp"]
    for i, argv in enumerate(lines):
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        elif argv[0] != "validate":  # validate prints to stdout only
            argv += ["--out", str(tmp_path / f"{i}.csv")]
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_every_command_records_its_run(tmp_path):
    # each command's JSON meta holds its own arguments and the settings, as a
    # config document that parses back to the RunConfig its argv loads
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    shared = ["--config", str(cfg_path), "--kernel", "uniform", "--sigma", "0.25"]
    runs = {
        "estimate": ({"n": 20, "grid": "0.3:0.7:3"}, ["--n", "20", "--grid", "0.3:0.7:3"]),
        # an --x past 10 digits, which the meta keeps exact
        "ratefn": ({"x": 0.41234567891234, "t": "0:1:2"},
                   ["--x", "0.41234567891234", "--t", "0:1:2"]),
        "mdp": ({"x": 0.4, "t": "-1:1:3"}, ["--x", "0.4", "--t", "-1:1:3"]),
        "simulate": ({"experiment": "variance"}, ["--experiment", "variance"]),
    }
    for command, (own, flags) in runs.items():
        argv = [command, *flags, *shared]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "simulate.csv")]
        else:
            argv += ["--format", "json", "--out", str(tmp_path / f"{command}.json")]
        assert main(argv) == 0, argv
        meta = json.loads((tmp_path / f"{command}.json").read_text())["meta"]
        assert meta == {"command": command, **own, "config": meta["config"]}
        assert parse_config(meta["config"]) == _load_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("experiment, setting, message", [
    ("tail", "tail_thresholds = -0.2, 0.2\n", "tail_thresholds must be positive"),
    ("bias", "v_exponent = -0.1\n", "v_exponent -0.1 must be positive"),
], ids=["tail-threshold", "bias-v-exponent"])
def test_nonpositive_setting_exits_2(tmp_path, capsys, experiment, setting, message):
    # a threshold t <= 0 would pair P(err >= t) with the rate of another event;
    # the plan checks a v_exponent that is set for every experiment kind
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG + setting)
    rc = main(["simulate", "--experiment", experiment, "--config", str(cfg_path),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[validation]:"), err
    assert message in err


def test_default_runconfig_roundtrip():
    cfg = RunConfig()
    assert parse_config(config_to_text(cfg)) == cfg


def test_plan_carries_every_shared_field():
    cfg = RunConfig(
        schedule=ScheduleConfig(alpha=0.92, a=0.25, q=0.2, c=2.0, gamma0=4.0),
        kernel_name="uniform", model_name="uniform_rademacher", seed=5,
        replicates=17, n_list=(30, 60), x_points=(0.4, 0.6), r0=0.5,
        v_exponent=0.1, tail_thresholds=(0.3,),
    )
    plan = cfg.plan()
    shared = {f.name for f in fields(RunConfig)} & {f.name for f in fields(ExperimentPlan)}
    assert shared == {"schedule", "replicates", "n_list", "x_points", "r0",
                      "v_exponent", "tail_thresholds"}
    for name in shared:
        assert getattr(cfg, name) != getattr(RunConfig(), name), name
        assert getattr(plan, name) == getattr(cfg, name), name
    assert plan.master_seed == cfg.seed
    assert plan.kernel == cfg.kernel()
    assert type(plan.model) is type(cfg.model())
    assert vars(plan.model) == vars(cfg.model())


# The CLI contract property draws argv from a small grammar. Each flag has
# admissible values and bad ones (negative, zero, non-numeric, unknown; None
# leaves a required flag out), and an argv takes a bad value for at most one
# flag. Sizes stay tiny (n <= 200, replicates <= 8), and drawn ratefn runs
# are at t = 0, where I(t) is closed-form.
_SHARED_FLAGS = {
    "--alpha": (("0.92", "1"), ("0.5", "-1", "abc")),
    "--a": (("0.3", "0.25"), ("0.6", "0")),
    "--q": (("0.1", "0.25"), ("0.45", "-0.2", "x")),
    "--c": (("2", "0.5"), ("0", "-1")),
    "--gamma0": (("5",), ("0", "ten")),
    "--kernel": (("uniform", "gaussian", "epanechnikov"), ("triangle",)),
    "--model": (("uniform_rademacher", "constant_response",
                 "uniform_quadratic_gauss"), ("nope",)),
    "--sigma": (("0.5", "0"), ("-1", "abc")),
}
# command -> (required flags, optional flags)
_COMMANDS = {
    "validate": ({"--alpha": (("0.95", "1"), ("0.5", "abc", None)),
                  "--a": (("0.3",), ("0.6", "-1")),
                  "--q": (("0.1",), ("0.9", ""))}, {}),
    "estimate": ({"--n": (("1", "200"), ("0", "-5", "ten", None)),
                  "--grid": (("0.3:0.7:3",), ("0.7:0.3:3", "0.3:0.7:abc")),
                  "--seed": (("1", "12345"), ("1.5", "-1", None))},
                 {**_SHARED_FLAGS, "--r0": (("0.25",), ("nope",))}),
    "ratefn": ({"--x": (("0.5", "0.3"), ("1.5", "abc", None)),
                "--t": (("0:0:1",), ("0:0:0", None))}, _SHARED_FLAGS),
    "mdp": ({"--x": (("0.5", "0.3"), ("1.5", "abc")),
             "--t": (("0:1:3", "0.25:2:8", "-2:2:5", "-1:1:3"),
                     ("1:0:3", "0:1:0", "0:1:abc", None))},
            _SHARED_FLAGS),
    "simulate": ({"--experiment": (("bias", "variance", "tail", "mdp"),
                                   ("bogus", None))},
                 {**_SHARED_FLAGS, "--replicates": (("2", "8"), ("1", "0", "x")),
                  "--seed": (("7",), ("3.5", "-3"))}),
    "bogus": ({}, {}),
}
# At these sizes the tail experiment warns of noisy cells, which must not
# reach stderr.
_CONTRACT_CONFIG = SIM_CONFIG.replace("replicates = 64", "replicates = 4") \
    .replace("n_list = 400", "n_list = 50, 200") \
    + "v_exponent = 0.1\ntail_thresholds = 0.2\n"


@st.composite
def _cli_argv(draw, paths):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    if command == "simulate":
        required = {**required, **paths}
    flags = {**required, **optional}
    bad = draw(st.sampled_from(sorted(flags))) if flags and draw(st.booleans()) else None
    argv = [command]
    for flag, (good, wrong) in flags.items():
        if flag == bad:
            value = draw(st.sampled_from(wrong))
        elif flag in required or draw(st.booleans()):
            value = draw(st.sampled_from(good))
        else:
            value = None
        if value is not None:
            argv += [flag, value]
    return argv


# pytest records warnings before they reach stderr; as errors, a warning that
# leaves main() fails the property
@pytest.mark.filterwarnings("error")
def test_cli_contract_property(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    (tmp / "plan.ini").write_text(_CONTRACT_CONFIG)
    paths = {"--config": ((str(tmp / "plan.ini"),), (str(tmp / "missing.ini"),)),
             "--out": ((str(tmp / "report.csv"),), (str(tmp),))}

    simulate = ["simulate", "--config", str(tmp / "plan.ini"),
                "--out", str(tmp / "report.csv"), "--experiment"]
    ratefn = ["ratefn", "--x", "0.5", "--model"]
    estimate = ["estimate", "--n", "50", "--grid", "0.3:0.7:3", "--seed", "1"]

    # the derandomized draws follow the source of check, so an edit to it can
    # drop whole commands; these runs are made whatever is drawn
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=_cli_argv(paths), expected=st.just(None))
    @example(argv=[*simulate, "tail"], expected=0)
    @example(argv=[*simulate, "mdp"], expected=0)
    @example(argv=[*ratefn, "uniform_rademacher", "--t", "0.5:0.5:1"], expected=0)
    @example(argv=[*ratefn, "uniform_quadratic_gauss", "--t", "0.5:0.5:1"], expected=0)
    @example(argv=[*ratefn, "uniform_rademacher", "--t", "100:100:1"], expected=0)
    @example(argv=[*ratefn, "uniform_quadratic_gauss", "--t", "8:8:1"], expected=0)
    # finite but extreme values: a square or a gain that overflows a float,
    # or a division by h_n^2 = 0, is a numeric failure, and a kernel argument
    # that overflows gives K = 0
    @example(argv=[*ratefn, "uniform_quadratic_gauss", "--t", "0.5:0.5:1",
                   "--sigma", "1e200"], expected=3)
    @example(argv=["mdp", "--x", "0.5", "--t", "1:1:1", "--sigma", "1e200"], expected=3)
    @example(argv=[*simulate, "variance", "--sigma", "1e200"], expected=3)
    @example(argv=[*simulate, "tail", "--sigma", "1e200"], expected=3)
    @example(argv=[*simulate, "mdp", "--sigma", "1e200"], expected=3)
    @example(argv=[*simulate, "mdp", "--sigma", "1e154"], expected=3)
    @example(argv=[*simulate, "bias", "--c", "1e-300"], expected=3)  # h_n^2 = 0
    @example(argv=[*estimate, "--c", "1e-300"], expected=0)
    @example(argv=[*estimate, "--gamma0", "1e300"], expected=3)
    @example(argv=[*estimate, "--r0", "1e308"], expected=3)
    @example(argv=[*estimate, "--r0", "-1e308"], expected=3)
    # 10**15 steps are 7.1 PiB, past any address space: out of memory is
    # exit 4 with one line
    @example(argv=["ratefn", "--x", "0.5", "--t", f"0:1:{10**15}"], expected=4)
    @example(argv=["mdp", "--x", "0.5", "--t", f"0:1:{10**15}"], expected=4)
    @example(argv=["estimate", "--n", "10", "--seed", "1", "--grid", f"0.3:0.7:{10**15}"],
             expected=4)
    # two blocks of lanes, drawn on as many worker threads as there are
    # cores: an overflow in the update or in a draw thread ends the run too
    @example(argv=[*simulate, "bias", "--r0", "1e308", "--replicates", "600"],
             expected=3)
    @example(argv=[*simulate, "bias", "--sigma", "1e308", "--replicates", "600"],
             expected=3)
    def check(argv, expected):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in ({0, 2, 3, 4} if expected is None else {expected}), \
            (argv, code, err)
        if code == 0:
            assert err == "", (argv, err)
        else:
            assert err.startswith("error[") and err.count("\n") == 1, (argv, err)

    check()
