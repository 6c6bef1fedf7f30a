import json
import math

import numpy as np
import pytest

from regrates.cli import (
    ParseError,
    RunConfig,
    config_to_text,
    main,
    parse_config,
    render_csv,
    render_json,
)
from regrates.schedules import ValidationError

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
threads = 1
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
    with pytest.raises(ParseError, match="unknown kernel"):
        parse_config(MINIMAL.replace("epanechnikov", "triangle"))


def test_parse_rejects_unknown_key():
    with pytest.raises(ParseError, match="unknown key"):
        parse_config(MINIMAL + "\n[run]\nbogus = 1\n")


def test_config_round_trip():
    cfg = parse_config(SIM_CONFIG)
    assert parse_config(config_to_text(cfg)) == cfg


def test_render_csv_deterministic():
    rows = [{"a": 1.23456789012345, "b": 7}, {"a": math.inf, "b": -1}]
    one = render_csv(["a", "b"], rows)
    two = render_csv(["a", "b"], rows)
    assert one == two
    assert one.splitlines()[0] == "a,b"
    assert one.splitlines()[1] == "1.23456789,7"
    assert one.splitlines()[2] == "inf,-1"


def test_render_csv_empty_rows_header_only():
    assert render_csv(["t", "I"], []) == "t,I\n"


def test_render_json_structure():
    payload = json.loads(render_json({"model": "m"}, [{"v": 1.5}]),
                         parse_constant=lambda c: c)
    assert payload == {"meta": {"model": "m"}, "rows": [{"v": 1.5}]}


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--alpha", "1", "--a", "0.3", "--q", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "stepsize_exponent: ok" in out
    assert main(["validate", "--alpha", "1", "--a", "0.6", "--q", "0.1"]) == 2
    out = capsys.readouterr().out
    assert "bandwidth_exponent: FAIL" in out

    bad_config = tmp_path / "bad.ini"
    bad_config.write_text(SIM_CONFIG + "two_sided = maybe\n")
    estimate = ["estimate", "--n", "10", "--grid", "0.3:0.7:3", "--seed", "1"]
    for argv in (estimate + ["--n", "0"],
                 estimate + ["--c", "-1"],
                 estimate + ["--gamma0", "0"],
                 estimate + ["--grid", "0.3:0.7:abc"],
                 ["simulate", "--experiment", "bias", "--config",
                  str(bad_config), "--out", str(tmp_path / "r.csv")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[validation]:"), err


def test_estimate_writes_expected_csv(tmp_path):
    out = tmp_path / "est.csv"
    rc = main([
        "estimate", "--model", "constant_response", "--y-const", "3",
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
    assert "error[validation]" in capsys.readouterr().err


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


def test_ratefn_numeric_failure_exit_code(tmp_path, capsys):
    rc = main(["ratefn", "--model", "constant_response", "--a", "0.3",
               "--q", "0.1", "--x", "0.5", "--t", "0.5:1:2",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "error[numeric]" in capsys.readouterr().err


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


def test_simulate_writes_csv_and_summary(tmp_path):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--experiment", "variance", "--config",
               str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,n,h_n,sample_var,variance_scaled")
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["meta"]["experiment"] == "variance"
    assert summary["rows"][0]["tolerance"] == 0.10
    assert "within_tolerance" in summary["rows"][0]


def test_simulate_requires_seed(tmp_path, capsys):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG.replace("seed = 123", ""))
    rc = main(["simulate", "--experiment", "variance", "--config",
               str(cfg_path), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "error[validation]" in capsys.readouterr().err


def test_simulate_threads_flag_does_not_change_bytes(tmp_path):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--experiment", "bias", "--config", str(cfg_path),
                 "--out", str(a), "--threads", "1"]) == 0
    assert main(["simulate", "--experiment", "bias", "--config", str(cfg_path),
                 "--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_io_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "plan.ini"
    cfg_path.write_text(SIM_CONFIG)
    rc = main(["simulate", "--experiment", "variance", "--config",
               str(cfg_path), "--out", str(tmp_path)])  # a directory
    assert rc == 4
    assert "error[io]" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--experiment", "bias", "--config",
               str(tmp_path / "nope.ini"), "--out", str(tmp_path / "r.csv")])
    assert rc == 4
    assert "error[io]" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path):
    cfg = parse_config(SIM_CONFIG)
    assert cfg.seed == 123

    class Args:
        seed = 99
        alpha = None
        a = None
        q = None
        c = None
        c_prime = None
        gamma0 = None
        kernel = None
        model = None
        sigma = None
        y_const = None
        r0 = None
        threads = 2
        replicates = None

    from regrates.cli import _merge_flags

    merged = _merge_flags(cfg, Args())
    assert merged.seed == 99
    assert merged.threads == 2
    assert merged.schedule == cfg.schedule


def test_default_runconfig_roundtrip():
    cfg = RunConfig()
    assert parse_config(config_to_text(cfg)) == cfg
