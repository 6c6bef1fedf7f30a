import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from regrates import experiments
from regrates.cli import render_csv
from regrates.estimators import BLOCK_ROWS, EstimatorState, nadaraya_watson
from regrates.experiments import (
    BLOCK_LANES,
    SAMPLE_CHUNK,
    STAGE_LANES,
    ExperimentPlan,
    _replicate_rng,
    _simulate,
    run_bias_experiment,
    run_mdp_experiment,
    run_tail_experiment,
    run_variance_experiment,
)
from regrates.kernels import EPANECHNIKOV, GAUSSIAN, UNIFORM
from regrates.models import ConstantResponse, UniformQuadraticGauss, UniformRademacher
from regrates.ratefn import (
    CumulantContext,
    EstimatorKind,
    asymptotic_variance,
    moderate_rate,
)
from regrates.schedules import ScheduleConfig, ValidationError


def _plan(**overrides):
    defaults = dict(
        model=UniformQuadraticGauss(0.5),
        schedule=ScheduleConfig(alpha=0.92, a=0.3, q=0.1, c=2.0, gamma0=5.0),
        kernel=EPANECHNIKOV,
        x_points=(0.5,),
        n_list=(2000,),
        replicates=300,
        master_seed=77,
        r0=0.25,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def test_plan_rejects_nonpositive_tail_threshold():
    # a row pairs P(err >= t) with the upper-tail rate I(t), so t must be
    # positive; at t = -0.2 it would count every replicate next to I(-0.2)
    with pytest.raises(ValidationError, match="tail_thresholds must be positive"):
        _plan(tail_thresholds=(-0.2, 0.2))
    with pytest.raises(ValidationError, match="tail_thresholds must be positive"):
        _plan(tail_thresholds=(0.0,))


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
@pytest.mark.parametrize("model", [UniformQuadraticGauss(0.5), UniformRademacher()],
                         ids=lambda m: m.name)
def test_every_reader_of_the_averaged_variance_agrees(model, kernel):
    # sigma_avg^2 read by the variance oracle, the mdp oracle and its rate at
    # t = 1, the averaged moderate rate, and psi''(0) = sigma_avg^2 / (1-q)
    plan = _plan(model=model, kernel=kernel, replicates=4, n_list=(10,),
                 v_exponent=0.2)
    a, q, x = plan.schedule.a, plan.schedule.q, plan.x_points[0]
    variance = run_variance_experiment(plan).rows[0]
    mdp = run_mdp_experiment(plan).rows[0]
    rate = moderate_rate(EstimatorKind.AVERAGED, a, q, model.density(x),
                         model.cond_var(x), kernel, t=1.0)
    ctx = CumulantContext(model, kernel, a, q, x)
    readers = [mdp["oracle_sigma2"], 1.0 / (2.0 * mdp["oracle_rate_t1"]),
               1.0 / (2.0 * rate), (1.0 - q) * ctx._curvature_at_zero()]
    assert variance["oracle"] > 0.0
    for value in readers:
        assert math.isclose(value, variance["oracle"], rel_tol=1e-12)


def test_plan_accepts_valid_mdp_exponent():
    run_mdp_experiment(_plan(v_exponent=0.2))  # 0.2 < 0.35 and 0.2 < 0.6


def test_plan_rejects_non_vanishing_mdp_scaling():
    with pytest.raises(ValidationError, match="does not vanish"):
        run_mdp_experiment(_plan(v_exponent=0.4))  # 0.8 >= 0.7


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="interior"):
        _plan(x_points=(0.05,))
    with pytest.raises(ValidationError, match="replicates"):
        _plan(replicates=1)
    with pytest.raises(ValidationError, match="strictly increasing"):
        _plan(n_list=(2000, 2000))
    with pytest.raises(ValidationError, match="tail_thresholds"):
        run_tail_experiment(_plan())
    with pytest.raises(ValidationError, match="bandwidth_exponent"):
        _plan(schedule=ScheduleConfig(a=0.6))


@pytest.mark.parametrize("seed", [None, -1, 1.5, "7"])
def test_plan_rejects_seed_that_is_not_a_nonnegative_int(seed):
    # an unseeded plan would draw OS entropy, and its reports would not be a
    # function of the plan
    with pytest.raises(ValidationError, match=r"\[run\] seed or --seed"):
        _plan(master_seed=seed)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN],
                         ids=lambda k: k.name)
def test_engine_replays_estimator_state_bitwise(kernel):
    # snapshots at the first step and on both sides of a row-block and of a
    # sample-chunk boundary, against single steps
    n_list = (1, BLOCK_ROWS, BLOCK_ROWS + 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1)
    plan = _plan(kernel=kernel, replicates=3, n_list=n_list)
    sims = _simulate(plan)
    for rep in range(3):
        rng = _replicate_rng(plan.master_seed, rep)
        state = EstimatorState(plan.x_points, plan.schedule, plan.kernel,
                               r0=plan.r0)
        remaining = n_list[-1]
        while remaining:
            m = min(SAMPLE_CHUNK, remaining)
            xs, ys = plan.model.sample_batch(rng, m)
            for i in range(m):
                state.update(xs[i], ys[i])
                if state.n in n_list:
                    assert sims[state.n][0, rep] == state.averaged()[0]
            remaining -= m


def test_staged_draws_match_scalar_states():
    # one block of two full stage groups and a partial one, across a
    # SAMPLE_CHUNK boundary, against a scalar state per replicate fed that
    # replicate's own draws
    reps = 2 * STAGE_LANES + 5
    n_list = (SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 7)
    plan = _plan(replicates=reps, n_list=n_list, x_points=(0.35, 0.5))
    sims = _simulate(plan)
    for rep in range(reps):
        rng = _replicate_rng(plan.master_seed, rep)
        state = EstimatorState(plan.x_points, plan.schedule, plan.kernel,
                               r0=plan.r0)
        while state.n < n_list[-1]:
            xs, ys = plan.model.sample_batch(
                rng, min(SAMPLE_CHUNK, n_list[-1] - state.n))
            cuts = [0] + [n - state.n for n in n_list
                          if 0 < n - state.n < xs.size] + [xs.size]
            for lo, hi in zip(cuts, cuts[1:]):
                state.update(xs[lo:hi], ys[lo:hi])
                if state.n in n_list:
                    np.testing.assert_array_equal(sims[state.n][:, rep],
                                                  state.averaged())


def test_simulation_is_thread_count_invariant():
    plan = _plan(replicates=BLOCK_LANES * 2 + 17, n_list=(400,))
    s1 = _simulate(plan, threads=1)
    # frequent thread switches, so that blocks sharing a sample buffer would
    # overwrite each other's draws
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        s4 = _simulate(plan, threads=4)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(s1[400], s4[400])


def test_lane_width_does_not_change_csv_bytes(monkeypatch):
    # lanes are elementwise, so the block width is a speed choice only: 1100
    # replicates make 5 blocks of at most 256 lanes, or 2 of at most 1024, and
    # n = 4500 crosses a SAMPLE_CHUNK boundary
    plan = _plan(replicates=1100, n_list=(300, 4500))
    csv = {}
    for lanes in (256, 1024):
        monkeypatch.setattr(experiments, "BLOCK_LANES", lanes)
        report = run_variance_experiment(plan, threads=2)
        csv[lanes] = render_csv(report.columns, report.rows)
    assert csv[256] == csv[1024]


def _readme_columns() -> dict:
    """README's "Experiment CSV columns" lists, by experiment."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Experiment CSV columns")[1].split("\n## ")[0]
    return {name: [col.strip() for col in cols.split(",")]
            for name, cols in re.findall(r"^\* `(\w+)`: `([^`]+)`", section,
                                         flags=re.MULTILINE)}


@pytest.mark.parametrize("experiment", ["bias", "variance", "tail", "mdp"])
def test_experiment_csv_header_matches_readme(experiment):
    # column order comes from the runners' row literals
    plan = _plan(x_points=(0.4, 0.5), n_list=(20, 40), replicates=4,
                 v_exponent=0.2, tail_thresholds=(0.1, 0.2))
    if experiment == "tail":
        with pytest.warns(UserWarning, match="noisy"):
            report = run_tail_experiment(plan)
    else:
        report = getattr(experiments, f"run_{experiment}_experiment")(plan)
    header = render_csv(report.columns, report.rows).splitlines()[0]
    assert header.split(",") == _readme_columns()[experiment]


def test_block_partition_does_not_leak_across_replicates():
    # replicate i's trajectory only depends on (master_seed, i)
    small = _simulate(_plan(replicates=2, n_list=(300,)))
    large = _simulate(_plan(replicates=5, n_list=(300,)))
    np.testing.assert_array_equal(small[300][:, :2], large[300][:, :2])


def test_bias_experiment_constant_model_is_exact_zero():
    plan = _plan(model=ConstantResponse(3.0), r0=3.0, replicates=64,
                 n_list=(1000,))
    report = run_bias_experiment(plan)
    row = report.rows[0]
    assert row["mean_error"] == 0.0
    assert row["oracle_ratio"] == 0.0


def test_bias_experiment_oracle_value():
    plan = _plan(replicates=8, n_list=(50,))
    report = run_bias_experiment(plan)
    assert math.isclose(report.rows[0]["oracle_ratio"], (0.9 / 0.3) * 0.2,
                        rel_tol=1e-12)
    assert report.columns[0] == "x"


def test_bias_experiment_symmetric_model_near_zero():
    sched = ScheduleConfig(alpha=0.92, a=0.3, q=0.3, c=0.5, gamma0=0.5)
    plan = _plan(model=UniformRademacher(), schedule=sched, r0=0.0,
                 replicates=600, n_list=(4000,))
    report = run_bias_experiment(plan)
    row = report.rows[0]
    assert row["oracle_ratio"] == 0.0
    assert abs(row["bias_ratio"]) < 4 * row["bias_ratio_se"]


def test_variance_oracle_reduction_at_equal_exponents():
    # (1-q)^2/(1+a-2q) collapses to 1-a when q = a
    direct = asymptotic_variance(EstimatorKind.AVERAGED, 0.3, 0.3, 1.0, 0.25, EPANECHNIKOV)
    assert math.isclose(direct, (1 - 0.3) * 0.25 * 0.6, rel_tol=1e-14)


def test_variance_experiment_degenerate_model_is_zero():
    plan = _plan(model=ConstantResponse(3.0), r0=3.0, replicates=64,
                 n_list=(500,))
    report = run_variance_experiment(plan)
    row = report.rows[0]
    assert row["sample_var"] == 0.0
    assert row["variance_scaled"] == 0.0
    assert row["oracle"] == 0.0


def test_variance_experiment_report_shape():
    plan = _plan(replicates=128, n_list=(500, 1000))
    report = run_variance_experiment(plan, threads=2)
    assert [row["n"] for row in report.rows] == [500, 1000]
    for row in report.rows:
        assert row["variance_scaled"] > 0
        assert math.isclose(row["oracle"], 0.9**2 / 1.1 * 0.25 * 0.6 / 1.0,
                            rel_tol=1e-12)


def test_tail_zero_exceedances_reports_lower_bound():
    plan = _plan(model=UniformRademacher(),
                 schedule=ScheduleConfig(alpha=0.92, a=0.3, q=0.3, c=0.05,
                                         gamma0=0.05),
                 kernel=UNIFORM, r0=0.0, replicates=100, n_list=(3000,),
                 tail_thresholds=(50.0,))
    with pytest.warns(UserWarning, match="exceedances"):
        report = run_tail_experiment(plan)
    row = report.rows[0]
    assert row["zero_exceedances"] is True
    assert row["count"] == 0
    nh = 3000 * plan.schedule.bandwidth(3000)
    assert math.isclose(row["tail_logprob"], math.log(100) / nh, rel_tol=1e-12)
    # Rademacher noise, uniform kernel and q = a: psi(u) = cosh u - 1
    closed = 50.0 * math.asinh(50.0) - math.sqrt(1.0 + 50.0**2) + 1.0
    assert math.isclose(row["oracle_rate"], closed, rel_tol=1e-10)


def test_tail_logprob_monotone_in_threshold():
    sched = ScheduleConfig(alpha=0.92, a=0.3, q=0.3, c=0.05, gamma0=0.05)
    plan = _plan(model=UniformRademacher(), schedule=sched, kernel=UNIFORM,
                 r0=0.0, replicates=1500, n_list=(2000,),
                 tail_thresholds=(0.1, 0.2, 0.3))
    report = run_tail_experiment(plan, threads=4)
    rows = report.rows
    assert all(rows[i]["threshold"] < rows[i + 1]["threshold"] for i in range(2))
    for i in range(2):
        slack = rows[i]["tail_logprob_se"] + rows[i + 1]["tail_logprob_se"]
        assert rows[i + 1]["tail_logprob"] >= rows[i]["tail_logprob"] - slack


def test_tail_symmetry_of_rademacher():
    sched = ScheduleConfig(alpha=0.92, a=0.3, q=0.3, c=0.05, gamma0=0.05)
    base = dict(model=UniformRademacher(), schedule=sched, kernel=UNIFORM,
                r0=0.0, replicates=1500, n_list=(2000,),
                tail_thresholds=(0.25,))
    one = run_tail_experiment(_plan(**base), threads=4)
    two = run_tail_experiment(_plan(**base, two_sided=True), threads=4)
    f_one = one.rows[0]["freq"]
    f_two = two.rows[0]["freq"]
    se = math.sqrt(f_two * (1 - f_two) / 1500)
    assert abs(f_two - 2 * f_one) < 4 * se + 2.0 / 1500


def test_mdp_small_run_matches_sigma_oracle():
    plan = _plan(replicates=1200, n_list=(5000,), v_exponent=0.2)
    report = run_mdp_experiment(plan, threads=4)
    row = report.rows[0]
    assert math.isclose(row["oracle_sigma2"],
                        asymptotic_variance(EstimatorKind.AVERAGED, 0.3, 0.1, 1.0,
                                            0.25, EPANECHNIKOV),
                        rel_tol=1e-12)
    assert abs(row["implied_sigma2"] - row["oracle_sigma2"]) \
        < 0.35 * row["oracle_sigma2"]
    assert abs(row["skewness"]) < 0.5
    assert math.isclose(row["v_n"], 5000.0**0.2, rel_tol=1e-12)
    assert math.isclose(
        row["implied_rate_t1"] * 2 * row["implied_sigma2"], 1.0, rel_tol=1e-12
    )


def test_cross_estimator_variance_ordering():
    # Var avg_n < Var semi-recursive < Var Nadaraya-Watson: the engine's avg_n
    # against the same replicate streams replayed through a lane state, which
    # keeps the semi-recursive sums, and through the batch NW estimate
    sched = ScheduleConfig(alpha=0.92, a=0.3, q=0.3, c=1.0, gamma0=5.0)
    n, reps = 10000, 768
    plan = _plan(schedule=sched, replicates=reps, n_list=(n,), master_seed=31)
    avg = _simulate(plan, threads=8)[n][0]
    h = sched.bandwidth(n)
    semi, nw = np.empty(reps), np.empty(reps)
    for lo in range(0, reps, BLOCK_LANES):
        hi = min(lo + BLOCK_LANES, reps)
        draws = np.empty((2, n, hi - lo))
        for j in range(hi - lo):
            rng = _replicate_rng(plan.master_seed, lo + j)
            for k in range(0, n, SAMPLE_CHUNK):
                m = min(SAMPLE_CHUNK, n - k)
                draws[0, k:k + m, j], draws[1, k:k + m, j] = \
                    plan.model.sample_batch(rng, m)
        state = EstimatorState(plan.x_points, sched, plan.kernel, r0=plan.r0,
                               lanes=hi - lo)
        state.update(*draws)
        np.testing.assert_array_equal(state.averaged()[0], avg[lo:hi])
        semi[lo:hi] = state.semi_recursive()[0]
        nw[lo:hi] = [nadaraya_watson(draws[0, :, j], draws[1, :, j], h,
                                     plan.x_points[0], plan.kernel)
                     for j in range(hi - lo)]
    rng = np.random.default_rng(0)
    diff_avg_semi, diff_semi_nw = [], []
    for _ in range(300):
        idx = rng.integers(0, reps, reps)
        v_avg = np.var(avg[idx], ddof=1)
        v_semi = np.var(semi[idx], ddof=1)
        v_nw = np.var(nw[idx], ddof=1)
        diff_avg_semi.append(v_avg - v_semi)
        diff_semi_nw.append(v_semi - v_nw)
    assert np.percentile(diff_avg_semi, 97.5) < 0.0
    assert np.percentile(diff_semi_nw, 97.5) < 0.0
