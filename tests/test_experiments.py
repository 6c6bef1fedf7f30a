import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from regrates import experiments
from regrates.cli import render_csv
from regrates.estimators import BLOCK_ROWS, EstimatorState, nadaraya_watson
from regrates.experiments import (
    BLOCK_LANES,
    KINDS,
    SAMPLE_CHUNK,
    SAMPLE_PAD,
    STAGE_LANES,
    ExperimentPlan,
    _replicate_rng,
    _simulate,
    run_bias_experiment,
    run_experiments,
    run_mdp_experiment,
    run_tail_experiment,
    run_variance_experiment,
)
from regrates.kernels import EPANECHNIKOV, GAUSSIAN, UNIFORM
from regrates.models import (
    ConstantResponse,
    DiscreteAtoms,
    UniformQuadraticGauss,
    UniformRademacher,
)
from regrates.quadrature import NonConvergenceError
from regrates.ratefn import (
    CumulantContext,
    EstimatorKind,
    asymptotic_variance,
    moderate_rate,
    quadratic_rate,
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
    reports = run_experiments(plan, ["variance", "mdp"])
    variance, mdp = reports["variance"].rows[0], reports["mdp"].rows[0]
    rate = moderate_rate(EstimatorKind.AVERAGED, a, q, model.density(x),
                         model.cond_var(x), kernel, t=1.0)
    ctx = CumulantContext(model, kernel, a, q, x)
    readers = [mdp["oracle_sigma2"], 1.0 / (2.0 * mdp["oracle_rate_t1"]),
               1.0 / (2.0 * rate), (1.0 - q) * ctx.curvature_at_zero]
    assert variance["oracle"] > 0.0
    for value in readers:
        assert math.isclose(value, variance["oracle"], rel_tol=1e-12)
    # the mdp kind's rates at t = 1 are the one quadratic rate, to the bit
    assert mdp["oracle_rate_t1"] == rate
    assert mdp["implied_rate_t1"] == quadratic_rate(mdp["implied_sigma2"], 1.0)


def test_plan_accepts_valid_mdp_exponent():
    run_mdp_experiment(_plan(v_exponent=0.2))  # 0.2 < 0.35 and 0.2 < 0.6


def test_plan_rejects_non_vanishing_mdp_scaling():
    with pytest.raises(ValidationError, match="does not vanish"):
        _plan(v_exponent=0.4)  # 0.8 >= 0.7


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


@pytest.mark.parametrize("reps", [STAGE_LANES + 5, BLOCK_LANES + STAGE_LANES + 5])
def test_tile_path_matches_scalar_states(monkeypatch, reps):
    # snapshots inside a tile, at a tile edge and past a chunk edge, and a
    # last chunk shorter than a tile; one block with a partial stage group,
    # or two blocks with the second partial, on 1 and on 4 draw workers:
    # every lane equals a scalar state fed that lane's stream. A chunk of 4
    # tiles keeps every edge and makes the 549 scalar references affordable.
    monkeypatch.setattr(experiments, "SAMPLE_CHUNK", 4 * BLOCK_ROWS)
    chunk = experiments.SAMPLE_CHUNK
    n_list = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, chunk + 1, chunk + 100)
    plan = _plan(replicates=reps, n_list=n_list)
    sims = []
    for workers in (1, 4):
        monkeypatch.setattr(experiments, "_cores", lambda w=workers: w)
        sims.append(_simulate(plan, threads=workers))
    for rep in range(reps):
        state = EstimatorState(plan.x_points, plan.schedule, plan.kernel,
                               r0=plan.r0)
        for xs, ys in experiments._stream(plan.model, plan.master_seed, rep,
                                          n_list[-1]):
            cuts = [0] + [n - state.n for n in n_list
                          if 0 < n - state.n < xs.size] + [xs.size]
            for lo, hi in zip(cuts, cuts[1:]):
                state.update(xs[lo:hi], ys[lo:hi])
                if state.n in n_list:
                    for sim in sims:
                        assert (sim[state.n][:, rep].tobytes()
                                == state.averaged().tobytes()), (rep, state.n)


def test_failed_tile_copy_ends_the_run(monkeypatch):
    # the copy of tile 3 raises on a pool thread: the updating thread raises
    # it when it reaches that tile, having updated tiles 0-2 and no more
    copyto, copies, steps = np.copyto, [], []
    update = EstimatorState.update

    def failing_copy(dst, src):
        copies.append(dst.shape)
        if len(copies) == 4:
            raise ArithmeticError("tile 3")
        copyto(dst, src)

    def counted_update(state, x, y):
        steps.append(len(x))
        update(state, x, y)

    monkeypatch.setattr(np, "copyto", failing_copy)
    monkeypatch.setattr(EstimatorState, "update", counted_update)
    plan = _plan(replicates=STAGE_LANES + 5, n_list=(2 * SAMPLE_CHUNK,))
    with pytest.raises(ArithmeticError, match="tile 3"):
        _simulate(plan, threads=2)
    assert sum(steps) == 3 * BLOCK_ROWS, steps


class _SignedZeroAtoms(UniformRademacher):
    """Two atoms, one of them -0.0, with unequal probabilities."""

    name = "signed_zero_atoms"

    def cond_law(self, x):
        return DiscreteAtoms((-0.0, 2.5), (0.3, 0.7))


@pytest.mark.parametrize("model", [UniformQuadraticGauss(0.5), UniformRademacher(),
                                   ConstantResponse(3.0), _SignedZeroAtoms()],
                         ids=lambda m: m.name)
def test_group_map_matches_row_draws(monkeypatch, model):
    # the Monte Carlo path's fills and group map, on two draw workers, a full
    # stage group and a partial one, and a last chunk shorter than
    # SAMPLE_CHUNK, against each replicate's sample_batch chunks: the same
    # bits fed to the update, and every generator left in the same state
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    reps, n = STAGE_LANES + 5, SAMPLE_CHUNK + 7
    rngs, fed = {}, []
    replicate_rng, update = experiments._replicate_rng, EstimatorState.update

    def kept_rng(master_seed, index):
        rngs[index] = replicate_rng(master_seed, index)
        return rngs[index]

    def kept_update(state, x, y):
        fed.append((x.copy(), y.copy()))
        update(state, x, y)

    monkeypatch.setattr(experiments, "_replicate_rng", kept_rng)
    monkeypatch.setattr(EstimatorState, "update", kept_update)
    plan = _plan(model=model, replicates=reps, n_list=(n,))
    _simulate(plan, threads=2)
    xs, ys = (np.concatenate(rows) for rows in zip(*fed))
    assert xs.shape == ys.shape == (n, reps)
    for rep in range(reps):
        ref = replicate_rng(plan.master_seed, rep)
        x_ref, y_ref = (np.concatenate(rows) for rows in zip(
            *(model.sample_batch(ref, min(SAMPLE_CHUNK, n - start))
              for start in range(0, n, SAMPLE_CHUNK))))
        assert xs[:, rep].tobytes() == x_ref.tobytes()
        assert ys[:, rep].tobytes() == y_ref.tobytes()
        assert rngs[rep].bit_generator.state == ref.bit_generator.state


def test_simulation_is_thread_count_invariant(monkeypatch):
    plan = _plan(replicates=BLOCK_LANES * 2 + 17, n_list=(400,))
    s1 = _simulate(plan, threads=1)
    # more draw workers than cores, and frequent thread switches, so that
    # workers sharing a stage group would overwrite each other's draws, and a
    # tile copy racing the update would feed it a half-copied tile
    monkeypatch.setattr(experiments, "_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        s8 = _simulate(plan, threads=8)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(s1[400], s8[400])


def test_failed_block_stops_the_others():
    # a fill that raises (a numeric fault) ends the run within its chunk:
    # no lane draws the second of its 20 chunks
    lock, draws = threading.Lock(), []

    class FailsAtFirstFill(DiscreteAtoms):
        def fill(self, rng, out):
            with lock:
                draws.append(out.size)
                first = len(draws) == 1
            if first:
                raise ArithmeticError("first draw")
            super().fill(rng, out)

    class FailsAtFirstDraw(UniformRademacher):
        def cond_law(self, x):
            law = super().cond_law(x)
            return FailsAtFirstFill(law.values, law.probs)

    plan = _plan(model=FailsAtFirstDraw(), replicates=3 * BLOCK_LANES,
                 n_list=(20 * SAMPLE_CHUNK,))
    with pytest.raises(ArithmeticError, match="first draw"):
        _simulate(plan, threads=2)
    # at most one chunk of one block
    assert len(draws) <= BLOCK_LANES, len(draws)


def test_failed_draw_in_the_other_worker_stops_the_run(monkeypatch):
    # the first replicate of stage group 1, the second draw worker's share,
    # fails at its first draw: the run ends with the first chunk, so lane 0,
    # in the first worker's share, draws at most that chunk, not all 20
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    replicate_rng, lane0 = experiments._replicate_rng, []

    class Counted:  # lane 0's generator, counting its chunks of X
        def __init__(self, rng):
            self.rng = rng

        def random(self, out):
            lane0.append(out.size)
            self.rng.random(out=out)

        def standard_normal(self, out):
            self.rng.standard_normal(out=out)

    class Fails:
        def random(self, out):
            raise ArithmeticError("group 1 fails")

    def rng_or_fail(master_seed, index):
        if index == STAGE_LANES:
            return Fails()
        rng = replicate_rng(master_seed, index)
        return Counted(rng) if index == 0 else rng

    monkeypatch.setattr(experiments, "_replicate_rng", rng_or_fail)
    plan = _plan(replicates=2 * BLOCK_LANES, n_list=(20 * SAMPLE_CHUNK,))
    with pytest.raises(ArithmeticError, match="group 1 fails"):
        _simulate(plan, threads=2)
    assert len(lane0) <= 1, len(lane0)


def test_one_sample_buffer_whatever_the_worker_count(monkeypatch):
    # two blocks, the second with a partial stage group, on 4 draw workers:
    # the run holds one padded sample buffer and two tiles, whatever the
    # worker count, and writes what a 1-thread run writes
    monkeypatch.setattr(experiments, "_cores", lambda: 4)
    plan = _plan(replicates=BLOCK_LANES + STAGE_LANES + 5, n_list=(100,))
    sample_buffer = 2 * BLOCK_LANES * (SAMPLE_CHUNK + SAMPLE_PAD) * 8
    tiles = 2 * 2 * BLOCK_ROWS * BLOCK_LANES * 8
    slack = 8 * 2**20  # the row temporaries, the generators, the results
    tracemalloc.start()
    try:
        s4 = _simulate(plan, threads=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sample_buffer + tiles + slack, peak
    s1 = _simulate(plan, threads=1)
    assert s4[100].tobytes() == s1[100].tobytes()


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


def _spy_simulate(monkeypatch) -> list:
    """The thread count of each ``_simulate`` call from here on."""
    calls, simulate = [], experiments._simulate

    def spy(plan, threads=1):
        calls.append(threads)
        return simulate(plan, threads)

    monkeypatch.setattr(experiments, "_simulate", spy)
    return calls


def test_run_experiments_simulates_once_for_every_kind(monkeypatch):
    # every kind is tabulated from one simulation, and each kind's table is
    # the one its one-kind runner writes from a simulation of its own
    plan = _plan(x_points=(0.4, 0.6), n_list=(200, 1000), replicates=300,
                 v_exponent=0.2, tail_thresholds=(0.02, 0.05))
    alone = {kind: getattr(experiments, f"run_{kind}_experiment")(plan, threads=2)
             for kind in KINDS}
    calls = _spy_simulate(monkeypatch)
    reports = run_experiments(plan, list(KINDS), threads=2)
    assert calls == [2]
    assert list(reports) == list(KINDS)
    for kind, report in reports.items():
        assert (render_csv(report.columns, report.rows)
                == render_csv(alone[kind].columns, alone[kind].rows)), kind


@pytest.mark.parametrize("kind, message", [
    ("tail", "tail experiment needs tail_thresholds"),
    ("mdp", "mdp experiment needs v_exponent"),
])
def test_run_experiments_checks_every_kind_before_the_simulation(
        monkeypatch, kind, message):
    calls = _spy_simulate(monkeypatch)
    with pytest.raises(ValidationError, match=message):
        run_experiments(_plan(), ["bias", kind])
    assert calls == []


def test_mdp_oracle_rate_is_checked_before_the_simulation(monkeypatch):
    # an oracle sigma^2 of about 1e-320 puts J(1) past the float range; the
    # plan alone fixes it, so the run stops before any replicate is drawn
    calls = _spy_simulate(monkeypatch)
    plan = _plan(model=UniformQuadraticGauss(1e-160), v_exponent=0.2)
    with pytest.raises(NonConvergenceError, match="J\\(t\\) overflows a float"):
        run_experiments(plan, ["mdp"])
    assert calls == []


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
    width = 256  # replicates replayed at a time: (2, n, width) draws, 41 MB
    for lo in range(0, reps, width):
        hi = min(lo + width, reps)
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
