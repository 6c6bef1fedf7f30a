"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The Monte Carlo criteria reuse module-scoped fixtures so the heavy
simulations run once; every tolerance is asserted exactly as stated.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from regrates.cli import render_csv
from regrates.estimators import EstimatorState
from regrates.experiments import (
    ExperimentPlan,
    run_bias_experiment,
    run_tail_experiment,
    run_variance_experiment,
)
from regrates.kernels import EPANECHNIKOV, GAUSSIAN, UNIFORM
from regrates.models import ConstantResponse, UniformQuadraticGauss, UniformRademacher
from regrates.ratefn import (
    CumulantContext,
    EstimatorKind,
    cumulant,
    cumulant_derivatives,
    invert_slope,
    large_deviation_rate,
    moderate_rate,
)
from regrates.schedules import ScheduleConfig

from oracles import conjugate_oracle

COSH_CTX = CumulantContext(UniformRademacher(), UNIFORM, a=0.25, q=0.25, x=0.5)

MC_SCHEDULE = ScheduleConfig(alpha=0.92, a=0.3, q=0.1, c=2.0, gamma0=5.0)
MC_PLAN = ExperimentPlan(
    model=UniformQuadraticGauss(0.5),
    schedule=MC_SCHEDULE,
    kernel=EPANECHNIKOV,
    x_points=(0.5,),
    n_list=(100_000,),
    replicates=2000,
    master_seed=20250808,
    r0=0.25,
)

TAIL_SCHEDULE = ScheduleConfig(alpha=0.92, a=0.3, q=0.3, c=0.05, gamma0=0.05)
TAIL_SEEDS = (11, 12, 13, 14, 15)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def closed_rate(t: float) -> float:
    return t * math.asinh(t) - math.sqrt(1.0 + t * t) + 1.0


@pytest.fixture(scope="module")
def bias_run():
    start = time.perf_counter()
    report = run_bias_experiment(MC_PLAN, threads=8)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def variance_run_t1():
    start = time.perf_counter()
    report = run_variance_experiment(MC_PLAN, threads=1)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def variance_run_t8():
    return run_variance_experiment(MC_PLAN, threads=8)


@pytest.fixture(scope="module")
def tail_runs():
    start = time.perf_counter()
    reports = []
    for seed in TAIL_SEEDS:
        plan = ExperimentPlan(
            model=UniformRademacher(),
            schedule=TAIL_SCHEDULE,
            kernel=UNIFORM,
            x_points=(0.5,),
            n_list=(2_000, 10_000, 50_000),
            replicates=2500,
            master_seed=seed,
            tail_thresholds=(0.2,),
        )
        reports.append(run_tail_experiment(plan, threads=8))
    return reports, time.perf_counter() - start


def test_criterion_01_cumulant_closed_form():
    start = time.perf_counter()
    worst = max(
        abs(cumulant(COSH_CTX, float(u)) - (math.cosh(u) - 1.0))
        for u in range(-3, 4)
    )
    elapsed = time.perf_counter() - start
    _report(1, "cumulant cosh reduction", worst < 1e-8 and elapsed < 1.0,
            f"max|err|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_conjugate_duality():
    start = time.perf_counter()
    cached_psi = lru_cache(maxsize=None)(lambda u: cumulant(COSH_CTX, u))
    grid = np.linspace(-4.0, 4.0, 321)
    worst_pair = worst_closed = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        newton = large_deviation_rate(COSH_CTX, t)
        oracle = conjugate_oracle(cached_psi, grid, t)
        worst_pair = max(worst_pair, abs(newton - oracle))
        worst_closed = max(worst_closed, abs(newton - closed_rate(t)))
    elapsed = time.perf_counter() - start
    ok = worst_pair < 1e-6 and worst_closed < 1e-6 and elapsed < 1.0
    _report(2, "conjugate duality",
            ok, f"|newton-oracle|={worst_pair:.2e}, "
                f"|newton-closed|={worst_closed:.2e}, {elapsed:.2f}s")


def test_criterion_03_derivative_checks():
    delta = 1e-5
    worst_d1 = worst_d2 = 0.0
    for u in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
        d1, d2 = cumulant_derivatives(COSH_CTX, u)
        fd1 = (cumulant(COSH_CTX, u + delta)
               - cumulant(COSH_CTX, u - delta)) / (2 * delta)
        up, _ = cumulant_derivatives(COSH_CTX, u + delta)
        dn, _ = cumulant_derivatives(COSH_CTX, u - delta)
        fd2 = (up - dn) / (2 * delta)
        worst_d1 = max(worst_d1, abs(fd1 - d1) / max(1.0, abs(d1)))
        worst_d2 = max(worst_d2, abs(fd2 - d2) / max(1.0, abs(d2)))
    worst_inv = 0.0
    dt = 1e-4
    for t in (0.25, 0.5, 1.0):
        u_star = invert_slope(COSH_CTX, t)
        fd = (large_deviation_rate(COSH_CTX, t + dt)
              - large_deviation_rate(COSH_CTX, t - dt)) / (2 * dt)
        worst_inv = max(worst_inv, abs(fd - u_star) / max(1.0, abs(u_star)))
    ok = worst_d1 < 1e-5 and worst_d2 < 1e-5 and worst_inv < 1e-4
    _report(3, "derivative consistency",
            ok, f"rel err psi'={worst_d1:.2e}, psi''={worst_d2:.2e}, "
                f"I'={worst_inv:.2e}")


def test_criterion_04_centering_and_convexity():
    models = (UniformQuadraticGauss(0.5), UniformRademacher(), ConstantResponse(3.0))
    kernels = (EPANECHNIKOV, UNIFORM, GAUSSIAN)
    worst_center = 0.0
    curvature_ok = True
    checked = 0
    for model in models:
        degenerate = model.cond_var(0.5) == 0.0
        for kernel in kernels:
            for a in (0.25, 0.35):
                for q in (0.05, 0.15):
                    ctx = CumulantContext(model, kernel, a=a, q=q, x=0.5)
                    assert cumulant(ctx, 0.0) == 0.0
                    d1, _ = cumulant_derivatives(ctx, 0.0)
                    worst_center = max(worst_center, abs(d1))
                    for u in (-5.0, -2.0, 0.0, 2.0, 5.0):
                        _, d2 = cumulant_derivatives(ctx, u)
                        if degenerate:
                            curvature_ok &= d2 == 0.0
                        else:
                            curvature_ok &= d2 > 0.0
                    checked += 1
    ok = worst_center < 1e-9 and curvature_ok and checked == 36
    _report(4, "centering and convexity",
            ok, f"{checked} contexts, max|psi'(0)|={worst_center:.2e}, "
                f"curvature sign ok={curvature_ok}")


def test_criterion_05_moderate_rate_values_and_ordering():
    kw = dict(a=0.25, q=0.25, f_x=1.0, cond_var=1.0, kernel=EPANECHNIKOV)
    targets = {
        EstimatorKind.AVERAGED: (4.0 / 3.0) * (1.0 / 0.6) * 0.5,
        EstimatorKind.NADARAYA_WATSON: 1.0 * (1.0 / 0.6) * 0.5,
        EstimatorKind.SEMI_RECURSIVE: 1.25 * (1.0 / 0.6) * 0.5,
    }
    worst = max(
        abs(moderate_rate(kind, **kw, t=1.0) - target)
        for kind, target in targets.items()
    )
    ordering = True
    for a in np.arange(0.05, 0.5, 0.05):
        for t in (1.0, -0.5, 2.0):
            kw_a = dict(a=float(a), q=float(a), f_x=1.0, cond_var=1.0,
                        kernel=EPANECHNIKOV)
            avg = moderate_rate(EstimatorKind.AVERAGED, **kw_a, t=t)
            semi = moderate_rate(EstimatorKind.SEMI_RECURSIVE, **kw_a, t=t)
            nw = moderate_rate(EstimatorKind.NADARAYA_WATSON, **kw_a, t=t)
            ordering &= avg > semi > nw
    _report(5, "moderate rate plug-ins and ordering",
            worst < 1e-9 and ordering,
            f"max plug-in err={worst:.2e}, ordering={ordering}")


def test_criterion_06_rate_at_zero():
    ctx_const = CumulantContext(ConstantResponse(3.0), EPANECHNIKOV,
                                a=0.3, q=0.1, x=0.5)
    got = large_deviation_rate(ctx_const, 0.0)
    err_const = abs(got - (0.9 / 0.7) * 2.0 * 1.0)
    got_zero = large_deviation_rate(COSH_CTX, 0.0)
    ok = err_const < 1e-9 and abs(got_zero) < 1e-9
    _report(6, "rate at zero",
            ok, f"degenerate branch err={err_const:.2e}, "
                f"symmetric branch={got_zero:.2e}")


def test_criterion_07_bias_oracle(bias_run):
    report, elapsed = bias_run
    row = report.rows[0]
    target = row["oracle_ratio"]
    assert math.isclose(target, (0.9 / 0.3) * 0.2, rel_tol=1e-12)
    err = abs(row["bias_ratio"] - target)
    ok = err <= 0.15 * target and elapsed < 600.0
    _report(7, "bias constant (Monte Carlo)",
            ok, f"bias_ratio={row['bias_ratio']:.4f}, target {target:.3f} "
                f"+/-15%, {elapsed:.0f}s")


def test_criterion_08_variance_oracle(variance_run_t1):
    report, elapsed = variance_run_t1
    row = report.rows[0]
    target = row["oracle"]
    assert math.isclose(target, 0.9**2 / 1.1 * 0.25 * 0.6, rel_tol=1e-12)
    err = abs(row["variance_scaled"] - target)
    ok = err <= 0.10 * target and elapsed < 600.0
    _report(8, "variance constant (Monte Carlo)",
            ok, f"variance_scaled={row['variance_scaled']:.5f}, "
                f"target {target:.5f} +/-10%, {elapsed:.0f}s")


def test_criterion_09_fixed_point_exact():
    sched = ScheduleConfig(alpha=0.95, a=0.3, q=0.1, c=1.0, gamma0=1.0)
    state = EstimatorState([0.3, 0.5, 0.7], sched, EPANECHNIKOV, r0=3.0,
                           lanes=4)
    rng = np.random.default_rng(123)
    model = ConstantResponse(3.0)
    for _ in range(10_000):
        xs, ys = model.sample_batch(rng, 4)
        state.update(xs, ys)
    max_err = max(
        float(np.max(np.abs(state.current() - 3.0))),
        float(np.max(np.abs(state.averaged() - 3.0))),
    )
    _report(9, "degenerate fixed point", max_err == 0.0,
            f"max|error| over 1e4 steps = {max_err}")


def test_criterion_10_thread_count_determinism(variance_run_t1, variance_run_t8):
    csv_t1 = render_csv(variance_run_t1[0].columns, variance_run_t1[0].rows)
    csv_t8 = render_csv(variance_run_t8.columns, variance_run_t8.rows)
    _report(10, "thread-count determinism", csv_t1 == csv_t8,
            f"byte-identical CSV: {csv_t1 == csv_t8}")


def test_criterion_11_tail_trend(tail_runs):
    reports, elapsed = tail_runs
    target = closed_rate(0.2)
    decreasing = 0
    total = 0
    details = []
    for report in reports:
        gaps = [abs(row["tail_logprob"] - target) for row in report.rows]
        assert all(not row["zero_exceedances"] for row in report.rows)
        for g0, g1 in zip(gaps, gaps[1:]):
            total += 1
            decreasing += g0 > g1
        details.append("/".join(f"{g:.3f}" for g in gaps))
    ok = decreasing >= math.ceil(2 * total / 3)
    _report(11, "tail gap trend (diagnostic)",
            ok, f"{decreasing}/{total} consecutive pairs decreasing, "
                f"gaps per seed: {'; '.join(details)}, {elapsed:.0f}s")
