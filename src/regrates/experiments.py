"""Seeded Monte Carlo harness for the streaming estimators.

Replicates are independent work units: replicate i draws its observations
from ``default_rng(SeedSequence(master_seed, spawn_key=(i,)))``, so its
stream depends only on (master_seed, i). Replicates are processed in fixed
blocks of ``BLOCK_LANES`` lanes that advance in lockstep through the
recursion; worker threads pick up whole blocks and the final reduction walks
the replicate axis in index order. Together this makes every report a pure
function of the plan, bit for bit, whatever the thread count.

Each replicate draws its stream ``SAMPLE_CHUNK`` observations at a time (the
chunk size fixes how the generator's draws split between X and Y). A block
of lanes feeds the estimator one segment per call, cut at the chunk ends and
at the snapshot sizes, so that a snapshot is taken right after its last step;
``EstimatorState.update`` makes the row cut. A segment gives the same bits as
its steps fed one at a time (see ``regrates.estimators``), so the cuts change
speed, not results.

The sample buffer is step-major, ``(2, SAMPLE_CHUNK, lanes)``, so that a
segment is one contiguous slice. Writing a replicate's draws down its column
would put each value in its own cache line, so ``STAGE_LANES`` replicates at
a time draw into the rows of a lane-major stage buffer, and one transposed
assignment copies the group into the sample buffer.

A snapshot is the averaged estimate ``avg_n`` alone: it is all the reports
read. The estimators it is compared with in the paper, Nadaraya-Watson and
semi-recursive, live in ``regrates.estimators``.

Every experiment is one table loop, ``_tabulate``: simulate once, then
collect a runner's rows for each evaluation point x and, within it, each
sample size n. A report's columns are its rows' keys, so each runner writes
its column order once, in its row literal. Reported quantities per
evaluation point x and sample size n:

  * bias:      mean of (avg_n(x) - r(x)) and its ratio to h_n^2, against the
               oracle (1-q)/(1-q-2a) * m2(x)
  * variance:  n h_n * Var[avg_n(x)], against the oracle
               (1-q)^2/(1+a-2q) * Var[Y|X=x] * intK2 / f(x)
  * tail:      -log(exceedance frequency)/(n h_n) per threshold, paired with
               the large-deviation rate at that threshold
  * mdp:       sample variance of n^v (avg_n(x) - r(x)) rescaled to the
               implied Gaussian variance, against the same variance oracle
"""

from __future__ import annotations

import math
import os
import queue
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorState
from .kernels import Kernel
from .models import Model
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .ratefn import (
    CumulantContext,
    EstimatorKind,
    asymptotic_variance,
    large_deviation_rate,
)
from .schedules import ScheduleConfig, ValidationError

__all__ = [
    "ExperimentPlan",
    "Report",
    "run_bias_experiment",
    "run_variance_experiment",
    "run_tail_experiment",
    "run_mdp_experiment",
]

BLOCK_LANES = 256
SAMPLE_CHUNK = 4096
STAGE_LANES = 32  # replicates drawn into the stage buffer before each copy
X_INTERIOR = (0.2, 0.8)


def seed_problem(seed) -> str | None:
    """Why ``seed`` cannot seed a run, or None: the one seed check of the
    plan and of the command line."""
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return None
    return f"seed must be a nonnegative integer ([run] seed or --seed), got {seed!r}"


@dataclass(frozen=True)
class ExperimentPlan:
    """One seeded Monte Carlo run; building it checks the run's shape."""

    model: Model
    schedule: ScheduleConfig
    kernel: Kernel
    x_points: tuple[float, ...]
    n_list: tuple[int, ...]
    replicates: int
    master_seed: int
    r0: float = 0.0
    v_exponent: float | None = None
    tail_thresholds: tuple[float, ...] = ()
    two_sided: bool = False
    quad: QuadratureSpec = DEFAULT_SPEC

    def __post_init__(self):
        problems = [v.message for v in self.schedule.validate()]
        if problem := seed_problem(self.master_seed):
            problems.append(problem)
        if self.replicates < 2:
            problems.append("replicates must be at least 2")
        if not self.x_points:
            problems.append("need at least one evaluation point")
        lo, hi = X_INTERIOR
        for x in self.x_points:
            if not lo < x < hi:
                problems.append(
                    f"evaluation point {x!r} outside the interior window ({lo}, {hi})"
                )
        if not self.n_list or any(
            b <= a for a, b in zip(self.n_list, self.n_list[1:])
        ):
            problems.append("n_list must be nonempty and strictly increasing")
        if any(n < 1 for n in self.n_list):
            problems.append("sample sizes must be positive")
        if any(not t > 0 for t in self.tail_thresholds):
            # a row counts err >= t against the upper-tail rate I(t)
            problems.append(
                f"tail_thresholds must be positive, got {self.tail_thresholds}")
        if problems:
            raise ValidationError("; ".join(problems))


@dataclass
class Report:
    """A table: one dict per row, and free-form ``meta`` for the JSON
    summary. The columns are the first row's keys, in order."""

    meta: dict
    rows: list[dict]

    @property
    def columns(self) -> list[str]:
        return list(self.rows[0])


def _replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _run_block(plan: ExperimentPlan, rep_lo: int, rep_hi: int, buffers) -> dict:
    """Run replicates rep_lo..rep_hi-1 in lockstep: {n: (x_points, lanes)
    avg_n}. ``buffers`` is a (2, SAMPLE_CHUNK, BLOCK_LANES) sample buffer for
    the drawn X and Y and a (2, STAGE_LANES, SAMPLE_CHUNK) stage buffer to
    draw into. ``update`` cuts each segment into row blocks."""
    chunk, stage = buffers
    lanes = rep_hi - rep_lo
    gens = [_replicate_rng(plan.master_seed, i) for i in range(rep_lo, rep_hi)]
    state = EstimatorState(plan.x_points, plan.schedule, plan.kernel,
                           r0=plan.r0, lanes=lanes, semi_recursive=False)
    snapshots = {}
    pending = list(plan.n_list)
    x_chunk, y_chunk = chunk[:, :, :lanes]
    pos = drawn = 0  # rows of the chunk consumed and drawn
    while pending:
        if pos == drawn:
            drawn = min(SAMPLE_CHUNK, plan.n_list[-1] - state.n)
            for lo in range(0, lanes, STAGE_LANES):
                group = gens[lo:lo + STAGE_LANES]
                for j, gen in enumerate(group):
                    stage[0, j, :drawn], stage[1, j, :drawn] = \
                        plan.model.sample_batch(gen, drawn)
                chunk[:, :drawn, lo:lo + len(group)] = \
                    stage[:, :len(group), :drawn].transpose(0, 2, 1)
            pos = 0
        m = min(drawn - pos, pending[0] - state.n)
        state.update(x_chunk[pos:pos + m], y_chunk[pos:pos + m])
        pos += m
        if state.n == pending[0]:
            snapshots[pending.pop(0)] = state.averaged()
    return snapshots


def _cores() -> int:
    # more worker threads than cores only take turns at the interpreter lock
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate(plan: ExperimentPlan, threads: int = 1) -> dict:
    """Per sample size n: the (x_points, replicates) matrix of avg_n."""
    blocks = [
        (lo, min(lo + BLOCK_LANES, plan.replicates))
        for lo in range(0, plan.replicates, BLOCK_LANES)
    ]
    # One sample buffer (16 MB at 256 lanes) and one stage buffer (2 MB) per
    # worker, allocated here and lent to one block at a time. Buffers
    # allocated in the worker threads could stay resident in each thread's
    # malloc arena after the block, so the peak memory of a process varied
    # by 17 MB from run to run.
    workers = max(1, min(threads, len(blocks), _cores()))
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put((np.empty((2, SAMPLE_CHUNK, BLOCK_LANES)),
                     np.empty((2, STAGE_LANES, SAMPLE_CHUNK))))

    def run(block):
        lent = buffers.get()
        try:
            return _run_block(plan, *block, lent)
        finally:
            buffers.put(lent)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(b) for b in blocks]
    return {n: np.concatenate([res[n] for res in results], axis=1)
            for n in plan.n_list}


def _sigma2(plan: ExperimentPlan, x: float) -> float:
    """The averaged estimator's asymptotic variance at x, the limit of
    n h_n Var[avg_n(x)]."""
    return asymptotic_variance(EstimatorKind.AVERAGED, plan.schedule.a,
                               plan.schedule.q, plan.model.density(x),
                               plan.model.cond_var(x), plan.kernel)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return mean, se


def _tabulate(plan: ExperimentPlan, threads: int, rows_at) -> Report:
    """Simulate once, then ``rows_at(x, n, avg)`` for each evaluation point x
    and, within it, each sample size n, where ``avg`` holds the replicates'
    avg_n(x). The meta is empty: the caller holds the run's settings."""
    sims = _simulate(plan, threads)
    rows = [row for ix, x in enumerate(plan.x_points) for n in plan.n_list
            for row in rows_at(x, n, sims[n][ix])]
    return Report({}, rows)


def run_bias_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    sched = plan.schedule
    denom = 1.0 - sched.q - 2.0 * sched.a  # positive on the admissible region

    def rows_at(x, n, avg):
        h = sched.bandwidth(n)
        mean, se = _mean_se(avg - plan.model.regression(x))
        return [{"x": x, "n": n, "h_n": h,
                 "mean_error": mean, "se_mean": se,
                 "bias_ratio": mean / h**2, "bias_ratio_se": se / h**2,
                 "oracle_ratio": (1.0 - sched.q) / denom
                 * plan.model.curvature(x, plan.kernel)}]

    return _tabulate(plan, threads, rows_at)


def run_variance_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    sched = plan.schedule

    def rows_at(x, n, avg):
        h = sched.bandwidth(n)
        var = float(np.var(avg, ddof=1))
        scaled = n * h * var
        return [{"x": x, "n": n, "h_n": h, "sample_var": var,
                 "variance_scaled": scaled,
                 # normal-theory standard error of a sample variance
                 "variance_scaled_se": scaled * math.sqrt(2.0 / (avg.size - 1)),
                 "oracle": _sigma2(plan, x)}]

    return _tabulate(plan, threads, rows_at)


def _expected_exceedances(plan: ExperimentPlan, x: float, n: int, t: float) -> float:
    sched = plan.schedule
    sigma2 = _sigma2(plan, x)
    if sigma2 <= 0:
        return 0.0
    z = t * math.sqrt(n * sched.bandwidth(n) / sigma2)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    if plan.two_sided:
        p *= 2.0
    return plan.replicates * p


def run_tail_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    """Empirical tail exponents -log(freq)/(n h_n) per threshold, beside the
    numeric large-deviation rate for the plan's model and exponents. Cells
    with zero exceedances report log(replicates)/(n h_n), a lower bound on
    the exponent, and are flagged.
    """
    if not plan.tail_thresholds:
        raise ValidationError("tail experiment needs tail_thresholds")
    sched = plan.schedule
    smallest = plan.n_list[0]
    for x in plan.x_points:
        for t in plan.tail_thresholds:
            expected = _expected_exceedances(plan, x, smallest, t)
            if expected < 10:
                warnings.warn(
                    f"threshold {t} at n={smallest} expects ~{expected:.1f} "
                    "exceedances; the tail cell will be noisy",
                    stacklevel=2,
                )
    contexts = {
        x: CumulantContext(plan.model, plan.kernel, sched.a, sched.q, x, plan.quad)
        for x in plan.x_points
    }
    rate_values = {
        (x, t): large_deviation_rate(contexts[x], t)
        for x in plan.x_points for t in plan.tail_thresholds
    }

    def rows_at(x, n, avg):
        nh = n * sched.bandwidth(n)
        err = avg - plan.model.regression(x)
        rows = []
        for t in plan.tail_thresholds:
            if plan.two_sided:
                count = int(np.count_nonzero(np.abs(err) >= t))
            else:
                count = int(np.count_nonzero(err >= t))
            zero = count == 0
            if zero:
                logprob = math.log(plan.replicates) / nh  # lower bound
                se = math.nan
            else:
                freq = count / plan.replicates
                logprob = -math.log(freq) / nh
                se = math.sqrt((1.0 - freq) / count) / nh
            rows.append({"x": x, "n": n, "threshold": t, "count": count,
                         "freq": count / plan.replicates,
                         "tail_logprob": logprob, "tail_logprob_se": se,
                         "oracle_rate": rate_values[(x, t)],
                         "zero_exceedances": zero})
        return rows

    return _tabulate(plan, threads, rows_at)


def run_mdp_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    sched = plan.schedule
    a, v = sched.a, plan.v_exponent
    if v is None:
        raise ValidationError("mdp experiment needs v_exponent")
    problems = []
    if not v > 0:
        problems.append(f"v_exponent {v!r} must be positive")
    if not 2 * v < 1 - a:
        problems.append(f"v_n^2/(n h_n) does not vanish: 2*v = {2 * v:g} "
                        f">= 1 - a = {1 - a:g}")
    if not v < 2 * a:
        problems.append(f"v_n h_n^2 does not vanish: v = {v:g} >= 2*a = {2 * a:g}")
    if problems:
        raise ValidationError("; ".join(problems))

    def rows_at(x, n, avg):
        oracle_sigma2 = _sigma2(plan, x)
        v_n = float(n) ** v
        nh = n * sched.bandwidth(n)
        scaled = v_n * (avg - plan.model.regression(x))
        s2 = float(np.var(scaled, ddof=1))
        centered = scaled - np.mean(scaled)
        sd = math.sqrt(s2) if s2 > 0 else math.nan
        skew = float(np.mean(centered**3)) / sd**3 if s2 > 0 else math.nan
        kurt = float(np.mean(centered**4)) / sd**4 - 3.0 if s2 > 0 else math.nan
        implied_sigma2 = s2 * nh / v_n**2
        return [{"x": x, "n": n, "v_n": v_n,
                 "sample_var_scaled": s2,
                 "implied_sigma2": implied_sigma2,
                 "oracle_sigma2": oracle_sigma2,
                 "skewness": skew, "excess_kurtosis": kurt,
                 "implied_rate_t1":
                     0.5 / implied_sigma2 if implied_sigma2 > 0 else math.inf,
                 "oracle_rate_t1":
                     0.5 / oracle_sigma2 if oracle_sigma2 > 0 else math.inf}]

    return _tabulate(plan, threads, rows_at)
