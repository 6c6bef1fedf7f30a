"""Seeded Monte Carlo harness for the streaming estimators.

Replicates are independent work units: replicate i's observations are
``_stream(model, master_seed, i, n)``, drawn from a generator of its own,
seeded by ``SeedSequence(master_seed, spawn_key=(i,))``; ``estimate`` reads
replicate 0's. Replicates run in fixed blocks of ``BLOCK_LANES`` lanes that
advance in lockstep, one block after another, and the final reduction walks
the replicate axis in index order. Together this makes every report a pure
function of the plan, bit for bit, whatever the threads.

``_stream`` yields ``SAMPLE_CHUNK`` observations at a time (the chunk size
fixes how the generator's draws split between X and Y). A block of lanes
feeds the estimator one segment per call, cut at the tile ends and at the
snapshot sizes, so that a snapshot is taken right after its last step. A
segment gives the same bits as its steps fed one at a time (see
``regrates.estimators``), so the cuts change speed, not results.

The sample buffer is lane-major, ``(2, BLOCK_LANES, SAMPLE_CHUNK +
SAMPLE_PAD)``, so draws land where they are drawn: a pool of draw workers
fills each chunk, each an interleaved share of the ``STAGE_LANES``-replicate
stage groups, each replicate its generator fills (X and the base draws of Y,
see ``regrates.models``) into its own rows, then the law's map at their X
turns ``MAP_ROWS`` replicates' base draws at a time into Y: a whole group's
1 MB temporaries (the Gaussian law's mean x^2) stayed resident in the
workers' malloc arenas, and a map per row cost the two-atom law about 12 us
of call overhead a row. The pad keeps row strides off multiples of 4 KiB:
reads down unpadded 32 KiB rows alias in the L1 cache (copying a chunk's X
and Y out in tiles took 33 ms unpadded, 7 ms padded, on a Xeon core). The
calling thread updates from two step-major ``(2, BLOCK_ROWS, BLOCK_LANES)``
tiles: while it updates one ``BLOCK_ROWS``-step tile, a pool task copies the
next into the other, in one ``np.copyto``. Fills, maps and copies release the
interpreter lock, so the row loop's short calls do not queue behind them. A
failed draw or a Ctrl-C ends the run within the chunk being drawn, a failed
copy at its tile.

A snapshot is the averaged estimate ``avg_n`` alone: it is all the reports
read. The estimators it is compared with in the paper, Nadaraya-Watson and
semi-recursive, live in ``regrates.estimators``.

``run_experiments`` simulates a plan once for every kind it tabulates.
``KINDS`` maps each kind to its row builder, which runs the kind's checks
and oracles and returns its rows at an evaluation point x and sample size
n, collected for each x and, within it, each n. A report's columns are its
rows' keys, so each builder writes its column order once, in its row
literal. Reported quantities per evaluation point x and sample size n:

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
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import BLOCK_ROWS, EstimatorState
from .kernels import Kernel
from .models import Model
from .ratefn import (
    CumulantContext,
    EstimatorKind,
    asymptotic_variance,
    large_deviation_rate,
    quadratic_rate,
)
from .schedules import ScheduleConfig, ValidationError

__all__ = [
    "ExperimentPlan",
    "Report",
    "KINDS",
    "run_experiments",
    "run_bias_experiment",
    "run_variance_experiment",
    "run_tail_experiment",
    "run_mdp_experiment",
]

BLOCK_LANES = 512
SAMPLE_CHUNK = 4096
STAGE_LANES = 32  # replicates a draw worker takes at a time
MAP_ROWS = 8  # replicates whose draws one map turns into Y
SAMPLE_PAD = 8  # doubles past each sample row, against L1 aliasing
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

    def __post_init__(self):
        problems = list(self.schedule.validate().values())
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
        if (v := self.v_exponent) is not None:
            # the moderate scale needs v_n^2/(n h_n) -> 0 and v_n h_n^2 -> 0
            a = self.schedule.a
            if not v > 0:
                problems.append(f"v_exponent {v!r} must be positive")
            if not 2 * v < 1 - a:
                problems.append(f"v_n^2/(n h_n) does not vanish: 2*v = {2 * v:g} "
                                f">= 1 - a = {1 - a:g}")
            if not v < 2 * a:
                problems.append(
                    f"v_n h_n^2 does not vanish: v = {v:g} >= 2*a = {2 * a:g}")
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


def _stream(model: Model, master_seed: int, index: int, n: int):
    """Replicate ``index``'s first n observations, in (X, Y) chunks of ``SAMPLE_CHUNK``."""
    rng = _replicate_rng(master_seed, index)
    return (model.sample_batch(rng, min(SAMPLE_CHUNK, n - start))
            for start in range(0, n, SAMPLE_CHUNK))


def _run_block(plan: ExperimentPlan, rep_lo: int, rep_hi: int, buffers, pool,
               workers: int) -> dict:
    """Run replicates rep_lo..rep_hi-1 in lockstep, each drawing what its
    ``_stream`` yields: {n: (x_points, lanes) avg_n}. ``buffers`` is the
    lane-major (2, BLOCK_LANES, SAMPLE_CHUNK + SAMPLE_PAD) sample buffer for
    the drawn X and Y and the two step-major (2, BLOCK_ROWS, BLOCK_LANES)
    tiles; the draws run on ``workers`` threads of ``pool``."""
    samples, tiles = buffers
    lanes = rep_hi - rep_lo
    rngs = [None] * lanes  # made by the draw workers, at the first chunk
    groups = range(0, lanes, STAGE_LANES)
    workers = min(workers, len(groups))
    # a law's fill is the same at every x, and its map carries the x
    fill = plan.model.cond_law(plan.x_points[0]).fill

    def draw(worker, start):
        # every workers-th stage group: each replicate's two fills into its
        # own rows, then the maps of MAP_ROWS rows at a time
        size = min(SAMPLE_CHUNK, plan.n_list[-1] - start)
        for lo in groups[worker::workers]:
            hi = min(lo + STAGE_LANES, lanes)
            if start == 0:
                rngs[lo:hi] = [_replicate_rng(plan.master_seed, rep_lo + i)
                               for i in range(lo, hi)]
            xs, ys = samples[:, lo:hi, :size]
            for rng, x, y in zip(rngs[lo:hi], xs, ys):
                rng.random(out=x)
                fill(rng, y)
            for i in range(0, hi - lo, MAP_ROWS):
                plan.model.cond_law(xs[i:i + MAP_ROWS]).map(ys[i:i + MAP_ROWS])
        return size

    def copy_tile(pos, drawn):  # steps pos.. of the chunk, step-major
        tile = tiles[pos // BLOCK_ROWS % 2, :, :min(BLOCK_ROWS, drawn - pos), :lanes]
        src = samples[:, :lanes, pos:pos + tile.shape[1]].transpose(0, 2, 1)
        return pool.submit(np.copyto, tile, src), tile

    state = EstimatorState(plan.x_points, plan.schedule, plan.kernel,
                           r0=plan.r0, lanes=lanes, semi_recursive=False)
    snapshots = {}
    pending = list(plan.n_list)
    for start in range(0, plan.n_list[-1], SAMPLE_CHUNK):
        # every share draws the same size; a failed draw raises here
        drawn = max(pool.map(draw, range(workers), [start] * workers))
        copy = copy_tile(0, drawn)
        for pos in range(0, drawn, BLOCK_ROWS):
            done, (x_tile, y_tile) = copy
            done.result()  # a failed copy raises here
            if pos + BLOCK_ROWS < drawn:  # the next tile, while this one updates
                copy = copy_tile(pos + BLOCK_ROWS, drawn)
            row = 0
            while row < len(x_tile):  # cut at the snapshot sizes
                m = min(len(x_tile) - row, pending[0] - state.n)
                state.update(x_tile[row:row + m], y_tile[row:row + m])
                row += m
                if state.n == pending[0]:
                    snapshots[pending.pop(0)] = state.averaged()
    return snapshots


def _cores() -> int:
    # the cores this process may run on, as taskset or a cpuset limits them;
    # more worker threads than cores only take turns at the interpreter lock
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate(plan: ExperimentPlan, threads: int = 1) -> dict:
    """Per sample size n: the (x_points, replicates) matrix of avg_n."""
    # one padded sample buffer (32 MiB) and two tiles (2 MiB), allocated here:
    # in the worker threads they could stay resident in each thread's malloc
    # arena, and the peak memory varied by 17 MB per run
    groups = math.ceil(min(BLOCK_LANES, plan.replicates) / STAGE_LANES)
    workers = max(1, min(threads, _cores(), groups))
    buffers = (np.empty((2, BLOCK_LANES, SAMPLE_CHUNK + SAMPLE_PAD)),
               np.empty((2, 2, BLOCK_ROWS, BLOCK_LANES)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = [_run_block(plan, lo, min(lo + BLOCK_LANES, plan.replicates),
                              buffers, pool, workers)
                   for lo in range(0, plan.replicates, BLOCK_LANES)]
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


def _bias_rows(plan: ExperimentPlan):
    sched = plan.schedule
    denom = 1.0 - sched.q - 2.0 * sched.a  # positive on the admissible region

    def rows_at(x, n, avg):
        h = sched.bandwidth(n)
        mean, se = _mean_se(avg - plan.model.regression(x))
        return [{"x": x, "n": n, "h_n": h,
                 "mean_error": mean, "se_mean": se,
                 "bias_ratio": mean / h**2, "bias_ratio_se": se / h**2,
                 "oracle_ratio": (1.0 - sched.q) / denom
                 * plan.model.curvature(x) * plan.kernel.second_moment}]

    return rows_at


def _variance_rows(plan: ExperimentPlan):
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

    return rows_at


def _expected_exceedances(plan: ExperimentPlan, x: float, n: int, t: float) -> float:
    sched = plan.schedule
    sigma2 = _sigma2(plan, x)
    if sigma2 <= 0:
        return 0.0
    z = t * math.sqrt(n * sched.bandwidth(n) / sigma2)
    return plan.replicates * 0.5 * math.erfc(z / math.sqrt(2.0))


def _tail_rows(plan: ExperimentPlan):
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
        x: CumulantContext(plan.model, plan.kernel, sched.a, sched.q, x)
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

    return rows_at


def _mdp_rows(plan: ExperimentPlan):
    sched = plan.schedule
    v = plan.v_exponent
    if v is None:
        raise ValidationError("mdp experiment needs v_exponent")
    oracle_sigma2 = {x: _sigma2(plan, x) for x in plan.x_points}
    # J(1) past the float range ends the run before it starts
    oracle_rate = {x: quadratic_rate(s2, 1.0) for x, s2 in oracle_sigma2.items()}

    def rows_at(x, n, avg):
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
                 "oracle_sigma2": oracle_sigma2[x],
                 "skewness": skew, "excess_kurtosis": kurt,
                 "implied_rate_t1": quadratic_rate(implied_sigma2, 1.0),
                 "oracle_rate_t1": oracle_rate[x]}]

    return rows_at


KINDS = {"bias": _bias_rows, "variance": _variance_rows,
         "tail": _tail_rows, "mdp": _mdp_rows}


def run_experiments(plan: ExperimentPlan, kinds, threads: int = 1) -> dict:
    """{kind: Report} for each of ``kinds``, from one simulation run after
    every kind's checks. The meta is empty: the caller holds the settings."""
    builders = {kind: KINDS[kind](plan) for kind in kinds}
    sims = _simulate(plan, threads)
    return {kind: Report({}, [row for ix, x in enumerate(plan.x_points)
                              for n in plan.n_list
                              for row in rows_at(x, n, sims[n][ix])])
            for kind, rows_at in builders.items()}


# one kind per run; bench/run.py calls these and bench/tracing.py wraps them by name
def run_bias_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    return run_experiments(plan, ["bias"], threads)["bias"]


def run_variance_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    return run_experiments(plan, ["variance"], threads)["variance"]


def run_tail_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    return run_experiments(plan, ["tail"], threads)["tail"]


def run_mdp_experiment(plan: ExperimentPlan, threads: int = 1) -> Report:
    return run_experiments(plan, ["mdp"], threads)["mdp"]
