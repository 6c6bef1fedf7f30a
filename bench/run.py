#!/usr/bin/env python3
"""Benchmark harness for regrates.

    python3 bench/run.py --workload mc_dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The harness imports the package from the
checkout's ``src/``, builds its inputs from ``--seed``, drives the library's
public functions in a closed loop in this one process for ``--seconds``
seconds, checks every output, and prints one JSON object as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, their times in
reference seconds (see ``calibration_s``). With ``--trace 1``
the harness runs one fixed pass untraced and the same pass traced (see
``tracing.py``) and reports per-layer metrics, whose counts repeat exactly
from run to run. Earlier lines carry the run metadata and a readable copy of
every metric. Workloads and metrics are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy  # the program's dependency, loaded before set-up is timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "out"

WORKLOADS = ("mc_dense", "mc_sparse_tail", "ratefn_table")
MODULES = ("models", "schedules", "kernels", "estimators", "experiments",
           "ratefn", "cli")
SETUP_REPEATS = 5  # before the timed loop; one more follows every timed op
MIN_SAMPLES = 3  # per operation, so each median has an outlier on either side
RATE_RTOL = 1e-8
# Machine-speed calibration (see calibration_s): its iterations, its repeats
# per sample, and its median time on the host the benchmark was defined on
CAL_ITERS = 2000
CAL_REPEATS = 5
CAL_REF_S = 0.015
CAL_LANES = numpy.linspace(-1.0, 1.0, 256)
CAL_NODES = numpy.linspace(-1.0, 1.0, 15)

# name -> unit; the end-to-end metrics of BENCHMARK.json, in order
E2E_METRICS = {"wall_s": "s", "work_items_per_s": "1/s", "peak_rss_mb": "MB",
               "setup_s": "s"}

# Run sizes. "full" is the benchmark; "smoke" only exercises the harness.
SIZES = {
    "full": {"replicates": 512, "n_list": (400, 2000, 8000),
             "t_values": (0.1, 0.5), "gaussian_models": ("uniform_rademacher",)},
    "smoke": {"replicates": 4, "n_list": (5, 10, 20),
              "t_values": (0.1,), "gaussian_models": ()},
}

# Monte Carlo plans: the acceptance schedules (variance and tail criteria)
MC_DENSE_SCHEDULE = dict(alpha=0.92, a=0.3, q=0.1, c=2.0, gamma0=5.0)
MC_TAIL_SCHEDULE = dict(alpha=0.92, a=0.3, q=0.3, c=0.05, gamma0=0.05)
MC_X = (0.5,)
TAIL_THRESHOLDS = (0.2,)

# Rate table: rate_point at x = 0.5 for a = 0.3, q = 0.1
RATE_X, RATE_A, RATE_Q = 0.5, 0.3, 0.1
COMPACT_KERNELS = ("epanechnikov", "uniform")
KERNEL_NAMES = ("epanechnikov", "uniform", "gaussian")
NOISY_MODELS = ("uniform_quadratic_gauss", "uniform_rademacher")
# With a = q the Rademacher law and the uniform kernel give psi(u) = cosh u - 1
COSH_POINT = ("uniform_rademacher", "uniform", 0.25, 0.25, 0.5)
# Lebesgue measure of {K > 0}: constant_response has I(0) = (1-q)/(1-a) * it * f(x)
KERNEL_SUPPORT = {"epanechnikov": 2.0, "uniform": 1.0, "gaussian": math.inf}
# psi = 0 for constant_response, so I(t) = +inf at t > 0, but rate_point
# raises today; these points run once per run, outside the timed body.
PROBE_T = 0.25


@dataclasses.dataclass
class Op:
    key: str
    run: object    # () -> output
    check: object  # output -> failure class or None


def load_package():
    """Import regrates afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "regrates" or m.startswith("regrates.")]:
        del sys.modules[name]
    pkg = importlib.import_module("regrates")
    if Path(pkg.__file__).resolve().parent != SRC / "regrates":
        raise ImportError(f"regrates imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"regrates.{name}") for name in MODULES}
    return argparse.Namespace(**mods)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workload_threads(workload) -> int:
    """Threads an operation of ``workload`` runs on."""
    return 1 if workload == "ratefn_table" else nproc()


# -- Monte Carlo workloads ---------------------------------------------------

def mc_plan(mods, workload, seed, size, hook):
    sched = mods.schedules.ScheduleConfig
    if workload == "mc_dense":
        model, kernel = mods.models.UniformQuadraticGauss(0.5), mods.kernels.EPANECHNIKOV
        extra = dict(schedule=sched(**MC_DENSE_SCHEDULE), r0=0.25)
    else:
        model, kernel = mods.models.UniformRademacher(), mods.kernels.UNIFORM
        extra = dict(schedule=sched(**MC_TAIL_SCHEDULE), tail_thresholds=TAIL_THRESHOLDS)
    return mods.experiments.ExperimentPlan(
        model=model, kernel=hook(kernel), x_points=MC_X, n_list=size["n_list"],
        replicates=size["replicates"], master_seed=seed, **extra)


def nonfinite(report) -> bool:
    """True if a report holds a non-finite number other than the documented
    NaN standard error of a zero-exceedance tail cell."""
    for row in report.rows:
        for col, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                if not (col == "tail_logprob_se" and row.get("zero_exceedances")):
                    return True
    return False


def mc_ops(mods, workload, seed, size, reference, digests, hook):
    """One op: the experiment and its CSV report, which must hash to the
    stored ``reference`` digest, if any, and to every earlier digest."""
    plan = mc_plan(mods, workload, seed, size, hook)
    runner = "run_variance_experiment" if workload == "mc_dense" else "run_tail_experiment"
    threads = workload_threads(workload)

    def run():
        report = getattr(mods.experiments, runner)(plan, threads=threads)
        return report, mods.cli.render_csv(report.columns, report.rows)

    def check(output):
        report, csv = output
        if nonfinite(report):
            return "NonFiniteValue"
        digest = hashlib.sha256(csv.encode()).hexdigest()
        digests.append(digest)
        if reference is not None and digest != reference:
            return "ReferenceMismatch"
        if digest != digests[0]:
            return "NondeterministicOutput"
        return None

    items = size["replicates"] * size["n_list"][-1]
    return [Op(workload, run, check)], items


# -- rate-function workload --------------------------------------------------

def rate_points(size):
    """(model, kernel, a, q, t) for one pass of ratefn_table."""
    points = [(m, k, RATE_A, RATE_Q, t)
              for k in COMPACT_KERNELS for m in NOISY_MODELS for t in size["t_values"]]
    points += [(m, "gaussian", RATE_A, RATE_Q, 0.1) for m in size["gaussian_models"]]
    points += [("constant_response", k, RATE_A, RATE_Q, 0.0) for k in KERNEL_NAMES]
    points.append(COSH_POINT)
    return points


def point_key(point) -> str:
    model, kernel, a, q, t = point
    return f"{model}/{kernel}/a={a}/q={q}/t={t}"


def expected_rate(point, reference):
    """Closed form where the paper gives one, else the stored reference."""
    model, kernel, a, q, t = point
    if point == COSH_POINT:
        return t * math.asinh(t) - math.sqrt(1.0 + t * t) + 1.0
    if model == "constant_response" and t == 0.0:
        return (1.0 - q) / (1.0 - a) * KERNEL_SUPPORT[kernel]  # f = 1 on (0, 1)
    value = reference.get(point_key(point))
    return None if value is None else float(value)


def rate_op(mods, point, expected, hook):
    model, kernel, a, q, t = point
    ctx = mods.ratefn.CumulantContext(mods.models.get_model(model),
                                      hook(mods.kernels.get_kernel(kernel)), a, q, RATE_X)

    def run():
        return mods.ratefn.rate_point(ctx, t)[0]

    def check(value):
        if expected is None:
            return None if math.isfinite(value) and value >= 0.0 else "NonFiniteValue"
        if math.isinf(expected):
            return None if value == expected else "ReferenceMismatch"
        if not math.isclose(value, expected, rel_tol=RATE_RTOL, abs_tol=0.0):
            return "ReferenceMismatch"
        return None

    return Op(point_key(point), run, check)


def ratefn_ops(mods, size, reference, hook):
    ops = [rate_op(mods, p, expected_rate(p, reference), hook) for p in rate_points(size)]
    return ops, len(ops)


def probe_ops(mods):
    return [rate_op(mods, ("constant_response", k, RATE_A, RATE_Q, PROBE_T), math.inf,
                    lambda kern: kern) for k in KERNEL_NAMES]


# -- running -----------------------------------------------------------------

def build(mods, workload, seed, size, reference, digests, hook=lambda kernel: kernel):
    """(ops of one pass, work items per pass)."""
    if workload == "ratefn_table":
        return ratefn_ops(mods, size, reference, hook)
    return mc_ops(mods, workload, seed, size, reference, digests, hook)


def calibration_work(iters) -> float:
    """Fixed work of the program's own kind: arithmetic on 256-lane and
    15-node numpy arrays and Python floats. Uses no regrates code."""
    total = 0.0
    for i in range(iters):
        lanes = numpy.exp(CAL_LANES * (i * 1e-3)) * CAL_LANES
        nodes = CAL_NODES * CAL_NODES + i
        total += float(lanes.sum()) + float(nodes @ nodes) + math.sqrt(i)
    return total


def calibration_s(threads) -> float:
    """Median time of CAL_REPEATS runs of ``calibration_work``, split over
    ``threads`` threads as an operation's blocks are.

    Shared hosts change speed by tens of percent within a minute, for the
    process CPU time as much as for the wall time, and on several threads
    the interpreter lock's hand-offs add their own. A time measured between
    two calibrations is reported in reference seconds, scaled by CAL_REF_S
    over their mean, so such drift cancels while a change in the program's
    own speed does not."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        if threads == 1:
            calibration_work(CAL_ITERS)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(calibration_work, [CAL_ITERS // threads] * threads))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(elapsed, cal_before, cal_after) -> float:
    """``elapsed`` seconds, measured between two calibrations, in reference seconds."""
    return elapsed * 2.0 * CAL_REF_S / (cal_before + cal_after)


def run_op(op):
    """(failure class or None, seconds) of one operation."""
    t0 = perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return type(exc).__name__, perf_counter() - t0
    elapsed = perf_counter() - t0
    return op.check(output), elapsed


def timed_loop(ops, order, seconds, calibrate, between):
    """Cycle through the ops in ``order`` until ``seconds`` have passed and
    every op ran ``MIN_SAMPLES`` times. A calibration from ``calibrate()``
    comes before the first op and after each op, and is passed to
    ``between``, which runs before the next op.
    Returns (pass reference seconds, pass seconds, attempted, failures): a
    pass time is the sum over ops of each op's median time."""
    times = [[] for _ in ops]
    raw = [[] for _ in ops]
    failures = Counter()
    attempted = 0
    start = perf_counter()
    cal = calibrate()
    done = False
    while not done:
        for i in order:
            failure, elapsed = run_op(ops[i])
            cal_after = calibrate()
            times[i].append(scaled(elapsed, cal, cal_after))
            raw[i].append(elapsed)
            attempted += 1
            if failure:
                failures[failure] += 1
            cal = cal_after
            between(cal)
            if (perf_counter() - start >= seconds
                    and min(map(len, times)) >= MIN_SAMPLES):
                done = True
                break

    def pass_s(samples):
        return sum(statistics.median(t) for t in samples)

    return pass_s(times), pass_s(raw), attempted, failures


def single_pass(ops):
    """(seconds, attempted, failures) of running each op once, in order."""
    failures = Counter()
    start = perf_counter()
    for op in ops:
        failure, _ = run_op(op)
        if failure:
            failures[failure] += 1
    return perf_counter() - start, len(ops), failures


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # not a clone; look no further up
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(1 for path in sorted(SRC.rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def emit(meta, metrics, correct, attempted, failed) -> None:
    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness's own test")
    args = parser.parse_args(argv)

    if not (SRC / "regrates" / "__init__.py").is_file():
        print(f"error: no regrates sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    size = SIZES["smoke" if args.smoke else "full"]
    stored = load_reference().get(args.workload, {})
    if args.workload == "ratefn_table":
        reference = stored
    else:  # report digests are stored for the full size only
        reference = None if args.smoke else stored.get(str(args.seed))
    digests = []

    setup_times, setup_raw = [], []

    def calibrate():
        return calibration_s(workload_threads(args.workload))

    def setup(cal):
        """Import the package afresh and build one pass of operations;
        ``cal`` is a calibration taken just before. The timed loop calls
        this between ops, so set-up samples span the run as op samples do."""
        t0 = perf_counter()
        mods = load_package()
        ops, items = build(mods, args.workload, args.seed, size, reference, digests)
        elapsed = perf_counter() - t0
        gc.collect()  # the modules this import replaced
        setup_times.append(scaled(elapsed, cal, cal))
        setup_raw.append(elapsed)
        return mods, ops, items

    for _ in range(SETUP_REPEATS):
        mods, ops, items = setup(calibrate())
    order = random.Random(args.seed).sample(range(len(ops)), len(ops))

    if args.trace:
        from tracing import Tracer

        wall_plain, attempted, failures = single_pass([ops[i] for i in order])
        tracer = Tracer()
        tracer.install(mods)
        try:
            traced, _ = build(mods, args.workload, args.seed, size, reference,
                              digests, hook=tracer.kernel)
            traced = [dataclasses.replace(traced[i], run=tracer.in_run(
                traced[i].key, traced[i].run)) for i in order]
            wall_traced, n, traced_failures = single_pass(traced)
        finally:
            tracer.restore()
        attempted += n
        failures += traced_failures
        metrics = tracer.layer_metrics(wall_traced / wall_plain - 1.0)
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        extra = {"trace_file": str(trace_file.relative_to(ROOT)),
                 "spans": len(tracer.spans), "wall_untraced_s": wall_plain,
                 "wall_traced_s": wall_traced}
    else:
        wall, wall_raw, attempted, failures = timed_loop(
            ops, order, args.seconds, calibrate, setup)
        values = {
            "wall_s": wall,
            "work_items_per_s": items / wall,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: (values[name], unit) for name, unit in E2E_METRICS.items()}
        extra = {("rate_points_per_s" if args.workload == "ratefn_table"
                  else "lane_steps_per_s"): items / wall,
                 "work_items_per_pass": items, "wall_unscaled_s": wall_raw,
                 "setup_unscaled_s": statistics.median(setup_raw)}

    # operations expected to fail today: counted in failed_frac, not timed
    probe_attempted, probe = 0, Counter()
    if args.workload == "ratefn_table":
        _, probe_attempted, probe = single_pass(probe_ops(mods))
    all_failures = failures + probe
    all_attempted = attempted + probe_attempted

    failed = sum(failures.values())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_nonblank_lines": src_lines(),
        "failed_frac": sum(all_failures.values()) / all_attempted,
        "failures_by_class": dict(sorted(all_failures.items())),
        "probe_attempted": probe_attempted,
        "probe_failed": sum(probe.values()),
        **extra,
    }
    if args.workload != "ratefn_table":
        meta["report_sha256"] = digests[0] if digests else None
        meta["reference_sha256"] = reference
    emit(meta, metrics, failed == 0, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
