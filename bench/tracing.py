"""Outside-in tracing of the regrates layers.

The tracer wraps public functions of the package's modules from outside the
package, patching each name where the package looks it up, and records:

* spans for calls that have children of their own (experiment calls, block
  scheduling and reduction, the estimator update, quadrature, the rate
  function calls, CSV rendering). Spans are kept in memory and written out
  at the end;
* aggregate counts, busy time and element counts for leaf calls (kernel,
  schedule, sampling, snapshot and tilted-moment evaluations). A rate table
  makes millions of these, too many to keep one by one. A leaf's time is
  charged to the open span on its own thread, so span self times stay exact.

Every span carries the id of the run it belongs to. A span opened on a worker
thread with nothing open on that thread takes as parent the innermost open
span of the thread that started the run. A span's self time is its duration
minus the union of its child spans' intervals, across threads, minus the
time of its leaf calls.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import os
import statistics
import threading
from collections import defaultdict
from time import perf_counter, thread_time

import numpy as np

# name -> unit; the per-layer metrics of BENCHMARK.json, in order
LAYER_METRICS = {
    "schedules.calls": "count",
    "schedules.busy_s": "s",
    "schedules.ns_per_lane_step": "ns",
    "schedules.share_of_update": "ratio",
    "estimators.lane_steps": "count",
    "estimators.update.calls": "count",
    "estimators.update.busy_s": "s",
    "estimators.update.self_s": "s",
    "estimators.ns_per_lane_step": "ns",
    "estimators.snapshot.busy_s": "s",
    "models.sample_batch.calls": "count",
    "models.sample_batch.samples": "count",
    "models.sample_batch.busy_s": "s",
    "models.ns_per_sample": "ns",
    "kernels.fn.calls": "count",
    "kernels.fn.elements": "count",
    "kernels.fn.busy_s": "s",
    "kernels.ns_per_element": "ns",
    "experiments.self_s": "s",
    "experiments.parallelism": "ratio",
    "experiments.block_wait_frac": "ratio",
    "quadrature.integrate_1d.outer_calls": "count",
    "quadrature.integrate_1d.inner_calls": "count",
    "quadrature.integrate_1d.inner_per_point": "count",
    "quadrature.self_s": "s",
    "ratefn.numeric_points": "count",
    "ratefn.newton_iters": "count",
    "ratefn.newton_iters_per_point": "count",
    "ratefn.cumulant.calls": "count",
    "ratefn.moment.busy_s": "s",
    "ratefn.self_s": "s",
    "ratefn.rate_point.epanechnikov.median_s": "s",
    "ratefn.rate_point.uniform.median_s": "s",
    "ratefn.rate_point.gaussian.median_s": "s",
    "ratefn.large_deviation_rate.busy_s": "s",
    "cli.render_csv.busy_s": "s",
    "trace.overhead_frac": "ratio",
}


def _process_cpu() -> float:
    """CPU seconds of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Span:
    __slots__ = ("name", "tag", "parent", "run", "thread", "t0", "t1",
                 "leaf_s", "cpu_s")

    def __init__(self, name, tag, parent, run, thread):
        self.name = name
        self.tag = tag
        self.parent = parent
        self.run = run
        self.thread = thread
        self.t0 = self.t1 = 0.0
        self.leaf_s = 0.0
        self.cpu_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._leaf_tables: list[dict] = []
        self._lock = threading.Lock()
        self._run = None
        self._root: list[Span] | None = None
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.leaves
        except AttributeError:
            local.stack, local.leaves = [], {}
            with self._lock:
                self._leaf_tables.append(local.leaves)
            return local.stack, local.leaves

    def in_run(self, run_id, fn):
        """``fn`` with every span it opens tagged ``run_id``; worker threads
        attach their outermost spans to the caller's innermost open span."""
        def call():
            stack, _ = self._thread_state()
            self._run, self._root = run_id, stack
            try:
                return fn()
            finally:
                self._run = self._root = None
        return call

    def span(self, name, fn, tag=None, cpu=None):
        """Record a span per call; ``cpu``, a clock in seconds, adds the
        CPU time it measures across the call."""
        def wrapper(*args, **kwargs):
            stack, _ = self._thread_state()
            root = self._root
            parent = stack[-1] if stack else (root[-1] if root else None)
            s = Span(name, tag(*args, **kwargs) if tag else None, parent,
                     self._run, threading.get_ident())
            stack.append(s)
            cpu0 = cpu() if cpu else 0.0
            s.t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                s.t1 = perf_counter()
                if cpu:
                    s.cpu_s = cpu() - cpu0
                stack.pop()
                self.spans.append(s)
        return functools.wraps(fn)(wrapper)

    def leaf(self, name, fn, size=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack, leaves = self._thread_state()
                parent = stack[-1] if stack else None
                key = (name, parent.name if parent else None)
                entry = leaves.get(key)
                if entry is None:
                    entry = leaves[key] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += dt
                if size is not None:
                    entry[2] += size(*args, **kwargs)
                if parent is not None:
                    parent.leaf_s += dt
        return functools.wraps(fn)(wrapper)

    def kernel(self, kernel):
        """The kernel with its ``fn`` traced, for building traced plans."""
        fn = self.leaf("kernels.fn", kernel.fn, size=lambda z: int(np.size(z)))
        return dataclasses.replace(kernel, fn=fn)

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, wrap):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, mods):
        """Wrap the public functions of every layer; ``restore`` undoes it."""
        ex, est, rf = mods.experiments, mods.estimators, mods.ratefn
        for name in ("run_bias_experiment", "run_variance_experiment",
                     "run_tail_experiment", "run_mdp_experiment"):
            self.patch(ex, name, lambda f, n=name: self.span(f"experiments.{n}", f))
        self.patch(ex, "_simulate",
                   lambda f: self.span("experiments._simulate", f, cpu=_process_cpu))
        self.patch(ex, "_run_block",
                   lambda f: self.span("experiments._run_block", f, cpu=thread_time))
        # experiments imports large_deviation_rate by name
        self.patch(ex, "large_deviation_rate",
                   lambda f: self.span("ratefn.large_deviation_rate", f))

        self.patch(est.EstimatorState, "update",
                   lambda f: self.span("estimators.update", f,
                                       tag=lambda st, x, y: int(np.size(x))))
        for name in ("averaged", "current", "semi_recursive"):
            self.patch(est.EstimatorState, name,
                       lambda f: self.leaf("estimators.snapshot", f))
        self.patch(est, "nadaraya_watson",
                   lambda f: self.leaf("estimators.nadaraya_watson", f))

        for name in ("stepsize", "bandwidth", "weight"):
            self.patch(mods.schedules.ScheduleConfig, name,
                       lambda f, n=name: self.leaf(f"schedules.{n}", f))
        for cls in vars(mods.models).values():
            if isinstance(cls, type) and "sample_batch" in vars(cls):
                self.patch(cls, "sample_batch",
                           lambda f: self.leaf("models.sample_batch", f,
                                               size=lambda m, rng, n: int(n)))

        # ratefn imports integrate_1d by name
        self.patch(rf, "integrate_1d", lambda f: self.span("quadrature.integrate_1d", f))
        self.patch(rf, "rate_point",
                   lambda f: self.span("ratefn.rate_point", f,
                                       tag=lambda ctx, t: ctx.kernel.name))
        for name in ("invert_slope", "cumulant", "cumulant_derivatives",
                     "large_deviation_rate"):
            self.patch(rf, name, lambda f, n=name: self.span(f"ratefn.{n}", f))
        self.patch(rf._TiltedMoments, "moment", lambda f: self.leaf("ratefn.moment", f))

        self.patch(mods.cli, "render_csv", lambda f: self.span("cli.render_csv", f))

    # -- analysis ---------------------------------------------------------

    def _leaf_totals(self):
        totals = defaultdict(lambda: [0, 0.0, 0])
        for table in self._leaf_tables:
            for key, (calls, busy, elements) in table.items():
                entry = totals[key]
                entry[0] += calls
                entry[1] += busy
                entry[2] += elements
        return totals

    def self_times(self) -> dict:
        """id(span) -> self time in seconds."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.t0, s.t1))
        out = {}
        for s in self.spans:
            covered = _union_length(children.get(id(s), ())) + s.leaf_s
            out[id(s)] = max(0.0, (s.t1 - s.t0) - covered)
        return out

    def layer_metrics(self, overhead_frac: float) -> dict:
        spans = self.spans
        selfs = self.self_times()
        by_name = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
        leaves = self._leaf_totals()

        def leaf(prefix, parent=None):
            calls = busy = elements = 0
            for (name, par), (c, b, e) in leaves.items():
                if name.startswith(prefix) and (parent is None or par == parent):
                    calls, busy, elements = calls + c, busy + b, elements + e
            return calls, busy, elements

        def self_of(prefix):
            return sum(selfs[id(s)] for s in spans if s.name.startswith(prefix))

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        updates = by_name["estimators.update"]
        lane_steps = sum(s.tag for s in updates)
        update_busy = sum(s.t1 - s.t0 for s in updates)
        sch_calls, sch_busy, _ = leaf("schedules.")
        _, sch_in_update, _ = leaf("schedules.", parent="estimators.update")
        smp_calls, smp_busy, samples = leaf("models.sample_batch")
        k_calls, k_busy, k_elems = leaf("kernels.fn")
        _, snap_busy, _ = leaf("estimators.snapshot")
        _, mom_busy, _ = leaf("ratefn.moment")

        sims = by_name["experiments._simulate"]
        sim_wall = sum(s.t1 - s.t0 for s in sims)
        blocks = by_name["experiments._run_block"]
        block_wall = sum(s.t1 - s.t0 for s in blocks)

        integrals = by_name["quadrature.integrate_1d"]
        inner = sum(1 for s in integrals
                    if s.parent is not None and s.parent.name == "quadrature.integrate_1d")
        points = len(by_name["ratefn.invert_slope"])
        newton = sum(1 for s in by_name["ratefn.cumulant_derivatives"]
                     if s.parent is not None and s.parent.name == "ratefn.invert_slope")
        numeric = {id(s.parent) for s in by_name["ratefn.invert_slope"]}
        point_times = defaultdict(list)
        for s in by_name["ratefn.rate_point"]:
            if id(s) in numeric:
                point_times[s.tag].append(s.t1 - s.t0)

        def median_point(kernel):
            times = point_times.get(kernel)
            return statistics.median(times) if times else 0.0

        values = {
            "schedules.calls": sch_calls,
            "schedules.busy_s": sch_busy,
            "schedules.ns_per_lane_step": per(sch_busy, lane_steps, 1e9),
            "schedules.share_of_update": per(sch_in_update, update_busy),
            "estimators.lane_steps": lane_steps,
            "estimators.update.calls": len(updates),
            "estimators.update.busy_s": update_busy,
            "estimators.update.self_s": self_of("estimators.update"),
            "estimators.ns_per_lane_step": per(self_of("estimators.update"), lane_steps, 1e9),
            "estimators.snapshot.busy_s": snap_busy,
            "models.sample_batch.calls": smp_calls,
            "models.sample_batch.samples": samples,
            "models.sample_batch.busy_s": smp_busy,
            "models.ns_per_sample": per(smp_busy, samples, 1e9),
            "kernels.fn.calls": k_calls,
            "kernels.fn.elements": k_elems,
            "kernels.fn.busy_s": k_busy,
            "kernels.ns_per_element": per(k_busy, k_elems, 1e9),
            "experiments.self_s": self_of("experiments."),
            "experiments.parallelism": per(sum(s.cpu_s for s in sims), sim_wall),
            "experiments.block_wait_frac": 1.0 - per(sum(s.cpu_s for s in blocks),
                                                     block_wall) if blocks else 0.0,
            "quadrature.integrate_1d.outer_calls": len(integrals) - inner,
            "quadrature.integrate_1d.inner_calls": inner,
            "quadrature.integrate_1d.inner_per_point": per(inner, points),
            "quadrature.self_s": self_of("quadrature."),
            "ratefn.numeric_points": points,
            "ratefn.newton_iters": newton,
            "ratefn.newton_iters_per_point": per(newton, points),
            "ratefn.cumulant.calls": len(by_name["ratefn.cumulant"]),
            "ratefn.moment.busy_s": mom_busy,
            "ratefn.self_s": self_of("ratefn.") + mom_busy,
            "ratefn.rate_point.epanechnikov.median_s": median_point("epanechnikov"),
            "ratefn.rate_point.uniform.median_s": median_point("uniform"),
            "ratefn.rate_point.gaussian.median_s": median_point("gaussian"),
            "ratefn.large_deviation_rate.busy_s": sum(
                s.t1 - s.t0 for s in by_name["ratefn.large_deviation_rate"]),
            "cli.render_csv.busy_s": sum(s.t1 - s.t0 for s in by_name["cli.render_csv"]),
            "trace.overhead_frac": overhead_frac,
        }
        return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}

    def write(self, path) -> None:
        """Spans as JSON lines: name, tag, parent index, run, thread, t0, t1, self."""
        selfs = self.self_times()
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for s in self.spans:
                parent = index.get(id(s.parent)) if s.parent is not None else None
                handle.write(json.dumps([s.name, s.tag, parent, s.run, s.thread,
                                         s.t0, s.t1, selfs[id(s)]]) + "\n")
            for (name, parent), (calls, busy, elements) in sorted(
                    self._leaf_totals().items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
                handle.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                         "busy_s": busy, "elements": elements}) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
