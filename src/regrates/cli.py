"""Command line entry point, config parsing, and CSV/JSON emission.

Config files are flat INI-style key/value documents; every key can be
overridden by the matching command line flag. All floats are written with 10
significant digits and LF line endings so that a given report always renders
to identical bytes.

Exit codes: 0 ok, 2 config/validation problem, 3 numeric non-convergence,
4 I/O failure. Failures print a single ``error[<class>]: message`` line to
stderr.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import experiments
from .estimators import EstimatorState, nadaraya_watson
from .kernels import KERNELS, get_kernel
from .models import MODEL_NAMES, get_model
from .quadrature import NonConvergenceError, QuadratureSpec
from .ratefn import (
    CumulantContext,
    EstimatorKind,
    RootNotBracketedError,
    moderate_rate,
    rate_point,
)
from .schedules import ScheduleConfig, ValidationError, validate_exponents

__all__ = ["RunConfig", "ParseError", "parse_config", "config_to_text",
           "emit_report", "render_csv", "render_json", "main"]


class ParseError(ValueError):
    """Malformed config document or unresolvable name."""


@dataclass(frozen=True)
class RunConfig:
    schedule: ScheduleConfig = ScheduleConfig()
    kernel_name: str = "epanechnikov"
    model_name: str = "uniform_quadratic_gauss"
    sigma: float = 0.5
    y_const: float = 3.0
    seed: int | None = None
    replicates: int = 2000
    n_list: tuple[int, ...] = (1000, 10000, 100000)
    x_points: tuple[float, ...] = (0.5,)
    r0: float = 0.0
    v_exponent: float | None = None
    tail_thresholds: tuple[float, ...] = ()
    two_sided: bool = False
    threads: int = 1
    quad: QuadratureSpec = QuadratureSpec()
    tolerances: dict = field(default_factory=lambda: {"bias_ratio": 0.15,
                                                      "variance": 0.10})

    def kernel(self):
        return get_kernel(self.kernel_name)

    def model(self):
        return get_model(self.model_name, sigma=self.sigma, y_const=self.y_const)


_SCHEDULE_KEYS = {"alpha", "a", "q", "c", "c_prime", "gamma0"}
_MODEL_KEYS = {"name", "sigma", "y_const"}
_KERNEL_KEYS = {"name"}
_QUAD_KEYS = {"quad_abs_tol", "quad_rel_tol"}
_RUN_KEYS = {"seed", "replicates", "n_list", "x_points", "r0", "v_exponent",
             "tail_thresholds", "two_sided", "threads"}
_TOL_KEYS = {"bias_ratio", "variance"}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(",", " ").split())


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse an INI document into a validated RunConfig."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"malformed config: {exc}") from exc

    known = {"schedule": _SCHEDULE_KEYS, "model": _MODEL_KEYS,
             "kernel": _KERNEL_KEYS, "quadrature": _QUAD_KEYS,
             "run": _RUN_KEYS, "tolerances": _TOL_KEYS}
    for section in parser.sections():
        if section not in known:
            raise ParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ParseError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, cast, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ParseError(f"bad value for {section}.{key}: {raw!r}") from exc
        return default

    base = RunConfig()
    schedule = ScheduleConfig(
        alpha=get("schedule", "alpha", float, 1.0),
        a=get("schedule", "a", float, 0.3),
        q=get("schedule", "q", float, 0.1),
        c=get("schedule", "c", float, 1.0),
        c_prime=get("schedule", "c_prime", float, 1.0),
        gamma0=get("schedule", "gamma0", float, 1.0),
    )
    schedule.ensure_valid()

    kernel_name = get("kernel", "name", str, base.kernel_name).lower()
    if kernel_name not in KERNELS:
        raise ParseError(f"unknown kernel {kernel_name!r}")
    model_name = get("model", "name", str, base.model_name).lower()
    if model_name not in MODEL_NAMES:
        raise ParseError(f"unknown model {model_name!r}")

    seed = get("run", "seed", int, None)
    v_exp = get("run", "v_exponent", float, None)
    return RunConfig(
        schedule=schedule,
        kernel_name=kernel_name,
        model_name=model_name,
        sigma=get("model", "sigma", float, base.sigma),
        y_const=get("model", "y_const", float, base.y_const),
        seed=seed,
        replicates=get("run", "replicates", int, base.replicates),
        n_list=get("run", "n_list", _ints, base.n_list),
        x_points=get("run", "x_points", _floats, base.x_points),
        r0=get("run", "r0", float, base.r0),
        v_exponent=v_exp,
        tail_thresholds=get("run", "tail_thresholds", _floats, ()),
        two_sided=get("run", "two_sided", _boolean, base.two_sided),
        threads=get("run", "threads", int, base.threads),
        quad=QuadratureSpec(
            abs_tol=get("quadrature", "quad_abs_tol", float, 1e-10),
            rel_tol=get("quadrature", "quad_rel_tol", float, 1e-10),
        ),
        tolerances={
            "bias_ratio": get("tolerances", "bias_ratio", float, 0.15),
            "variance": get("tolerances", "variance", float, 0.10),
        },
    )


def config_to_text(cfg: RunConfig) -> str:
    """Render a RunConfig back to the INI document format."""
    lines = [
        "[schedule]",
        f"alpha = {cfg.schedule.alpha!r}",
        f"a = {cfg.schedule.a!r}",
        f"q = {cfg.schedule.q!r}",
        f"c = {cfg.schedule.c!r}",
        f"c_prime = {cfg.schedule.c_prime!r}",
        f"gamma0 = {cfg.schedule.gamma0!r}",
        "",
        "[kernel]",
        f"name = {cfg.kernel_name}",
        "",
        "[model]",
        f"name = {cfg.model_name}",
        f"sigma = {cfg.sigma!r}",
        f"y_const = {cfg.y_const!r}",
        "",
        "[quadrature]",
        f"quad_abs_tol = {cfg.quad.abs_tol!r}",
        f"quad_rel_tol = {cfg.quad.rel_tol!r}",
        "",
        "[run]",
    ]
    if cfg.seed is not None:
        lines.append(f"seed = {cfg.seed}")
    lines.append(f"replicates = {cfg.replicates}")
    lines.append("n_list = " + ", ".join(str(n) for n in cfg.n_list))
    lines.append("x_points = " + ", ".join(repr(x) for x in cfg.x_points))
    lines.append(f"r0 = {cfg.r0!r}")
    if cfg.v_exponent is not None:
        lines.append(f"v_exponent = {cfg.v_exponent!r}")
    if cfg.tail_thresholds:
        lines.append("tail_thresholds = "
                     + ", ".join(repr(t) for t in cfg.tail_thresholds))
    lines.append(f"two_sided = {'true' if cfg.two_sided else 'false'}")
    lines.append(f"threads = {cfg.threads}")
    lines += [
        "",
        "[tolerances]",
        f"bias_ratio = {cfg.tolerances['bias_ratio']!r}",
        f"variance = {cfg.tolerances['variance']!r}",
        "",
    ]
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.10g}"
    return str(value)


def render_csv(columns, rows) -> str:
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_fmt(row[col]) for col in columns))
    return "\n".join(out) + "\n"


def render_json(meta, rows) -> str:
    return json.dumps({"meta": meta, "rows": rows}, indent=2,
                      allow_nan=True, default=_fmt) + "\n"


def emit_report(report, path: str, fmt: str = "csv") -> None:
    """Write a report deterministically; same report, same bytes."""
    if fmt == "csv":
        payload = render_csv(report.columns, report.rows)
    elif fmt == "json":
        payload = render_json(report.meta, report.rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


@dataclass
class _Table:
    meta: dict
    columns: list
    rows: list


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"range {text!r} must look like lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"range {text!r} must look like lo:hi:steps") from None
    if steps < 1:
        raise ParseError("range needs at least one step")
    if steps > 1 and not lo < hi:
        raise ParseError("range needs lo < hi")
    return np.linspace(lo, hi, steps)


def _merge_flags(cfg: RunConfig, args) -> RunConfig:
    sched = cfg.schedule
    updates = {}
    for name in ("alpha", "a", "q", "c", "c_prime", "gamma0"):
        val = getattr(args, name, None)
        if val is not None:
            updates[name] = val
    if updates:
        sched = replace(sched, **updates).ensure_valid()
    out = replace(cfg, schedule=sched)
    if getattr(args, "kernel", None):
        out = replace(out, kernel_name=args.kernel.lower())
        get_kernel(out.kernel_name)
    if getattr(args, "model", None):
        if args.model.lower() not in MODEL_NAMES:
            raise ParseError(f"unknown model {args.model!r}")
        out = replace(out, model_name=args.model.lower())
    for flag, key in (("sigma", "sigma"), ("y_const", "y_const"),
                      ("seed", "seed"), ("r0", "r0"), ("threads", "threads"),
                      ("replicates", "replicates")):
        val = getattr(args, flag, None)
        if val is not None:
            out = replace(out, **{key: val})
    return out


def _cmd_validate(args) -> int:
    violations = {v.constraint: v for v in
                  validate_exponents(args.alpha, args.a, args.q)}
    status = 0
    for name in ("stepsize_exponent", "bandwidth_interval_empty",
                 "bandwidth_exponent", "weight_exponent"):
        if name in violations:
            print(f"{name}: FAIL ({violations[name].message})")
            status = 2
        elif (name.startswith("bandwidth")
              and "stepsize_exponent" in violations):
            print(f"{name}: skipped (stepsize exponent invalid)")
        else:
            print(f"{name}: ok")
    return status


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    if cfg.seed is None:
        raise ValidationError("estimate needs a seed (--seed or config key)")
    if args.n < 1:
        raise ValidationError(f"--n must be at least 1, got {args.n}")
    grid = _parse_range(args.grid)
    model = cfg.model()
    kernel = cfg.kernel()
    sched = cfg.schedule
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    xs, ys = model.sample_batch(rng, args.n)
    state = EstimatorState(grid, sched, kernel, r0=cfg.r0)
    state.update(xs, ys)
    h_final = sched.bandwidth(args.n)
    nw = nadaraya_watson(xs, ys, h_final, grid, kernel)
    avg = state.averaged()
    rec = state.current()
    semi = state.semi_recursive()
    rows = [
        {
            "x": x,
            "r_n": rec[i],
            "r_avg": avg[i],
            "nw": nw[i],
            "semi_rec": semi[i],
            "true_r": model.regression(x),
        }
        for i, x in enumerate(grid)
    ]
    table = _Table({"command": "estimate", "n": args.n, **model.describe()},
                   ["x", "r_n", "r_avg", "nw", "semi_rec", "true_r"], rows)
    _deliver(table, args)
    return 0


def _cmd_ratefn(args) -> int:
    cfg = _load_config(args)
    ctx = CumulantContext(cfg.model(), cfg.kernel(), cfg.schedule.a,
                          cfg.schedule.q, args.x, cfg.quad)
    rows = []
    for t in _parse_range(args.t):
        value, u_star, psi_val = rate_point(ctx, float(t))
        rows.append({"t": float(t), "I": value, "u_star": u_star,
                     "psi_at_ustar": psi_val})
    table = _Table({"command": "ratefn", "x": args.x, "a": cfg.schedule.a,
                    "q": cfg.schedule.q, **cfg.model().describe(),
                    "kernel": cfg.kernel_name},
                   ["t", "I", "u_star", "psi_at_ustar"], rows)
    _deliver(table, args)
    return 0


def _cmd_mdp(args) -> int:
    cfg = _load_config(args)
    model = cfg.model()
    kernel = cfg.kernel()
    f_x = model.density(args.x)
    if f_x <= 0:
        raise ValidationError(f"x={args.x} outside the design support")
    var = model.cond_var(args.x)
    rates = {
        "J_avg": moderate_rate(EstimatorKind.AVERAGED, cfg.schedule.a,
                               cfg.schedule.q, f_x, var, kernel),
        "J_nw": moderate_rate(EstimatorKind.NADARAYA_WATSON, cfg.schedule.a,
                              cfg.schedule.q, f_x, var, kernel),
        "J_semirec": moderate_rate(EstimatorKind.SEMI_RECURSIVE, cfg.schedule.a,
                                   cfg.schedule.q, f_x, var, kernel),
    }
    rows = [
        {"t": float(t), **{name: rate.at(float(t)) for name, rate in rates.items()}}
        for t in _parse_range(args.t)
    ]
    table = _Table({"command": "mdp", "x": args.x, "a": cfg.schedule.a,
                    "q": cfg.schedule.q, **model.describe(),
                    "kernel": cfg.kernel_name},
                   ["t", "J_avg", "J_nw", "J_semirec"], rows)
    _deliver(table, args)
    return 0


_RUNNERS = {
    "bias": experiments.run_bias_experiment,
    "variance": experiments.run_variance_experiment,
    "tail": experiments.run_tail_experiment,
    "mdp": experiments.run_mdp_experiment,
}


def _summary_rows(kind: str, report, tolerances: dict) -> list:
    rows = []
    for row in report.rows:
        entry = dict(row)
        if kind == "bias":
            tol = tolerances["bias_ratio"]
            entry["tolerance"] = tol
            entry["within_tolerance"] = (
                abs(row["bias_ratio"] - row["oracle_ratio"])
                <= tol * max(abs(row["oracle_ratio"]), 1e-12)
                if row["oracle_ratio"] != 0
                else abs(row["bias_ratio"]) <= tol
            )
        elif kind == "variance":
            tol = tolerances["variance"]
            entry["tolerance"] = tol
            entry["within_tolerance"] = (
                abs(row["variance_scaled"] - row["oracle"]) <= tol * row["oracle"]
                if row["oracle"] > 0
                else math.isclose(row["variance_scaled"], 0.0, abs_tol=1e-12)
            )
        rows.append(entry)
    return rows


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if cfg.seed is None:
        raise ValidationError(
            "simulate requires an explicit seed (config [run] seed or --seed)"
        )
    plan = experiments.ExperimentPlan(
        model=cfg.model(),
        schedule=cfg.schedule,
        kernel=cfg.kernel(),
        x_points=cfg.x_points,
        n_list=cfg.n_list,
        replicates=cfg.replicates,
        master_seed=cfg.seed,
        r0=cfg.r0,
        v_exponent=cfg.v_exponent,
        tail_thresholds=cfg.tail_thresholds,
        two_sided=cfg.two_sided,
    )
    report = _RUNNERS[args.experiment](plan, threads=cfg.threads)
    emit_report(report, args.out, "csv")
    summary = _Table(
        meta={"experiment": args.experiment, "config": config_to_text(cfg),
              **report.meta},
        columns=report.columns,
        rows=_summary_rows(args.experiment, report, cfg.tolerances),
    )
    root, _ = os.path.splitext(args.out)
    emit_report(summary, root + ".json", "json")
    return 0


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise OSError(f"cannot read config {args.config!r}: {exc}") from exc
        cfg = parse_config(text)
    else:
        cfg = RunConfig()
    return _merge_flags(cfg, args)


def _deliver(table: _Table, args) -> None:
    fmt = getattr(args, "format", "csv") or "csv"
    if getattr(args, "out", None):
        emit_report(table, args.out, fmt)
    else:
        payload = render_csv(table.columns, table.rows) if fmt == "csv" \
            else render_json(table.meta, table.rows)
        sys.stdout.write(payload)


def _add_schedule_flags(sub) -> None:
    for name in ("alpha", "a", "q", "c", "c_prime", "gamma0"):
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    sub.add_argument("--kernel", choices=sorted(KERNELS))
    sub.add_argument("--model", choices=sorted(MODEL_NAMES))
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--y-const", dest="y_const", type=float)
    sub.add_argument("--config")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--r0", type=float)
    sub.add_argument("--threads", type=int)
    sub.add_argument("--replicates", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regrates",
        description="Streaming kernel regression estimators and their "
                    "deviation rate functions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    val = subs.add_parser("validate", help="check exponent constraints")
    val.add_argument("--alpha", type=float, required=True)
    val.add_argument("--a", type=float, required=True)
    val.add_argument("--q", type=float, required=True)
    val.set_defaults(func=_cmd_validate)

    est = subs.add_parser("estimate", help="run the estimators on one stream")
    _add_schedule_flags(est)
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--grid", required=True, help="lo:hi:steps")
    est.add_argument("--out")
    est.add_argument("--format", choices=("csv", "json"), default="csv")
    est.set_defaults(func=_cmd_estimate)

    rate = subs.add_parser("ratefn", help="tabulate the deviation rate function")
    _add_schedule_flags(rate)
    rate.add_argument("--x", type=float, required=True)
    rate.add_argument("--t", required=True, help="lo:hi:steps")
    rate.add_argument("--out")
    rate.add_argument("--format", choices=("csv", "json"), default="csv")
    rate.set_defaults(func=_cmd_ratefn)

    mdp = subs.add_parser("mdp", help="tabulate the quadratic deviation rates")
    _add_schedule_flags(mdp)
    mdp.add_argument("--x", type=float, required=True)
    mdp.add_argument("--t", required=True, help="lo:hi:steps")
    mdp.add_argument("--out")
    mdp.add_argument("--format", choices=("csv", "json"), default="csv")
    mdp.set_defaults(func=_cmd_mdp)

    sim = subs.add_parser("simulate", help="run a Monte Carlo experiment")
    _add_schedule_flags(sim)
    sim.add_argument("--experiment", choices=experiments.EXPERIMENT_KINDS,
                     required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, RootNotBracketedError) as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
