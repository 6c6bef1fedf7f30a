"""Command line entry point, config parsing, and CSV/JSON emission.

A run is described by one ``RunConfig``. Each of its settable values is one
row of ``_FIELDS``: the INI section and key, the ``RunConfig`` attribute path,
the parser for its text, and the command line flag that overrides it, if it
has one. Config parsing, ``config_to_text`` and the flags all read that
table. A command merges the config file's values and then the flags that are
set into one ``{path: value}`` dict, which ``_validated`` checks once, so a
flag can replace a bad file value. ``RunConfig.plan`` is the one place that
builds the Monte Carlo ``ExperimentPlan``, and the plan checks the run's
shape. Each default is written once: the run defaults the two types share on
``ExperimentPlan``, the others on ``RunConfig`` and ``ScheduleConfig``; what
no run varies, such as the summary's ``_TOLERANCES``, is a constant.

Reports are written with LF line endings, so that a given report always
renders to identical bytes. ``_fmt`` is the one float rule of report rows, in
CSV and JSON: 10 significant digits, in full where those would read as inf.
A JSON row cell is the value its CSV text reads as, a non-finite one that
text ("inf", "-inf", "nan"), so the JSON is strict; ``meta`` is exact.

Exit codes: 0 ok, 2 config/validation problem (a malformed command line
included), raised as a ``ValidationError``, 3 numeric non-convergence or
failed float arithmetic (an overflow, a division by zero), 4 I/O failure or
memory exhausted. Failures print a single ``error[<class>]: message`` line
to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import experiments
from .estimators import EstimatorState, _add_kernel_sums, _ratio
from .experiments import ExperimentPlan, Report, _stream, seed_problem
from .kernels import get_kernel
from .models import DEFAULT_SIGMA, get_model
from .quadrature import NonConvergenceError
from .ratefn import CumulantContext, EstimatorKind, moderate_rate, rate_point
from .schedules import ScheduleConfig, ValidationError

__all__ = ["RunConfig", "parse_config", "config_to_text",
           "emit_report", "render_csv", "render_json", "main"]


@dataclass(frozen=True)
class RunConfig:
    schedule: ScheduleConfig = ScheduleConfig()
    kernel_name: str = "epanechnikov"
    model_name: str = "uniform_quadratic_gauss"
    sigma: float = DEFAULT_SIGMA
    seed: int | None = None
    replicates: int = 2000
    n_list: tuple[int, ...] = (1000, 10000, 100000)
    x_points: tuple[float, ...] = (0.5,)
    r0: float = ExperimentPlan.r0
    v_exponent: float | None = ExperimentPlan.v_exponent
    tail_thresholds: tuple[float, ...] = ExperimentPlan.tail_thresholds

    def kernel(self):
        return get_kernel(self.kernel_name)

    def model(self):
        return get_model(self.model_name, sigma=self.sigma)

    def plan(self) -> ExperimentPlan:
        """The Monte Carlo plan of this run: every field the two types share
        by name, with the model, the kernel and the seed."""
        shared = {f.name for f in fields(self)} & {f.name for f in fields(ExperimentPlan)}
        return ExperimentPlan(model=self.model(), kernel=self.kernel(),
                              master_seed=self.seed,
                              **{name: getattr(self, name) for name in shared})


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(part) for part in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(",", " ").split())


# (section, key, RunConfig attribute path, parser, flag dest or None); the
# flag is spelled --dest with dashes. The row order is the order of
# config_to_text.
_FIELDS = (
    ("schedule", "alpha", "schedule.alpha", _finite, "alpha"),
    ("schedule", "a", "schedule.a", _finite, "a"),
    ("schedule", "q", "schedule.q", _finite, "q"),
    ("schedule", "c", "schedule.c", _finite, "c"),
    ("schedule", "gamma0", "schedule.gamma0", _finite, "gamma0"),
    ("kernel", "name", "kernel_name", str.lower, "kernel"),
    ("model", "name", "model_name", str.lower, "model"),
    ("model", "sigma", "sigma", _finite, "sigma"),
    ("run", "seed", "seed", int, "seed"),
    ("run", "replicates", "replicates", int, "replicates"),
    ("run", "n_list", "n_list", _ints, None),
    ("run", "x_points", "x_points", _floats, None),
    ("run", "r0", "r0", _finite, "r0"),
    ("run", "v_exponent", "v_exponent", _finite, None),
    ("run", "tail_thresholds", "tail_thresholds", _floats, None),
)


def _get(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _set(obj, path: str, value):
    """A copy of ``obj`` with the attribute at ``path`` set."""
    name, _, rest = path.partition(".")
    if rest:
        value = _set(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def _validated(cfg: RunConfig, values: dict) -> RunConfig:
    """``cfg`` with ``values`` ({attribute path: value}) set, once it is
    checked: the single validation step of a run's settings."""
    for path, value in values.items():
        cfg = _set(cfg, path, value)
    cfg.schedule.ensure_valid()
    if cfg.seed is not None and (problem := seed_problem(cfg.seed)):
        raise ValidationError(problem)
    try:
        cfg.kernel()
        cfg.model()
    except ValueError as exc:  # an unknown name, or a parameter out of range
        raise ValidationError(str(exc)) from exc
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse an INI document into a validated RunConfig."""
    return _validated(RunConfig(), _ini_values(text))


def _ini_values(text: str) -> dict:
    """The ``{attribute path: value}`` of each key an INI document sets; a
    ``;`` after whitespace starts a comment."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}") from exc
    keys = {(section, key): (path, parse)
            for section, key, path, parse, _ in _FIELDS}
    sections = {section for section, _ in keys}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ValidationError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in keys:
                raise ValidationError(f"unknown key {key!r} in section [{section}]")
            path, parse = keys[section, key]
            try:
                values[path] = parse(raw)
            except ValueError as exc:
                raise ValidationError(f"bad value for {section}.{key}: {raw!r}") from exc
    return values


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_text(v) for v in value)
    return str(value)


def config_to_text(cfg: RunConfig) -> str:
    """Render a RunConfig back to the INI document format; a key whose value
    is None or an empty tuple is left out."""
    sections = {}
    for section, key, path, _, _ in _FIELDS:
        lines = sections.setdefault(section, [f"[{section}]"])
        value = _get(cfg, path)
        if value is not None and value != ():
            lines.append(f"{key} = {_text(value)}")
    return "\n".join("\n".join(lines) + "\n" for lines in sections.values())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = f"{float(value):.10g}"  # in full where it rounds past the largest float
        return repr(float(value)) if math.isinf(float(text)) and math.isfinite(value) else text
    return str(value)


def _cell(value):
    """A row cell as JSON writes it: the value its CSV text reads as."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, float):
        return float(_fmt(value)) if math.isfinite(value) else _fmt(value)
    return value


def render_csv(columns, rows) -> str:
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_fmt(row[col]) for col in columns))
    return "\n".join(out) + "\n"


def render_json(meta, rows) -> str:
    rows = [{col: _cell(value) for col, value in row.items()} for row in rows]
    return json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False) + "\n"


def emit_report(report: Report, path: str | None, fmt: str) -> None:
    """Write a report deterministically as ``fmt``, "json" or "csv", to
    stdout without a ``path``."""
    payload = (render_json(report.meta, report.rows) if fmt == "json"
               else render_csv(report.columns, report.rows))
    if not path:
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Raise, as emit_report would, for a path that is a directory or whose
    directory is missing, without creating the file."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    exc = OSError(code, os.strerror(code), path)
    raise OSError(f"cannot write {path!r}: {exc}")


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = _finite(lo), _finite(hi), int(steps)
    except ValueError:
        raise ValidationError(f"range {text!r} must look like lo:hi:steps with "
                              "finite lo and hi") from None
    if steps < 1:
        raise ValidationError("range needs at least one step")
    if steps > 1 and not lo < hi:
        raise ValidationError("range needs lo < hi")
    return np.linspace(lo, hi, steps)


def _cmd_validate(args) -> int:
    violations = ScheduleConfig(alpha=args.alpha, a=args.a, q=args.q).validate()
    for name in ("stepsize_exponent", "bandwidth_interval_empty",
                 "bandwidth_exponent", "weight_exponent"):
        if name in violations:
            print(f"{name}: FAIL ({violations[name]})")
        elif (name.startswith("bandwidth")
              and "stepsize_exponent" in violations):
            print(f"{name}: skipped (stepsize exponent invalid)")
        elif (name == "bandwidth_exponent"
              and "bandwidth_interval_empty" in violations):
            print(f"{name}: skipped (bandwidth interval empty)")
        else:
            print(f"{name}: ok")
    if violations:
        raise ValidationError("exponent constraints violated: "
                              + ", ".join(violations))
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    if problem := seed_problem(cfg.seed):
        raise ValidationError(problem)
    if args.n < 1:
        raise ValidationError(f"--n must be at least 1, got {args.n}")
    grid = _parse_range(args.grid)
    model, kernel, sched = cfg.model(), cfg.kernel(), cfg.schedule
    state = EstimatorState(grid, sched, kernel, r0=cfg.r0)
    h_final = sched.bandwidth(args.n)
    num, den = np.zeros(grid.size), np.zeros(grid.size)
    # simulate's replicate 0, a chunk at a time: memory does not grow with n
    for xs, ys in _stream(model, cfg.seed, 0, args.n):
        state.update(xs, ys)
        _add_kernel_sums(num, den, grid, xs, ys, h_final, kernel)
    nw = _ratio(num, den)
    avg = state.averaged()
    rec = state.current()
    semi = state.semi_recursive()
    rows = [{"x": x, "r_n": rec[i], "r_avg": avg[i], "nw": nw[i],
             "semi_rec": semi[i], "true_r": model.regression(x)}
            for i, x in enumerate(grid)]
    emit_report(Report(_meta(args, cfg, "n", "grid"), rows), args.out, args.format)
    return 0


def _cmd_ratefn(args) -> int:
    cfg = _load_config(args)
    ctx = CumulantContext(cfg.model(), cfg.kernel(), cfg.schedule.a,
                          cfg.schedule.q, args.x)
    rows = []
    for t in _parse_range(args.t):
        value, u_star, psi_val = rate_point(ctx, float(t))
        rows.append({"t": float(t), "I": value, "u_star": u_star,
                     "psi_at_ustar": psi_val})
    emit_report(Report(_meta(args, cfg, "x", "t"), rows), args.out, args.format)
    return 0


def _cmd_mdp(args) -> int:
    cfg = _load_config(args)
    model, kernel, sched = cfg.model(), cfg.kernel(), cfg.schedule
    f_x, var = model.density(args.x), model.cond_var(args.x)
    kinds = {"J_avg": EstimatorKind.AVERAGED,
             "J_nw": EstimatorKind.NADARAYA_WATSON,
             "J_semirec": EstimatorKind.SEMI_RECURSIVE}
    rows = [{"t": float(t), **{name: moderate_rate(kind, sched.a, sched.q, f_x, var,
                                                   kernel, float(t))
                               for name, kind in kinds.items()}}
            for t in _parse_range(args.t)]
    emit_report(Report(_meta(args, cfg, "x", "t"), rows), args.out, args.format)
    return 0


# the summary's pass marks, acceptance criteria 07 (bias) and 08 (variance)
_TOLERANCES = {"bias": 0.15, "variance": 0.10}


def _summary_rows(kind: str, report) -> list:
    tol = _TOLERANCES.get(kind)
    rows = []
    for row in report.rows:
        entry = dict(row)
        if kind == "bias":
            entry["tolerance"] = tol
            entry["within_tolerance"] = (
                abs(row["bias_ratio"] - row["oracle_ratio"])
                <= tol * max(abs(row["oracle_ratio"]), 1e-12)
                if row["oracle_ratio"] != 0
                else abs(row["bias_ratio"]) <= tol
            )
        elif kind == "variance":
            entry["tolerance"] = tol
            entry["within_tolerance"] = (
                abs(row["variance_scaled"] - row["oracle"]) <= tol * row["oracle"]
                if row["oracle"] > 0
                else math.isclose(row["variance_scaled"], 0.0, abs_tol=1e-12)
            )
        rows.append(entry)
    return rows


def _cmd_simulate(args) -> int:
    if not args.out or args.out.lower().endswith(".json"):  # the summary's path
        raise ValidationError(f"--out {args.out!r} must be a CSV path not ending in .json")
    cfg = _load_config(args)
    summary = os.path.splitext(args.out)[0] + ".json"
    # a bad report path is found before the run, not after it
    for path in (args.out, summary):
        _check_writable(path)
    # an experiment's warning goes into the summary, so that stderr stays
    # empty at exit 0; numpy's RuntimeWarning stays an error (see main). The
    # worker count is every core the process may use, and it moves no byte.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        report = experiments.run_experiments(
            cfg.plan(), [args.experiment], experiments._cores())[args.experiment]
    emit_report(report, args.out, "csv")
    meta = _meta(args, cfg, "experiment")
    if caught:
        meta["warnings"] = [str(w.message) for w in caught]
    emit_report(Report(meta, _summary_rows(args.experiment, report)), summary, "json")
    return 0


def _load_config(args) -> RunConfig:
    """The config file's values, if ``args`` names one, then every config
    flag that is set, validated once."""
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise OSError(f"cannot read config {args.config!r}: {exc}") from exc
        values = _ini_values(text)
    for _, _, path, _, flag in _FIELDS:
        value = getattr(args, flag, None) if flag else None
        if value is not None:
            values[path] = value
    return _validated(RunConfig(), values)


def _meta(args, cfg: RunConfig, *own) -> dict:
    """A report's record of its run: the command, its own arguments
    (``own``, as given) and the settings as a config document that re-runs it."""
    return {"command": args.command, **{name: getattr(args, name) for name in own},
            "config": config_to_text(cfg)}


def _add_config_flags(sub) -> None:
    sub.add_argument("--config")
    for _, _, _, parse, flag in _FIELDS:
        if flag:
            sub.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=parse)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad command line as a ValidationError, like any other exit-2
    failure, and reads an argument that starts with a minus sign and a
    digit, such as the range -2:2:41, as a value; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="regrates",
        description="Streaming kernel regression estimators and their "
                    "deviation rate functions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    val = subs.add_parser("validate", help="check exponent constraints")
    val.add_argument("--alpha", type=_finite, required=True)
    val.add_argument("--a", type=_finite, required=True)
    val.add_argument("--q", type=_finite, required=True)
    val.set_defaults(func=_cmd_validate)

    est = subs.add_parser("estimate", help="run the estimators on one stream")
    _add_config_flags(est)
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--grid", required=True, help="lo:hi:steps")
    est.set_defaults(func=_cmd_estimate)

    rate = subs.add_parser("ratefn", help="tabulate the deviation rate function")
    _add_config_flags(rate)
    rate.add_argument("--x", type=_finite, required=True)
    rate.add_argument("--t", required=True, help="lo:hi:steps")
    rate.set_defaults(func=_cmd_ratefn)

    mdp = subs.add_parser("mdp", help="tabulate the quadratic deviation rates")
    _add_config_flags(mdp)
    mdp.add_argument("--x", type=_finite, required=True)
    mdp.add_argument("--t", required=True, help="lo:hi:steps")
    mdp.set_defaults(func=_cmd_mdp)

    for sub in (est, rate, mdp):
        sub.add_argument("--out")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")

    sim = subs.add_parser("simulate", help="run a Monte Carlo experiment")
    _add_config_flags(sim)
    sim.add_argument("--experiment", choices=experiments.KINDS, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numpy's warning of a float that overflows or turns invalid ends the
        # run as a numeric failure, raised in whichever thread computes it;
        # code that expects inf silences numpy where it arises
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except ValidationError as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, RuntimeWarning) as exc:  # overflow, division by 0
        reason = exc.args[-1] if exc.args else type(exc).__name__
        print(f"error[numeric]: float arithmetic failed: {reason}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # such as a range of 1e15 steps
        print(f"error[memory]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
