"""Command-line front end: configuration, run orchestration, data export.

Subcommands: ``run-moment``, ``run-reference``, ``compare``,
``hyperbolicity-scan``, ``tensors``.  Settings come from an optional JSON
config file (``--config``), positional ``key=value`` tokens, and repeated
``--override key=value`` flags, merged in that order.  Every run writes
its artifacts plus a ``manifest.json`` recording the settings it read, code
version, wall time, step counts, the worst complex-eigenvalue ratio seen,
the environment (Python and numpy versions; for solver runs, BLAS and
the spectrum shares) and a SHA-256 per data file
(reruns of the same configuration are byte-identical).

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 hyperbolicity abort.
"""

from __future__ import annotations

import argparse
import ast
import json
import operator
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, closure, experiments, fv1d, hyperbolicity, model1d, ref2d
from .errors import ConfigError, HyperbolicityError, SolverError
from .io import file_sha256, format_float, write_csv, write_manifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_HYPERBOLICITY = 4

RUN_MODES = ("run-moment", "run-reference", "compare")
MODES = RUN_MODES + ("hyperbolicity-scan", "tensors")

#: Domain and profile slice of runs from ic_* expressions.
CUSTOM_Y_RANGE = (-1.0, 1.0)
CUSTOM_PROFILE_Y0 = 0.0

_EXPR_NAMES = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "tanh", "cosh", "sinh", "exp", "log",
                "sqrt", "abs", "pi", "e", "where", "minimum", "maximum")}

#: Operators an initial-condition expression may use.
_EXPR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
             ast.Mod: operator.mod, ast.Pow: operator.pow,
             ast.UAdd: operator.pos, ast.USub: operator.neg,
             ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
             ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne}


@dataclass
class RunConfig:
    """Validated settings for one CLI invocation."""

    mode: str
    example: int | None = None
    case: str | None = None
    order: int = 0
    orders: list[int] = field(default_factory=list)
    n_cells: int | None = None
    n_zeta: int | None = None
    nu: float = 0.45
    theta: float = 1.3
    g: float = 1.0
    f: float | None = None
    final_time: float | None = None
    snapshot_times: list[float] = field(default_factory=list)
    tol_im: float = 0.1
    out_dir: str = "runs"
    format: str = "csv"
    # custom initial conditions (expressions in y and zeta) for run modes
    y_min: float | None = None
    y_max: float | None = None
    boundary: str | None = None
    ic_h: str | None = None
    ic_u: str | None = None
    ic_v: str | None = None
    ic_hb: str | None = None
    # hyperbolicity scan controls
    b_min: float = -5.0
    b_max: float = 5.0
    beta_min: float = -10.0
    beta_max: float = 10.0
    eta_min: float = -10.0
    eta_max: float = 10.0
    resolution: int = 51
    gh: float = 1.0

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if not 0.0 < self.nu <= 0.5:
            raise ConfigError(f"nu: CFL number {self.nu} outside (0, 0.5]")
        if not 1.0 <= self.theta <= 2.0:
            raise ConfigError(f"theta: limiter parameter {self.theta} outside [1, 2]")
        if not 0 <= self.order <= closure.MAX_ORDER:
            raise ConfigError(f"order: {self.order} outside [0, {closure.MAX_ORDER}]")
        for m in self.orders:
            if not 0 <= m <= closure.MAX_ORDER:
                raise ConfigError(f"orders: {m} outside [0, {closure.MAX_ORDER}]")
        if self.g <= 0.0:
            raise ConfigError(f"g: gravity {self.g} not positive")
        if self.gh <= 0.0:
            raise ConfigError(f"gh: {self.gh} not positive")
        if self.tol_im <= 0.0:
            raise ConfigError(f"tol_im: {self.tol_im} not positive")
        if self.resolution < 2:
            raise ConfigError(f"resolution: {self.resolution} below 2")
        for key, low in (("n_cells", 4), ("n_zeta", 4), ("final_time", 0.0)):
            if getattr(self, key) is not None and getattr(self, key) < low:
                raise ConfigError(f"{key}: {getattr(self, key)} below {low}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format: {self.format!r} not csv|json")
        if self.boundary is not None and self.boundary not in ("periodic", "outflow"):
            raise ConfigError(f"boundary: {self.boundary!r} not periodic|outflow")
        for t in self.snapshot_times:
            if t < 0.0:
                raise ConfigError(f"snapshot_times: {t} below 0")
        if self.mode in RUN_MODES:
            if self.example is None and self.ic_h is None:
                raise ConfigError("example: required (or give ic_* expressions)")
            if self.ic_h is None and (self.y_min, self.y_max) != (None, None):
                raise ConfigError(f"y_min, y_max: example {self.example} has its own "
                                  "domain; a domain is set only with ic_* expressions")
            y_min, y_max = self.y_range
            if not y_min < y_max:
                raise ConfigError(f"y_min: {y_min} not below y_max {y_max}")
            if (self.ic_h is not None and self.mode != "run-moment"
                    and not y_min <= CUSTOM_PROFILE_Y0 <= y_max):
                raise ConfigError(f"y_min, y_max: [{y_min}, {y_max}] excludes the "
                                  f"profile slice at y = {CUSTOM_PROFILE_Y0}")
        for key in ("ic_h", "ic_u", "ic_v", "ic_hb"):
            if getattr(self, key) is not None:
                _expr_field(getattr(self, key), key)
        return self

    def read_settings(self) -> dict:
        """The set settings that the command of ``mode`` reads, in field
        order: the manifest's ``config``."""
        spec = ("example", "case", "n_cells", "n_zeta", "nu", "theta", "g", "f",
                "final_time", "y_min", "y_max", "boundary", "ic_h", "ic_u", "ic_v", "ic_hb")
        reads = {"tensors": ("order", "format"),
                 "run-moment": spec + ("order", "tol_im", "snapshot_times"),
                 "run-reference": spec + ("snapshot_times",),
                 "compare": spec + ("orders", "tol_im"),
                 "hyperbolicity-scan": ("b_min", "b_max", "beta_min", "beta_max",
                                        "eta_min", "eta_max", "resolution", "gh")}
        keys = reads[self.mode] + ("mode", "out_dir")
        return {k: v for k, v in vars(self).items() if k in keys and v is not None}

    @property
    def y_range(self) -> tuple[float, float]:
        """(y_min, y_max) with the custom domain's defaults filled in."""
        return (CUSTOM_Y_RANGE[0] if self.y_min is None else self.y_min,
                CUSTOM_Y_RANGE[1] if self.y_max is None else self.y_max)


#: Field type names ("int", "float | None", "list[int]", ...).
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_NUMBER_TYPES = {"int": int, "float": float}


def _number(kind: type, value):
    """``value`` as ``kind``; TypeError unless it is a number (not a bool)
    that ``kind`` represents exactly."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind(value) != value):
        raise TypeError(f"not {kind.__name__}")
    return kind(value)


def _coerce(key: str, value):
    """Parse a raw setting, a ``key=value`` string or a JSON value, into
    the type of its RunConfig field; malformed values are a ConfigError
    naming the key."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"{key}: unknown configuration key")
    base = kind.removesuffix(" | None")
    try:
        if base.startswith("list["):
            item = _NUMBER_TYPES[base[5:-1]]
            if isinstance(value, str):
                value = [item(p) for p in value.split(",") if p]
            return [_number(item, v) for v in value]
        if isinstance(value, str) and base != "str":
            value = json.loads(value)
        if value is None and base != kind:
            return None
        if base == "str":
            if not isinstance(value, str):
                raise TypeError("not a string")
            return value
        return _number(_NUMBER_TYPES[base], value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{key}: expected {kind}, got {value!r} ({exc})") from exc


def parse_config(text: str, mode: str | None = None,
                 overrides: list[str] | None = None) -> RunConfig:
    """Build a validated RunConfig from JSON text plus key=value overrides.

    Unknown keys are rejected; range violations name the offending field.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    merged: dict = {}
    for key, value in raw.items():
        merged[key] = _coerce(key, value)
    for token in overrides or []:
        if "=" not in token:
            raise ConfigError(f"override {token!r}: expected key=value")
        key, _, value = token.partition("=")
        merged[key.strip()] = _coerce(key.strip(), value.strip())
    if mode is not None:
        merged["mode"] = mode
    if "mode" not in merged:
        raise ConfigError("mode: required")
    return RunConfig(**merged).validate()


def _evaluate(node: ast.AST, names: dict):
    """Value of an expression tree over ``names`` (y, zeta and constants).

    Numbers (as floats: no unbounded integer powers), names, the operators
    of ``_EXPR_OPS`` and positional calls of the functions of
    ``_EXPR_NAMES`` only; anything else is a ConfigError.
    """
    def ev(child):
        return _evaluate(child, names)

    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](ev(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](ev(node.left), ev(node.right))
    if (isinstance(node, ast.Compare) and len(node.ops) == 1
            and type(node.ops[0]) in _EXPR_OPS):
        return _EXPR_OPS[type(node.ops[0])](ev(node.left), ev(node.comparators[0]))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(fn := _EXPR_NAMES.get(node.func.id)) and not node.keywords
            and len(node.args) == getattr(fn, "nin", 3)):
        return fn(*map(ev, node.args))
    raise ConfigError(f"{ast.unparse(node)!r} is not allowed in an expression")


def _expr_field(expr: str, config_key: str):
    """Compile an initial-condition expression of (y, zeta); one trial
    evaluation at y = zeta = 0 turns every error in it into a ConfigError."""
    def func(y, zeta=0.0):
        names = {k: v for k, v in _EXPR_NAMES.items() if not callable(v)}
        names.update(y=np.asarray(y, dtype=float), zeta=np.asarray(zeta, dtype=float))
        return np.broadcast_to(np.asarray(_evaluate(tree.body, names), dtype=float),
                               np.broadcast(names["y"], names["zeta"]).shape).copy()

    try:
        tree = ast.parse(expr, f"<{config_key}>", mode="eval")
        with np.errstate(all="ignore"):
            func(0.0)
    except (SyntaxError, ArithmeticError, ConfigError) as exc:
        raise ConfigError(f"{config_key}: bad expression ({exc})") from exc
    return func


def _spec_from_config(cfg: RunConfig) -> experiments.ExperimentSpec:
    if cfg.ic_h is not None:
        h_fn = _expr_field(cfg.ic_h, "ic_h")
        u_fn = _expr_field(cfg.ic_u or "0.0", "ic_u")
        v_fn = _expr_field(cfg.ic_v or "0.0", "ic_v")
        hb_fn = _expr_field(cfg.ic_hb or "0.0", "ic_hb")
        y_min, y_max = cfg.y_range
        spec = experiments.ExperimentSpec(
            example=0, case="custom", y_min=y_min, y_max=y_max,
            n_cells=200, n_zeta=100, t_final=1.0, boundary="periodic",
            nu=cfg.nu, theta=cfg.theta, g=cfg.g, f_const=0.0,
            profile_y0=CUSTOM_PROFILE_Y0,
            height=lambda y: h_fn(y),
            u_field=u_fn,
            v_profile=lambda z: v_fn(0.0, z),
            hb_profile=lambda z: hb_fn(0.0, z))
    else:
        spec = experiments.make_spec(cfg.example, cfg.case or "constant")
    spec = replace(
        spec, n_cells=spec.n_cells if cfg.n_cells is None else cfg.n_cells,
        n_zeta=spec.n_zeta if cfg.n_zeta is None else cfg.n_zeta,
        t_final=spec.t_final if cfg.final_time is None else cfg.final_time,
        f_const=spec.f_const if cfg.f is None else cfg.f,
        nu=cfg.nu, theta=spec.theta if spec.example == 1 else cfg.theta, g=cfg.g,
        boundary=spec.boundary if cfg.boundary is None else cfg.boundary,
        tol_im=cfg.tol_im)
    late = [t for t in cfg.snapshot_times if t > spec.t_final]
    if late:
        raise ConfigError(f"snapshot_times: {late} after the final time {spec.t_final}")
    return spec


def _manifest(out_dir: Path, cfg: RunConfig, wall: float, steps: dict,
              max_im_ratio: float, artifacts: list[Path],
              spec: experiments.ExperimentSpec | None = None,
              environment: dict | None = None, job_cost: dict | None = None) -> None:
    """Write manifest.json; ``config`` holds the settings the command read
    (``RunConfig.read_settings``), and ``resolved`` the settings of the ``spec``
    that ran, after the example's defaults (Example 1 forces theta = 1);
    ``environment`` holds the Python and numpy versions and the command's
    own ``environment`` entries: for the solver runs, the BLAS library and
    the thread count a march runs it with, for moment runs the shares
    the spectra are cut into, and for reference runs the processes the
    windows of a right-hand side run in.  ``job_cost`` (``compare``)
    holds each job's march time, steps and ms per step; the jobs ran at
    once in worker processes that shared the CPUs, which
    ``jobs_shared_cpus`` says."""
    payload = {
        "version": __version__,
        "mode": cfg.mode,
        "config": cfg.read_settings(),
        "wall_time_s": wall,
        "n_steps": steps,
        "max_im_ratio": max_im_ratio,
        "artifacts": {str(p.relative_to(out_dir)): file_sha256(p)
                      for p in sorted(artifacts)},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        **(environment or {})},
    }
    if job_cost is not None:
        payload["job_cost"] = job_cost
    if spec is not None:
        payload["resolved"] = {"theta": spec.theta, "n_cells": spec.n_cells,
                               "n_zeta": spec.n_zeta, "t_final": spec.t_final,
                               "tol_im": spec.tol_im}
    write_manifest(out_dir / "manifest.json", payload)


def _cmd_tensors(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tic = time.perf_counter()
    tensors = closure.build_tensors(cfg.order)
    artifacts = []
    if cfg.format == "csv":
        for name, arr in (("A", tensors.A), ("B", tensors.B)):
            path = out / f"tensor_{name}.csv"
            idx = np.indices(arr.shape).reshape(3, -1) + 1
            write_csv(path, ["i", "l", "n", "value"],
                      [idx[0], idx[1], idx[2], arr.reshape(-1)])
            artifacts.append(path)
        path = out / "tensor_Gamma.csv"
        idx = np.indices(tensors.Gamma.shape).reshape(2, -1) + 1
        write_csv(path, ["i", "l", "value"],
                  [idx[0], idx[1], tensors.Gamma.reshape(-1)])
        artifacts.append(path)
        path = out / "phi_at_one.csv"
        write_csv(path, ["l", "value"],
                  [np.arange(1, cfg.order + 1), tensors.phi_at_one])
        artifacts.append(path)
    else:
        path = out / "tensors.json"
        payload = {
            "order": cfg.order,
            "A": [[[format_float(v) for v in row] for row in mat] for mat in tensors.A],
            "B": [[[format_float(v) for v in row] for row in mat] for mat in tensors.B],
            "Gamma": [[format_float(v) for v in row] for row in tensors.Gamma],
            "phi_at_one": [format_float(v) for v in tensors.phi_at_one],
        }
        write_manifest(path, payload)
        artifacts.append(path)
    _manifest(out, cfg, time.perf_counter() - tic, {}, 0.0, artifacts)
    return EXIT_OK


def _cmd_run_moment(cfg: RunConfig) -> int:
    spec = _spec_from_config(cfg)
    tic = time.perf_counter()
    params = experiments.model_params(spec, cfg.order)
    sol = experiments.initial_moment_solution(spec, cfg.order)
    artifacts = []
    max_ratio = 0.0
    n_steps = 0
    for t_snap in sorted(set(cfg.snapshot_times) | {spec.t_final}):
        if t_snap > sol.time:
            sol, stats = fv1d.run(sol, params, t_snap, nu=spec.nu, theta=spec.theta)
            max_ratio = max(max_ratio, stats.max_im_ratio)
            n_steps += stats.n_steps
        artifacts += experiments.write_moment_artifacts(cfg.out_dir, spec, sol,
                                                        cfg.order, profile=False)
    # the spectra of a right-hand side: both sides of n_cells + 1 interfaces
    shares = model1d.spectrum_split(2 * (spec.n_cells + 1), params.n_vars)
    _manifest(Path(cfg.out_dir), cfg, time.perf_counter() - tic,
              {"moment": n_steps}, max_ratio, artifacts, spec,
              {**fv1d.blas_environment(), "spectrum_shares": shares})
    return EXIT_OK


def _cmd_run_reference(cfg: RunConfig) -> int:
    spec = _spec_from_config(cfg)
    tic = time.perf_counter()
    sol = experiments.initial_reference_solution(spec)
    params = experiments.ref_params(spec)
    artifacts = []
    n_steps = 0
    times = sorted(set(cfg.snapshot_times) | {spec.t_final})
    for t_snap in times:
        if t_snap > sol.time:
            sol, stats = ref2d.run2d(sol, params, t_snap, nu=spec.nu, theta=spec.theta)
            n_steps += stats.n_steps
        artifacts += experiments.write_reference_artifacts(
            cfg.out_dir, spec, sol, profile=t_snap == times[-1])
    _manifest(Path(cfg.out_dir), cfg, time.perf_counter() - tic,
              {"reference": n_steps}, 0.0, artifacts, spec,
              {**fv1d.blas_environment(), "strip_processes": ref2d.strip_processes(sol.grid)})
    return EXIT_OK


def _cmd_compare(cfg: RunConfig) -> int:
    spec = _spec_from_config(cfg)
    orders = cfg.orders or [0, 1, 2, 3]
    out = Path(cfg.out_dir)
    tic = time.perf_counter()
    result = experiments.run_comparison(spec, orders)
    artifacts = experiments.write_comparison_outputs(result, out)
    jobs = {"reference": result.ref_stats,
            **{f"M{m}": s for m, s in result.moment_stats.items()}}
    _manifest(out, cfg, time.perf_counter() - tic,
              {job: s.n_steps for job, s in jobs.items()},
              result.max_im_ratio, artifacts, spec,
              {"usable_cpus": len(os.sched_getaffinity(0)),
               "workers": experiments.comparison_workers(orders),
               # each worker takes its spectra in one share and its
               # reference windows in one process (_init_worker)
               **fv1d.blas_environment(), "spectrum_shares": 1, "strip_processes": 1},
              {"jobs_shared_cpus": True,
               **{job: {"solve_s": s.wall_time, "steps": s.n_steps,
                        "ms_per_step": 1e3 * s.wall_time / max(s.n_steps, 1)}
                  for job, s in jobs.items()}})
    return EXIT_OK


def _cmd_scan(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tic = time.perf_counter()
    scan = hyperbolicity.scan_region((cfg.b_min, cfg.b_max),
                                     (cfg.beta_min, cfg.beta_max),
                                     (cfg.eta_min, cfg.eta_max),
                                     cfg.resolution, cfg.gh)
    path = out / "hyperbolicity_scan.csv"
    scan.write_csv(path)
    _manifest(out, cfg, time.perf_counter() - tic,
              {"samples": int(scan.hyperbolic.size)}, 0.0, [path])
    return EXIT_OK


_COMMANDS = {
    "tensors": _cmd_tensors,
    "run-moment": _cmd_run_moment,
    "run-reference": _cmd_run_reference,
    "compare": _cmd_compare,
    "hyperbolicity-scan": _cmd_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrswm",
        description="Moment-closure solvers for magnetic rotating shallow water flow")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("settings", nargs="*", metavar="key=value",
                       help="configuration entries")
        p.add_argument("--config", type=Path, help="JSON configuration file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="key=value", help="final overrides")
        if mode == "tensors":
            p.add_argument("--order", type=int)
            p.add_argument("--format", choices=("csv", "json"))
    return parser


def _report(kind: str, code: int, exc: Exception, **extra) -> int:
    """Print one JSON line naming the failure, and the moment order of a
    comparison's failing run, on stderr; return its exit code."""
    if getattr(exc, "order", None) is not None:
        extra["order"] = exc.order
    print(json.dumps({"error": kind, "exit": code, "message": str(exc), **extra}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.config.read_text() if args.config else ""
        overrides = list(args.settings) + list(args.override)
        if getattr(args, "order", None) is not None:
            overrides.append(f"order={args.order}")
        if getattr(args, "format", None):
            overrides.append(f"format={args.format}")
        if args.out:
            overrides.append(f"out_dir={args.out}")
        cfg = parse_config(text, mode=args.mode, overrides=overrides)
        return _COMMANDS[cfg.mode](cfg)
    except ConfigError as exc:
        return _report("config", EXIT_CONFIG, exc)
    except HyperbolicityError as exc:
        return _report("hyperbolicity", EXIT_HYPERBOLICITY, exc, ratio=exc.ratio)
    except (SolverError, ValueError) as exc:
        return _report("solver", EXIT_SOLVER, exc)


if __name__ == "__main__":
    sys.exit(main())
