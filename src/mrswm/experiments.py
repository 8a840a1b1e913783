"""The four benchmark problems and the moment-vs-reference harness.

Example 1: smooth depth bump, no magnetic field, periodic domain, with
constant / linear / quadratic / cubic vertical velocity profiles (all of
mean 1/4, so the depth-averaged problem is profile-independent).
Example 2: the same bump with a strong magnetic field hb of mean 1.1
carrying the matching vertical profile.  Examples 3 and 4 are
magneto-geostrophic adjustment problems at low and high Rossby number
with a sinusoidal vertical velocity profile, on a wide open domain.

``run_comparison`` runs the vertically resolved reference once and each
requested moment order once, as independent jobs in forked worker
processes, depth-averages the reference, and reports L1 errors at the
final time.  Every run's CSV artifacts are written here,
under ``example<id>/<case>/{reference,M<m>}/`` (``case_path``), by one
writer per solver: ``write_reference_artifacts`` and
``write_moment_artifacts``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import closure, fv1d, model1d, ref2d
from .io import format_float, write_csv

logger = logging.getLogger(__name__)

BUMP_CASES = ("constant", "linear", "quadratic", "cubic")

#: Vertical velocity profiles of Examples 1-2, all of depth mean 1/4:
#: moment equivalents beta_1 = -1/4 (linear), beta_2 = -1/4 (quadratic),
#: beta_3 = -1/4 (cubic).
_BUMP_MOMENT_OF_CASE = {"constant": 0, "linear": 1, "quadratic": 2, "cubic": 3}


def _bump_height(y):
    return 1.0 + np.exp(3.0 * np.cos(np.pi * (np.asarray(y) + 0.5)) - 4.0)


def _profile_from_case(case: str, mean: float) -> Callable:
    """v(zeta) or hb(zeta) for the bump examples: ``mean`` minus 1/4 of one
    basis mode, or the constant ``mean`` for the constant case."""
    k = _BUMP_MOMENT_OF_CASE[case]
    if k == 0:
        return lambda z: mean * np.ones_like(np.asarray(z, dtype=float))
    return lambda z: mean - 0.25 * closure.basis_rows(k, z)[k]


def _sin_profile(z):
    return 0.25 * np.sin(2.0 * np.pi * np.asarray(z, dtype=float))


@dataclass
class ExperimentSpec:
    """Configuration of one benchmark problem."""

    example: int
    case: str
    y_min: float
    y_max: float
    n_cells: int
    n_zeta: int
    t_final: float
    boundary: str
    nu: float
    theta: float
    g: float
    f_const: float
    profile_y0: float                       # slice position for profile output
    height: Callable                        # h(y)
    u_field: Callable                       # u(y, zeta)
    v_profile: Callable                     # v(zeta), y-independent profile
    hb_profile: Callable                    # hb(zeta), y-independent (div-free)
    tol_im: float = model1d.DEFAULT_TOL_IM  # abort above this |Im|/|Re| ratio

    def coriolis(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.f_const)

    def grid1d(self) -> fv1d.Grid1D:
        return fv1d.Grid1D(self.y_min, self.y_max, self.n_cells, self.boundary)

    def grid2d(self) -> ref2d.Grid2D:
        return ref2d.Grid2D(self.y_min, self.y_max, self.n_cells, self.n_zeta,
                            self.boundary)


def make_spec(example: int, case: str) -> ExperimentSpec:
    if example in (1, 2):
        if case not in BUMP_CASES:
            raise ValueError(f"example {example} has cases {BUMP_CASES}, got {case!r}")
        v_prof = _profile_from_case(case, 0.25)
        if example == 1:
            hb_prof = lambda z: np.zeros_like(np.asarray(z, dtype=float))
        else:
            hb_prof = _profile_from_case(case, 1.1)
        return ExperimentSpec(
            example=example, case=case, y_min=-1.0, y_max=1.0,
            n_cells=200, n_zeta=100,
            t_final=2.0 if example == 1 else 1.5,
            boundary="periodic", nu=0.45,
            theta=1.0 if example == 1 else 1.3,
            g=1.0, f_const=0.0, profile_y0=-0.4,
            height=_bump_height,
            u_field=lambda y, z: np.zeros(np.broadcast(y, z).shape),
            v_profile=v_prof, hb_profile=hb_prof)
    if example in (3, 4):
        if case != "sinusoid":
            raise ValueError(f"example {example} has the single case 'sinusoid'")
        if example == 3:
            u_field = lambda y, z: np.broadcast_to(
                0.1 * np.exp(-np.asarray(y, dtype=float) ** 2),
                np.broadcast(y, z).shape).copy()
            b0 = 0.1
        else:
            def u_field(y, z):
                y = np.asarray(y, dtype=float)
                val = 1.1 * ((1.0 + np.tanh(4.0 * y + 2.0))
                             * (1.0 - np.tanh(4.0 * y - 2.0))
                             / (1.0 + np.tanh(2.0)) ** 2)
                return np.broadcast_to(val, np.broadcast(y, z).shape).copy()
            b0 = 1.1
        return ExperimentSpec(
            example=example, case=case, y_min=-20.0, y_max=20.0,
            n_cells=800, n_zeta=100, t_final=10.0,
            boundary="outflow", nu=0.45, theta=1.3, g=1.0,
            f_const=1.0, profile_y0=-5.0,
            height=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            u_field=u_field, v_profile=_sin_profile,
            hb_profile=lambda z, b0=b0: b0 * np.ones_like(np.asarray(z, dtype=float)))
    raise ValueError(f"unknown example id {example}")


def initial_moment_solution(spec: ExperimentSpec, order: int) -> fv1d.Solution1D:
    """Midpoint-sampled conservative initial data for the moment system.

    Velocity moments come from projecting the pointwise v-profile (so
    h*beta_i = h(y) * beta_i), magnetic moments from projecting the
    hb-profile directly (h*eta_i is the profile coefficient itself, which
    keeps hb_m spatially constant as the divergence constraint demands).
    """
    grid = spec.grid1d()
    y = grid.centers()
    h = spec.height(y)
    v_mean, v_mom = closure.project_profile(spec.v_profile, order)
    hb_mean, hb_mom = closure.project_profile(spec.hb_profile, order)

    cells = np.zeros((grid.n_cells, model1d.n_vars(order)))
    cells[:, model1d.H] = h
    cells[:, model1d.HU] = h * spec.u_field(y, 0.0)
    cells[:, model1d.HV] = h * v_mean
    cells[:, model1d.HB] = hb_mean
    for i in range(1, order + 1):
        cells[:, model1d.moment_index(i, model1d.BETA)] = h * v_mom[i - 1]
        cells[:, model1d.moment_index(i, model1d.ETA)] = hb_mom[i - 1]
    return fv1d.Solution1D(grid, cells)


def initial_reference_solution(spec: ExperimentSpec) -> ref2d.Solution2D:
    grid = spec.grid2d()
    y = grid.y_centers()[:, None]
    z = grid.zeta_centers()[None, :]
    h = spec.height(grid.y_centers())[:, None]
    U = np.zeros((grid.n_y, grid.n_zeta, 5))
    U[..., 0] = h
    U[..., 1] = h * spec.u_field(y, z)
    U[..., 2] = h * spec.v_profile(z)
    U[..., 4] = np.broadcast_to(spec.hb_profile(z), U[..., 4].shape)
    B = ref2d.make_divergence_field(U, grid, spec.theta)
    return ref2d.Solution2D(grid, U, B)


def model_params(spec: ExperimentSpec, order: int) -> model1d.ModelParams:
    return model1d.ModelParams(g=spec.g, order=order, coriolis=spec.coriolis,
                               tol_im=spec.tol_im)


def ref_params(spec: ExperimentSpec) -> ref2d.RefParams:
    return ref2d.RefParams(g=spec.g, coriolis=spec.coriolis)


def l1_error(field_a: np.ndarray, field_b: np.ndarray, dy: float) -> float:
    """Grid L1 distance sum |a - b| dy; the grids must match."""
    a = np.asarray(field_a, dtype=float)
    b = np.asarray(field_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"grid mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum() * dy)


MEAN_FIELDS = ("h", "u_m", "v_m", "a_m", "b_m")


def moment_mean_fields(solution: fv1d.Solution1D) -> dict[str, np.ndarray]:
    U = solution.cells
    h = U[:, model1d.H]
    return {"h": h, "u_m": U[:, 1] / h, "v_m": U[:, 2] / h,
            "a_m": U[:, 3] / h, "b_m": U[:, 4] / h}


def reference_mean_fields(solution: ref2d.Solution2D) -> dict[str, np.ndarray]:
    means = ref2d.depth_average(solution)
    return dict(zip(MEAN_FIELDS, means.T))


def case_path(out_dir, spec: ExperimentSpec, name: str) -> Path:
    """``out_dir/example<id>/<case>/<name>``, the layout of every run of
    ``spec``: ``name`` is "reference", "M<m>" or "errors.csv"."""
    return Path(out_dir) / f"example{spec.example}" / spec.case / name


def write_reference_artifacts(out_dir, spec: ExperimentSpec,
                              solution: ref2d.Solution2D, *,
                              profile: bool) -> list[Path]:
    """Write the reference snapshot and depth average at the solution's
    time, plus the vertical v and b profile at ``spec.profile_y0`` when
    ``profile``; returns the paths written."""
    grid = solution.grid
    base = case_path(out_dir, spec, "reference")
    paths = [base / f"snapshot_t{solution.time:g}.csv",
             base / f"depth_averaged_t{solution.time:g}.csv"]
    h = solution.U[..., 0].reshape(-1)
    write_csv(paths[0], ["y", "zeta", "h", "u", "v", "a", "b"],
              [np.repeat(grid.y_centers(), grid.n_zeta),
               np.tile(grid.zeta_centers(), grid.n_y), h]
              + [solution.U[..., k].reshape(-1) / h for k in range(1, 5)])
    write_csv(paths[1], ["y", *MEAN_FIELDS],
              [grid.y_centers(), *ref2d.depth_average(solution).T])
    if profile:
        _, zeta, prim = ref2d.profile_slice(solution, spec.profile_y0)
        paths.append(base / f"profiles_y{spec.profile_y0:g}.csv")
        write_csv(paths[-1], ["zeta", "v", "b"], [zeta, prim[:, 2], prim[:, 4]])
    return paths


def write_moment_artifacts(out_dir, spec: ExperimentSpec,
                           solution: fv1d.Solution1D, order: int, *,
                           profile: bool) -> list[Path]:
    """Write the order-``order`` snapshot at the solution's time, plus the
    vertical v and b profile at ``spec.profile_y0`` on the reference
    grid's zeta midpoints when ``profile``; returns the paths written."""
    base = case_path(out_dir, spec, f"M{order}")
    header = ["y", "h", "hu_m", "hv_m", "ha_m", "hb_m"]
    for i in range(1, order + 1):
        header += [f"h_alpha_{i}", f"h_beta_{i}", f"h_gamma_{i}", f"h_eta_{i}"]
    paths = [base / f"snapshot_t{solution.time:g}.csv"]
    write_csv(paths[0], header, [solution.grid.centers(), *solution.cells.T])
    if profile:
        zeta = spec.grid2d().zeta_centers()
        v_prof, b_prof = moment_profiles(solution, order, spec.profile_y0, zeta)
        paths.append(base / f"profiles_y{spec.profile_y0:g}.csv")
        write_csv(paths[-1], ["zeta", "v", "b"],
                  [zeta, np.broadcast_to(v_prof, zeta.shape),
                   np.broadcast_to(b_prof, zeta.shape)])
    return paths


def moment_profiles(solution: fv1d.Solution1D, order: int, y0: float,
                    zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertical v and b profiles of the moment run in the column holding y0
    (``ref2d.column_index``)."""
    grid = solution.grid
    U = solution.cells[ref2d.column_index(grid.y_min, grid.y_max, grid.n_cells, y0)]
    h = U[model1d.H]
    v_mom = [U[model1d.moment_index(i, model1d.BETA)] / h for i in range(1, order + 1)]
    b_mom = [U[model1d.moment_index(i, model1d.ETA)] / h for i in range(1, order + 1)]
    v = closure.eval_profile(U[model1d.HV] / h, v_mom, zeta)
    b = closure.eval_profile(U[model1d.HB] / h, b_mom, zeta)
    return np.atleast_1d(v), np.atleast_1d(b)


@dataclass
class ComparisonResult:
    spec: ExperimentSpec
    errors: dict[int, dict[str, float]]     # L1 distance per order and mean field
    reference: ref2d.Solution2D
    moment_runs: dict[int, fv1d.Solution1D]
    ref_stats: fv1d.RunStats
    moment_stats: dict[int, fv1d.RunStats]

    @property
    def max_im_ratio(self) -> float:
        return max((s.max_im_ratio for s in self.moment_stats.values()),
                   default=0.0)


def comparison_workers(orders: Sequence[int]) -> int:
    """Worker processes of ``run_comparison``: one per job (the reference
    and each distinct order), at most one per usable CPU."""
    return min(1 + len(set(orders)), len(os.sched_getaffinity(0)))


#: The spec of the comparison a worker process serves; set by
#: ``_init_worker`` in the worker, never in the calling process.
_worker_spec: ExperimentSpec | None = None


def _init_worker(spec: ExperimentSpec) -> None:
    """Set up a worker: keep the spec, and take every spectrum in one share,
    on the worker's own thread, and every reference window in the worker
    (``ref2d.strip_processes``).  The workers already fill the usable
    CPUs, so spectrum threads or a strip worker would only compete for
    them; each march runs one BLAS thread for the same reason
    (``fv1d.integrate``)."""
    global _worker_spec
    _worker_spec = spec
    model1d.spectrum_shares = 1


def _solve(order: int | None):
    """One comparison job in a worker: the reference run (``order`` None)
    or the moment run of ``order``, from the spec's initial data."""
    spec = _worker_spec
    if order is None:
        return ref2d.run2d(initial_reference_solution(spec), ref_params(spec),
                           spec.t_final, nu=spec.nu, theta=spec.theta)
    return fv1d.run(initial_moment_solution(spec, order), model_params(spec, order),
                    spec.t_final, nu=spec.nu, theta=spec.theta)


def run_comparison(spec: ExperimentSpec, orders: Sequence[int]) -> ComparisonResult:
    """Reference run + one moment run per order + L1 errors at t_final.

    The runs are independent jobs in a pool of ``comparison_workers``
    processes, longest first (the reference, then the orders from the
    highest down), each with one BLAS thread and one spectrum share
    (``_init_worker``).  The pool forks: the spec
    holds lambdas and cannot be pickled, so the workers inherit it.  A
    failure raises the error of the first failing job in the order
    (reference, *orders), as a serial loop would, with the failing order
    as its ``order`` attribute when it is a moment run, and cancels the
    jobs that have not started.
    """
    logger.info("example %d (%s): reference run %dx%d to t=%g",
                spec.example, spec.case, spec.n_cells, spec.n_zeta, spec.t_final)
    jobs = [None, *sorted(set(orders), reverse=True)]
    pool = ProcessPoolExecutor(comparison_workers(orders),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(spec,))
    try:
        futures = {job: pool.submit(_solve, job) for job in jobs}
        reference, ref_stats = futures[None].result()
        runs: dict[int, fv1d.Solution1D] = {}
        stats: dict[int, fv1d.RunStats] = {}
        for m in orders:
            try:
                runs[m], stats[m] = futures[m].result()
            except Exception as exc:
                logger.error("moment run failed at order M=%d", m)
                exc.order = m
                raise
    finally:
        pool.shutdown(cancel_futures=True)

    ref_means = reference_mean_fields(reference)
    errors: dict[int, dict[str, float]] = {}
    for m, sol in runs.items():
        mean = moment_mean_fields(sol)
        errors[m] = {var: l1_error(mean[var], ref_means[var], sol.grid.dy)
                     for var in MEAN_FIELDS}
        logger.info("M=%d: %s", m, {k: f"{v:.3e}" for k, v in errors[m].items()})
    return ComparisonResult(spec, errors, reference, runs, ref_stats, stats)


def write_comparison_outputs(result: ComparisonResult, out_dir) -> list[Path]:
    """Reference and per-order artifacts with profiles, and errors.csv."""
    spec = result.spec
    written = write_reference_artifacts(out_dir, spec, result.reference,
                                        profile=True)
    for m, sol in result.moment_runs.items():
        written += write_moment_artifacts(out_dir, spec, sol, m, profile=True)
    path = case_path(out_dir, spec, "errors.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("M,var,l1\n")
        for m, errors in result.errors.items():
            for var in MEAN_FIELDS:
                fh.write(f"{m},{var},{format_float(errors[var])}\n")
    written.append(path)
    return written


def lockstep(sol1: fv1d.Solution1D, params: model1d.ModelParams,
             sol2: ref2d.Solution2D, rparams: ref2d.RefParams, t_final: float,
             nu: float, theta: float) -> tuple[fv1d.Solution1D, ref2d.Solution2D]:
    """Advance a moment and a reference solution with shared time steps.

    Both integrate as one state (cells, U, B), so each step is the CFL
    minimum over the directions of both meshes.
    """
    g1, g2 = sol1.grid, sol2.grid

    def rates(state, t):
        cells, U, B = state
        k1, d1 = fv1d.rhs(fv1d.Solution1D(g1, cells, t), params, theta)
        k2, d2 = ref2d.rhs2d(ref2d.Solution2D(g2, U, B, t), rparams, theta)
        return k1 + k2, fv1d.StepDiagnostics(d1.max_speed + d2.max_speed,
                                             d1.max_im_ratio, d2.div_residual)

    (cells, U, B), t, _ = fv1d.integrate(
        (sol1.cells, sol2.U, sol2.B), sol1.time, t_final, rates,
        (g1.dy, g2.dy, g2.dzeta), nu, (params.h_min, rparams.h_min, None))
    return fv1d.Solution1D(g1, cells, t), ref2d.Solution2D(g2, U, B, t)


def lockstep_cross_check(spec: ExperimentSpec, t_final: float,
                         n_cells: int, n_zeta: int = 8) -> dict[str, float]:
    """Run the M=0 moment solver and the reference solver with shared time
    steps from zeta-independent data; returns L1 distances of the mean
    fields.  Used for cross-model consistency checks (b = 0 data keeps
    both solvers formally identical row by row)."""
    spec = replace(spec, n_cells=n_cells, n_zeta=n_zeta)
    sol1, sol2 = lockstep(initial_moment_solution(spec, 0), model_params(spec, 0),
                          initial_reference_solution(spec), ref_params(spec),
                          t_final, spec.nu, spec.theta)
    mean1 = moment_mean_fields(sol1)
    mean2 = reference_mean_fields(sol2)
    return {var: l1_error(mean1[var], mean2[var], sol1.grid.dy)
            for var in MEAN_FIELDS}
