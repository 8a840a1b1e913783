"""Second-order path-conservative central-upwind solver for the 1-D system.

Semi-discretization on a uniform mesh: piecewise-linear reconstruction
with the generalized minmod limiter, central-upwind numerical fluxes with
one-sided speed bounds from the flux Jacobian spectrum, and exact closed
forms for the path integrals of the nonconservative products (a cell
integral of Q(U~) U~_y over each cell and a linear-path integral across
each interface).  Time integration is three-stage SSP Runge-Kutta under a
CFL bound recomputed every step.

Every nonzero Q entry is (linear in U)/h, so both path integrals factor
through scalar weights

    W_k = int (U~_k / h~) dmu

per component k, and the vector contributions contract the coupling
coefficient tensor against W and the gradient (slope or jump) of the
state.  The closed forms below are the exact integrals for linear
reconstructions; the flat-depth branch is taken when the depth variation
across the cell (or jump) is negligible, where the logarithmic form loses
digits to cancellation.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from . import model1d
from .errors import DryStateError, SolverError
from .model1d import H, HB, ModelParams

logger = logging.getLogger(__name__)

#: Relative depth variation below which the flat-depth path-integral
#: branch is used (the logarithmic branch cancels catastrophically there).
FLAT_H_TOL = 1e-9

DEFAULT_DT_MAX = 1.0


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D mesh with two ghost cells per side."""

    y_min: float
    y_max: float
    n_cells: int
    boundary: str = "periodic"   # periodic | outflow

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("need at least 4 cells for the stencil")
        if self.y_max <= self.y_min:
            raise ValueError("empty domain")
        if self.boundary not in ("periodic", "outflow"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.n_cells) + 0.5) * self.dy


@dataclass
class Solution1D:
    """Cell averages of the conservative state at one time level."""

    grid: Grid1D
    cells: np.ndarray      # (n_cells, 5 + 4M)
    time: float = 0.0

    def copy(self) -> "Solution1D":
        return Solution1D(self.grid, self.cells.copy(), self.time)


def minmod3(z1, z2, z3):
    """Generalized minmod: least-magnitude value if all signs agree, else 0.

    All three are positive exactly when their minimum is, and all negative
    exactly when their maximum is.
    """
    lo = np.minimum(np.minimum(z1, z2), z3)
    hi = np.maximum(np.maximum(z1, z2), z3)
    return np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))[()]


def fill_ghosts(cells: np.ndarray, boundary: str) -> np.ndarray:
    """Append two ghost cells per side (periodic wrap or copy of the edge)."""
    if boundary == "periodic":
        return np.concatenate([cells[-2:], cells, cells[:2]])
    return np.concatenate([cells[:1], cells[:1], cells, cells[-1:], cells[-1:]])


@dataclass
class Reconstruction:
    """Interface values on the n_cells + 2 stencil rows (one ghost per side)."""

    u_bar: np.ndarray    # (n+2, nvar) cell averages
    slope: np.ndarray    # (n+2, nvar) limited slopes
    south: np.ndarray    # (n+2, nvar) left-face values
    north: np.ndarray    # (n+2, nvar) right-face values


def reconstruct(solution: Solution1D, theta: float,
                h_min: float = model1d.DEFAULT_H_MIN) -> Reconstruction:
    """Limited piecewise-linear interface values.

    Slopes are generalized-minmod limited component-wise; if a face value
    of h would fall to or below the floor, that cell's depth slope is
    clipped to zero (and the event logged) rather than rescaling the
    whole reconstruction.
    """
    if not 1.0 <= theta <= 2.0:
        raise ValueError(f"limiter parameter theta={theta} outside [1, 2]")
    dy = solution.grid.dy
    ext = fill_ghosts(solution.cells, solution.grid.boundary)
    mid = ext[1:-1]
    fwd = (ext[2:] - mid) / dy
    bwd = (mid - ext[:-2]) / dy
    slope = minmod3(theta * fwd, 0.5 * (fwd + bwd), theta * bwd)

    half = 0.5 * dy * slope[:, H]
    bad = (mid[:, H] + half <= h_min) | (mid[:, H] - half <= h_min)
    if np.any(bad):
        logger.warning("clipped depth slope in %d cell(s) to keep h above floor",
                       int(bad.sum()))
        slope[bad, H] = 0.0

    north = mid + 0.5 * dy * slope
    south = mid - 0.5 * dy * slope
    return Reconstruction(u_bar=mid, slope=slope, south=south, north=north)


def cu_flux(U_left: np.ndarray, U_right: np.ndarray, s_minus, s_plus,
            params: ModelParams) -> np.ndarray:
    """Central-upwind numerical flux for batched interface state pairs."""
    G_l = model1d.flux_g(U_left, params)
    G_r = model1d.flux_g(U_right, params)
    return cu_flux_from_values(G_l, G_r, U_left, U_right, s_minus, s_plus)


def cu_flux_from_values(G_l, G_r, U_left, U_right, s_minus, s_plus) -> np.ndarray:
    sm = np.asarray(s_minus, dtype=float)[..., None]
    sp = np.asarray(s_plus, dtype=float)[..., None]
    width = sp - sm
    safe = np.where(width > 0.0, width, 1.0)
    flux = (sp * G_l - sm * G_r) / safe + (sp * sm / safe) * (U_right - U_left)
    return np.where(width > 0.0, flux, 0.0)


def _cell_weights(h_bar, h_slope, chi_bar, chi_slope, dx) -> np.ndarray:
    """W_k = int_cell (chi~_k / h~) dy for linear reconstructions.

    Shapes: h_bar, h_slope (...,); chi_bar, chi_slope (..., n).  The
    logarithmic branch is evaluated only in cells whose depth is not flat.
    """
    dh = h_slope * dx                       # h^N - h^S
    sloped = ~(np.abs(dh) <= FLAT_H_TOL * np.abs(h_bar))
    W = chi_bar / h_bar[..., None] * dx
    if not sloped.any():
        return W
    m = _full_mask(sloped, W.shape[-1])
    log_ratio = np.divide(dh, h_bar - 0.5 * dh, out=None, where=sloped)
    np.log1p(log_ratio, out=log_ratio, where=sloped)
    ratio = np.divide(h_bar, h_slope, out=None, where=sloped)
    w = np.multiply(chi_slope, ratio[..., None], out=None, where=m)
    np.subtract(chi_bar, w, out=w, where=m)
    np.multiply(w, log_ratio[..., None], out=w, where=m)
    np.multiply(chi_slope, dx, out=W, where=m)
    np.add(w, W, out=w, where=m)
    np.divide(w, h_slope[..., None], out=W, where=m)
    return W


def _interface_weights(h_l, h_r, chi_l, chi_r) -> np.ndarray:
    """W_k = int_0^1 chi_k(path) / h(path) ds along the linear path.

    The logarithmic branch is evaluated only across depth jumps.
    """
    dh = h_r - h_l
    sloped = ~(np.abs(dh) <= FLAT_H_TOL * np.abs(h_l))
    W = 0.5 * (chi_l + chi_r) / h_l[..., None]
    if not sloped.any():
        return W
    m = _full_mask(sloped, W.shape[-1])
    dhn = dh[..., None]
    log_ratio = np.divide(dh, h_l, out=None, where=sloped)
    np.log1p(log_ratio, out=log_ratio, where=sloped)
    dchi = np.subtract(chi_r, chi_l, out=None, where=m)
    w = np.multiply(chi_l, dhn, out=None, where=m)
    np.multiply(h_l[..., None], dchi, out=W, where=m)
    np.subtract(w, W, out=w, where=m)
    np.divide(w, dhn, out=w, where=m)
    np.multiply(w, log_ratio[..., None], out=w, where=m)
    np.add(w, dchi, out=w, where=m)
    np.divide(w, dhn, out=W, where=m)
    return W


def _full_mask(mask: np.ndarray, n: int) -> np.ndarray:
    """``mask`` repeated over a trailing axis of length n.

    A mask broadcast along the component axis makes each masked ufunc
    loop run over n elements at a time; a full copy keeps the runs long.
    """
    return np.repeat(mask[..., None], n, axis=-1)


def _contract_path(W: np.ndarray, grad: np.ndarray,
                   params: ModelParams) -> np.ndarray:
    """sum_{c,k} T[r,c,k] W[k] grad[c] as an outer product plus matmul."""
    n = W.shape[-1]
    outer = (grad[..., :, None] * W[..., None, :]).reshape(W.shape[:-1] + (n * n,))
    return outer @ params.path_matrix


def path_integral_cell(u_bar: np.ndarray, slope: np.ndarray, dy: float,
                       params: ModelParams) -> np.ndarray:
    """Exact integral of Q(U~) U~_y over each cell, batched (n, nvar)."""
    h_bar = u_bar[..., H]
    if np.any(h_bar <= params.h_min):
        raise DryStateError("nonpositive depth in cell path integral")
    W = _cell_weights(h_bar, slope[..., H], u_bar, slope, dy)
    return _contract_path(W, slope, params)


def path_integral_interface(U_left: np.ndarray, U_right: np.ndarray,
                            params: ModelParams) -> np.ndarray:
    """Exact linear-path integral of Q dU across each interface."""
    h_l, h_r = U_left[..., H], U_right[..., H]
    if np.any(h_l <= params.h_min) or np.any(h_r <= params.h_min):
        raise DryStateError("nonpositive depth at interface path integral")
    W = _interface_weights(h_l, h_r, U_left, U_right)
    return _contract_path(W, U_right - U_left, params)


@dataclass
class RhsResult:
    dudt: np.ndarray
    max_speed: float
    max_im_ratio: float


def rhs(solution: Solution1D, params: ModelParams, theta: float) -> RhsResult:
    """Semi-discrete time derivative of the cell averages."""
    grid = solution.grid
    dy = grid.dy
    rec = reconstruct(solution, theta, params.h_min)

    U_l = rec.north[:-1]        # left of interface i (n+1, nvar)
    U_r = rec.south[1:]         # right of interface i
    both = np.concatenate([U_l, U_r])
    quad = model1d.quadratic_flux(both, params)   # shared by J and G
    s_minus, s_plus, im_ratio = model1d.interface_speeds(U_l, U_r, params,
                                                         quad=quad)

    G_both = model1d.flux_g(both, params, quad)
    n_if = U_l.shape[0]
    F = cu_flux_from_values(G_both[:n_if], G_both[n_if:], U_l, U_r,
                            s_minus, s_plus)

    Q_cell = path_integral_cell(rec.u_bar[1:-1], rec.slope[1:-1], dy, params)
    Q_iface = path_integral_interface(U_l, U_r, params)

    width = s_plus - s_minus
    safe = np.where(width > 0.0, width, 1.0)
    c_left = np.where(width > 0.0, s_plus / safe, 0.0)[:, None]
    c_right = np.where(width > 0.0, s_minus / safe, 0.0)[:, None]

    y = grid.centers()
    f = np.broadcast_to(np.asarray(params.coriolis(y), dtype=float), y.shape)
    z_y = np.broadcast_to(np.asarray(params.bathymetry_slope(y), dtype=float), y.shape)
    S = model1d.source_s(solution.cells, f, z_y, params.g)

    dudt = -(F[1:] - F[:-1]
             - Q_cell
             - c_left[:-1] * Q_iface[:-1]
             + c_right[1:] * Q_iface[1:]) / dy + S
    max_speed = float(np.maximum(s_plus, -s_minus).max())
    return RhsResult(dudt=dudt, max_speed=max_speed, max_im_ratio=im_ratio)


def cfl_dt(solution: Solution1D, params: ModelParams, nu: float,
           theta: float = 1.3, dt_max: float = DEFAULT_DT_MAX) -> float:
    """CFL time step nu * dy / max |s|; capped at dt_max if all speeds vanish."""
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"CFL number nu={nu} outside (0, 0.5]")
    rec = reconstruct(solution, theta, params.h_min)
    sm, sp, _ = model1d.interface_speeds(rec.north[:-1], rec.south[1:], params)
    max_speed = float(np.maximum(sp, -sm).max())
    if max_speed <= 0.0:
        return dt_max
    return min(nu * solution.grid.dy / max_speed, dt_max)


def ssprk3(y0: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
           dt: float) -> np.ndarray:
    """One step of the optimal three-stage third-order SSP Runge-Kutta."""
    y1 = y0 + dt * f(y0)
    y2 = 0.75 * y0 + 0.25 * (y1 + dt * f(y1))
    return y0 / 3.0 + (2.0 / 3.0) * (y2 + dt * f(y2))


@dataclass
class StepDiagnostics:
    max_im_ratio: float = 0.0
    max_speed: float = 0.0


def step_ssprk3(solution: Solution1D, params: ModelParams, dt: float,
                theta: float = 1.3) -> tuple[Solution1D, StepDiagnostics]:
    """Advance one SSP-RK3 step; validates every stage state."""
    r1 = rhs(solution, params, theta)
    return _finish_step(solution, params, r1, dt, theta)


def _finish_step(solution: Solution1D, params: ModelParams, r1: RhsResult,
                 dt: float, theta: float) -> tuple[Solution1D, StepDiagnostics]:
    """Stages of SSP-RK3 given the step-start evaluation r1."""
    diag = StepDiagnostics(max_im_ratio=r1.max_im_ratio, max_speed=r1.max_speed)

    def stage(cells, t):
        r = rhs(Solution1D(solution.grid, cells, t), params, theta)
        diag.max_im_ratio = max(diag.max_im_ratio, r.max_im_ratio)
        diag.max_speed = max(diag.max_speed, r.max_speed)
        return r.dudt

    u0 = solution.cells
    t0 = solution.time
    u1 = u0 + dt * r1.dudt
    model1d.check_valid(u1, params.h_min)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * stage(u1, t0 + dt))
    model1d.check_valid(u2, params.h_min)
    u3 = u0 / 3.0 + (2.0 / 3.0) * (u2 + dt * stage(u2, t0 + 0.5 * dt))
    model1d.check_valid(u3, params.h_min)
    return Solution1D(solution.grid, u3, t0 + dt), diag


@dataclass
class RunStats:
    n_steps: int = 0
    max_im_ratio: float = 0.0
    wall_time: float = 0.0


def run(solution: Solution1D, params: ModelParams, t_final: float,
        nu: float = 0.45, theta: float = 1.3,
        dt_max: float = DEFAULT_DT_MAX,
        callback: Callable[[Solution1D, StepDiagnostics], None] | None = None,
        dt_controller: Callable[[Solution1D, float], float] | None = None,
        max_steps: int = 10_000_000) -> tuple[Solution1D, RunStats]:
    """March the solution to t_final with adaptive CFL steps.

    The step size is fixed once per step from the step-start speeds (the
    first stage evaluates that same state, so its speed bound is reused);
    later stages recompute interface speeds for their own fluxes.  An
    optional ``dt_controller(solution, dt_cfl) -> dt`` can shrink the step,
    e.g. to run two solvers in lockstep.
    """
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"CFL number nu={nu} outside (0, 0.5]")
    stats = RunStats()
    tic = time.perf_counter()
    sol = solution.copy()
    while sol.time < t_final - 1e-14 * max(1.0, t_final):
        r1 = rhs(sol, params, theta)
        dt = dt_max if r1.max_speed <= 0.0 else min(
            nu * sol.grid.dy / r1.max_speed, dt_max)
        if dt_controller is not None:
            dt = dt_controller(sol, dt)
        dt = min(dt, t_final - sol.time)
        sol, diag = _finish_step(sol, params, r1, dt, theta)
        stats.n_steps += 1
        stats.max_im_ratio = max(stats.max_im_ratio, diag.max_im_ratio)
        logger.debug("step %d t=%.6g dt=%.3e imag ratio %.2e",
                     stats.n_steps, sol.time, dt, diag.max_im_ratio)
        if callback is not None:
            callback(sol, diag)
        if stats.n_steps >= max_steps:
            raise SolverError(f"exceeded {max_steps} steps before t={t_final}")
    stats.wall_time = time.perf_counter() - tic
    return sol, stats
