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
state.  For linear reconstructions the weights are exact closed forms in
the relative depth change r across the cell or jump, through the
phi-functions phi1(r) = log1p(r)/r and phi2(r) = (1 - phi1(r))/r
(``_phi``), which are accurate for every r > -1.
"""

from __future__ import annotations

import ctypes
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import model1d
from .errors import DryStateError, HyperbolicityError, SolverError
from .model1d import H, ModelParams

logger = logging.getLogger(__name__)

#: Step taken when every speed vanishes.
DT_MAX = 1.0
#: Steps after which ``integrate`` gives up on reaching the final time.
MAX_STEPS = 10_000_000


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


def minmod3(z1, z2, z3):
    """Generalized minmod: least-magnitude value if all signs agree, else 0.

    All three are positive exactly when their minimum is, and all negative
    exactly when their maximum is.
    """
    lo = np.minimum(np.minimum(z1, z2), z3)
    hi = np.maximum(np.maximum(z1, z2), z3)
    return np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))[()]


def fill_ghosts(cells: np.ndarray, boundary: str, n_ghost: int = 2,
                out: np.ndarray | None = None) -> np.ndarray:
    """Append ghost cells per side along axis 0 (periodic wrap or copy of the
    edge), into ``out`` (a new array if None)."""
    if boundary == "periodic":
        return np.concatenate([cells[-n_ghost:], cells, cells[:n_ghost]], out=out)
    return np.concatenate([cells[:1]] * n_ghost + [cells] + [cells[-1:]] * n_ghost,
                          out=out)


def limited_slope(ext: np.ndarray, dx: float, theta: float, axis: int = 0) -> np.ndarray:
    """Generalized-minmod slope on the interior of an array with one ghost
    per side along ``axis``.

    The backward difference of a cell is the forward difference of the
    one before it, so each difference is formed once.
    """
    ext = np.moveaxis(ext, axis, 0)
    diff = np.subtract(ext[1:], ext[:-1])
    diff /= dx
    central = diff[1:] + diff[:-1]
    central *= 0.5
    diff *= theta
    return np.moveaxis(minmod3(diff[1:], central, diff[:-1]), 0, axis)


def clip_depth_slope(u_bar: np.ndarray, slope: np.ndarray, dx: float,
                     h_min: float) -> np.ndarray:
    """Zero, in place, the depth slope of every cell in which a face depth
    would fall to or below the floor; return the mask of those cells."""
    half = 0.5 * dx * slope[..., H]
    h = u_bar[..., H]
    bad = (h + half <= h_min) | (h - half <= h_min)
    if np.any(bad):
        slope[..., H][bad] = 0.0
    return bad


def warn_clipped(n_cells: int) -> None:
    """Log how many depth slopes ``clip_depth_slope`` zeroed, if any; the
    solvers call it once per right-hand side and direction."""
    if n_cells:
        logger.warning("clipped depth slope in %d cell(s) to keep h above floor",
                       int(n_cells))


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
    slope = limited_slope(ext, dy, theta)
    warn_clipped(clip_depth_slope(mid, slope, dy, h_min).sum())

    north = mid + 0.5 * dy * slope
    south = mid - 0.5 * dy * slope
    return Reconstruction(u_bar=mid, slope=slope, south=south, north=north)


def cu_flux_from_values(G_l, G_r, U_left, U_right, s_minus, s_plus,
                        out=None) -> np.ndarray:
    """Central-upwind flux from face fluxes and one-sided speeds.

    Evaluates (sp G_l - sm G_r) / (sp - sm) + sp sm / (sp - sm) (U_r - U_l)
    over the trailing component axis, and 0 where sp = sm, into ``out``
    (a new array if None).  ``G_r`` is overwritten.
    """
    sm = np.asarray(s_minus, dtype=float)
    sp = np.asarray(s_plus, dtype=float)
    width = sp - sm
    moving = width > 0.0
    safe = np.where(moving, width, 1.0)[..., None]
    smn = sm[..., None]
    spn = sp[..., None]
    out = np.multiply(spn, G_l, out=out)
    np.multiply(smn, G_r, out=G_r)
    out -= G_r
    out /= safe
    np.subtract(U_right, U_left, out=G_r)
    G_r *= spn * smn / safe
    out += G_r
    if not moving.all():
        out[~moving] = 0.0
    return out


#: |r| below which ``_phi`` takes phi2 from its Taylor series
#: sum_k (-r)^k / (k + 2), k = 0..8, whose truncation error there is below
#: |r|^9 / 11 < 5e-17.  At and above it the closed form (1 - phi1) / r
#: loses about eps / |r| < 1.2e-14 to cancellation.
_PHI_SERIES_MAX = 2e-2
_PHI2_TAYLOR = [(-1.0) ** k / (k + 2) for k in reversed(range(9))]


def _phi(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(r) = log1p(r) / r and phi2(r) = (1 - phi1(r)) / r for r > -1.

    These are int_0^1 ds / (1 + r s) and int_0^1 s ds / (1 + r s), the
    phi-functions of exponential integrators (Higham, Functions of
    Matrices, SIAM 2008, ch. 10), with limits 1 and 1/2 at r = 0.  Every
    element takes the same arithmetic: the series of phi2 at r clipped to
    the cutoff, the closed form at |r| raised to it, and a 0/1-weighted
    blend of the two, so the cost does not depend on which elements are
    near zero.  phi1 = 1 - r phi2 for all r.
    """
    cut = _PHI_SERIES_MAX
    r_s = np.clip(r, -cut, cut)
    phi2 = r_s * _PHI2_TAYLOR[0]
    for coef in _PHI2_TAYLOR[1:-1]:
        phi2 += coef
        phi2 *= r_s
    phi2 += _PHI2_TAYLOR[-1]
    abs_r = np.abs(r)
    r_c = np.copysign(np.maximum(abs_r, cut), r)
    closed = np.log1p(r_c)
    closed /= r_c                           # phi1 at r_c
    np.subtract(1.0, closed, out=closed)
    closed /= r_c                           # phi2 at r_c
    closed -= phi2
    closed *= abs_r >= cut                  # 0 where the series holds
    phi2 += closed
    return 1.0 - r * phi2, phi2


def _cell_weights(h_bar, h_slope, chi_bar, chi_slope, dx) -> np.ndarray:
    """W_k = int_cell (chi~_k / h~) dy for linear reconstructions.

    Shapes: h_bar, h_slope (...,); chi_bar, chi_slope (..., n).  With the
    south face depth h_S and r = dx h_slope / h_S, the integral is
    dx / h_S (chi_bar phi1 + dx chi_slope (phi2 - phi1 / 2)).
    """
    dh = h_slope * dx                       # h^N - h^S
    h_s = h_bar - 0.5 * dh
    phi1, phi2 = _phi(dh / h_s)
    scale = dx / h_s
    W = chi_bar * (scale * phi1)[..., None]
    W += chi_slope * (scale * dx * (phi2 - 0.5 * phi1))[..., None]
    return W


def _interface_weights(h_l, h_r, chi_l, chi_r) -> np.ndarray:
    """W_k = int_0^1 chi_k(path) / h(path) ds along the linear path.

    With r = (h_r - h_l) / h_l this is (chi_l (phi1 - phi2) + chi_r phi2) / h_l.
    """
    phi1, phi2 = _phi((h_r - h_l) / h_l)
    W = chi_l * ((phi1 - phi2) / h_l)[..., None]
    W += chi_r * (phi2 / h_l)[..., None]
    return W


def _contract_path(W: np.ndarray, grad: np.ndarray,
                   params: ModelParams) -> np.ndarray:
    """sum_{c,k} T[r,c,k] W[k] grad[c] over the (c, k) pairs with a nonzero
    coefficient (``ModelParams.path_pairs``), as products plus a matmul."""
    c, k, coef = params.path_pairs
    return (grad[..., c] * W[..., k]) @ coef


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


def cu_rates(F: np.ndarray, Q_cell: np.ndarray, Q_iface: np.ndarray,
             s_minus: np.ndarray, s_plus: np.ndarray, dx: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """Path-conservative central-upwind cell rates (Castro Diaz, Kurganov &
    Morales de Luna 2019) along axis 0, with c+- = s+- / (s+ - s-) (0 where
    s+ = s-):  -(F_{j+1/2} - F_{j-1/2} - Q_j - c+_{j-1/2} Q_{j-1/2}
    + c-_{j+1/2} Q_{j+1/2}) / dx.  ``F``, ``Q_iface`` and the speeds hold
    one interface more than ``Q_cell`` holds cells; components are last.
    Writes into ``out`` (a new array if None); ``Q_cell`` is overwritten.
    """
    width = s_plus - s_minus
    safe = np.where(width > 0.0, width, 1.0)
    c_plus = np.where(width > 0.0, s_plus / safe, 0.0)[..., None]
    c_minus = np.where(width > 0.0, s_minus / safe, 0.0)[..., None]
    out = np.subtract(F[1:], F[:-1], out=out)
    out -= Q_cell
    tmp = np.multiply(c_plus[:-1], Q_iface[:-1], out=Q_cell)
    out -= tmp
    np.multiply(c_minus[1:], Q_iface[1:], out=tmp)
    out += tmp
    np.negative(out, out=out)
    out /= dx
    return out


@dataclass
class StepDiagnostics:
    """What a right-hand side reports; for a step, the max over its stages."""

    max_speed: tuple[float, ...]     # one per direction of the state
    max_im_ratio: float = 0.0        # moment solver
    div_residual: float = 0.0        # reference solver

    def merge(self, other: "StepDiagnostics") -> "StepDiagnostics":
        return StepDiagnostics(tuple(map(max, self.max_speed, other.max_speed)),
                               max(self.max_im_ratio, other.max_im_ratio),
                               max(self.div_residual, other.div_residual))


def rhs(solution: Solution1D, params: ModelParams,
        theta: float) -> tuple[tuple[np.ndarray], StepDiagnostics]:
    """Semi-discrete time derivative of the cell averages, as the pair
    (rates, diagnostics) that ``integrate`` takes from a right-hand side."""
    grid = solution.grid
    dy = grid.dy
    rec = reconstruct(solution, theta, params.h_min)

    U_l = rec.north[:-1]        # left of interface i (n+1, nvar)
    U_r = rec.south[1:]         # right of interface i
    both = np.concatenate([U_l, U_r])
    quad = model1d.quadratic_flux(both, params)   # shared by the speeds and G
    s_minus, s_plus, im_ratio = model1d.interface_speeds(U_l, U_r, params,
                                                         quad=quad)

    G_both = model1d.flux_g(both, params, quad)
    n_if = U_l.shape[0]
    F = cu_flux_from_values(G_both[:n_if], G_both[n_if:], U_l, U_r,
                            s_minus, s_plus)

    Q_cell = path_integral_cell(rec.u_bar[1:-1], rec.slope[1:-1], dy, params)
    Q_iface = path_integral_interface(U_l, U_r, params)

    y = grid.centers()
    f = np.broadcast_to(np.asarray(params.coriolis(y), dtype=float), y.shape)
    dudt = cu_rates(F, Q_cell, Q_iface, s_minus, s_plus, dy)
    dudt += model1d.source_s(solution.cells, f)
    max_speed = float(np.maximum(s_plus, -s_minus).max())
    return (dudt,), StepDiagnostics((max_speed,), im_ratio)


@dataclass
class RunStats:
    n_steps: int = 0
    max_im_ratio: float = 0.0
    max_div_residual: float = 0.0
    wall_time: float = 0.0


State = tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def _openblas():
    """(file name, get, set) of the thread-count functions of the OpenBLAS
    bundled with numpy, or None if there is none with those symbols."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
            get = handle.scipy_openblas_get_num_threads64_
            put = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        put.argtypes = [ctypes.c_int]
        put.restype = None
        return lib.name, get, put
    return None


def blas_environment() -> dict:
    """The manifest's BLAS entries: the bundled OpenBLAS's file name and the
    thread count ``integrate`` runs it with (None for both without one)."""
    blas = _openblas()
    if blas is None:
        return {"blas": None, "blas_threads": None}
    return {"blas": blas[0], "blas_threads": 1}


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, then
    restore its previous count.  The moment solver's small matmuls gain
    nothing from a second thread, whose spinning would take the core the
    spectrum threads (``model1d.interface_speeds``) need."""
    blas = _openblas()
    if blas is None:
        yield
        return
    _, get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def integrate(state: State, t0: float, t_final: float, rhs: Callable,
              spacing: tuple[float, ...], nu: float, floors: tuple[float | None, ...],
              callback: Callable | None = None) -> tuple[State, float, RunStats]:
    """March a tuple of arrays from t0 to t_final with three-stage SSP-RK3
    (Gottlieb, Shu & Tadmor 2001) under a CFL bound.

    ``rhs(state, t)`` returns the derivatives of the arrays and the
    StepDiagnostics of that evaluation, whose ``max_speed`` pairs with the
    mesh widths in ``spacing``.  The step-start evaluation, also the first
    stage, fixes dt = min(DT_MAX, nu dx / s over directions with s > 0),
    cut to land on t_final.  The initial state and every stage of an array
    with a depth floor in ``floors`` (None: no depth) go through
    ``model1d.check_valid``.  Each array keeps its memory order.
    A HyperbolicityError from ``rhs`` is raised again with the stage time
    in its message and ``time``.  ``callback(state, t, diagnostics)`` runs
    after each step.  The march runs numpy's bundled OpenBLAS at one
    thread and restores its thread count on the way out, returning or
    raising: the CPUs are left to the spectrum threads of
    ``model1d.interface_speeds`` (the reference solver makes no BLAS calls).
    """
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"CFL number nu={nu} outside (0, 0.5]")

    def check(u: State, t: float) -> None:
        for arr, h_min in zip(u, floors):
            if h_min is not None:
                model1d.check_valid(arr, h_min, t)

    def stage(u: State, t: float):
        try:
            return rhs(u, t)
        except HyperbolicityError as exc:
            raise HyperbolicityError(f"{exc} at t={t:.6g}", exc.ratio,
                                     exc.location, t) from exc

    with _one_blas_thread():
        stats = RunStats()
        tic = time.perf_counter()
        # np.copy keeps each array's memory order (a component-first state stays so)
        u0, t = tuple(np.copy(arr) for arr in state), t0
        check(u0, t)
        while t < t_final - 1e-14 * max(1.0, t_final):
            k1, diag = stage(u0, t)
            dt = min([DT_MAX] + [nu * dx / s for dx, s in zip(spacing, diag.max_speed)
                                 if s > 0.0])
            dt = min(dt, t_final - t)
            # each stage's arrays are dropped once no later stage reads
            # them, so a right-hand side runs beside no dead state
            u1 = tuple(u + dt * k for u, k in zip(u0, k1))
            del k1
            check(u1, t + dt)
            k2, d2 = stage(u1, t + dt)
            u2 = tuple(0.75 * u + 0.25 * (v + dt * k) for u, v, k in zip(u0, u1, k2))
            del u1, k2
            check(u2, t + 0.5 * dt)
            k3, d3 = stage(u2, t + 0.5 * dt)
            u0 = tuple(u / 3.0 + (2.0 / 3.0) * (v + dt * k) for u, v, k in zip(u0, u2, k3))
            del u2, k3
            t = t + dt
            check(u0, t)
            diag = diag.merge(d2).merge(d3)
            stats.n_steps += 1
            stats.max_im_ratio = max(stats.max_im_ratio, diag.max_im_ratio)
            stats.max_div_residual = max(stats.max_div_residual, diag.div_residual)
            logger.debug("step %d t=%.6g dt=%.3e imag ratio %.2e",
                         stats.n_steps, t, dt, diag.max_im_ratio)
            if callback is not None:
                callback(u0, t, diag)
            if stats.n_steps >= MAX_STEPS:
                raise SolverError(f"exceeded {MAX_STEPS} steps before t={t_final}")
        stats.wall_time = time.perf_counter() - tic
        return u0, t, stats


def run(solution: Solution1D, params: ModelParams, t_final: float,
        nu: float = 0.45, theta: float = 1.3,
        callback: Callable[[Solution1D, StepDiagnostics], None] | None = None,
        ) -> tuple[Solution1D, RunStats]:
    """March the solution to t_final with adaptive CFL steps (``integrate``)."""
    grid = solution.grid
    on_step = None if callback is None else (
        lambda state, t, diag: callback(Solution1D(grid, state[0], t), diag))
    (cells,), t, stats = integrate(
        (solution.cells,), solution.time, t_final,
        lambda state, t: rhs(Solution1D(grid, state[0], t), params, theta),
        (grid.dy,), nu, (params.h_min,), on_step)
    return Solution1D(grid, cells, t), stats
