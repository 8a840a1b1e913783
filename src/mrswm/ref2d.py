"""Vertically resolved reference solver on the (y, zeta) strip.

Evolves the mapped conservative fields U = (h, hu, hv, ha, hb) on
[y_min, y_max] x [0, 1] with central-upwind fluxes in both directions and
exact path integrals for the magnetic-divergence coupling, which acts
through the vector -(a, b, u, v) times [(hb)_y + (hC)_zeta].

The vertical transport operators are algebraic, not evolved: omega is
reconstructed from the central-upwind depth fluxes so the discrete depth
update is uniform in zeta, and the magnetic coupling hC is the running
depth sum of the limited divergence field.  A scalar field B ~ (hb)_y is
evolved alongside U (first-order accuracy suffices, it only feeds slopes)
and blended into the y-reconstruction of hb through the consistency
factor sigma, which makes the cell-wise y-slope of hb and zeta-slope of
hC cancel exactly: the scheme is locally divergence-free by construction.

Wave speeds are closed-form: v +- sqrt(b^2 + g h) in y and
omega +- |C| in zeta; the vertical flux vanishes identically at the
surface and bottom where omega = C = 0, so mass is exchanged only
horizontally.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DryStateError, SolverError
from .fv1d import FLAT_H_TOL, _cell_weights, _interface_weights, minmod3
from .model1d import DEFAULT_H_MIN

logger = logging.getLogger(__name__)


def _zero_fn(y):
    return np.zeros_like(np.asarray(y, dtype=float))


@dataclass(frozen=True)
class Grid2D:
    """Uniform mesh on [y_min, y_max] x [0, 1]."""

    y_min: float
    y_max: float
    n_y: int
    n_zeta: int
    boundary_y: str = "periodic"

    def __post_init__(self):
        if self.n_y < 4 or self.n_zeta < 4:
            raise ValueError("need at least 4 cells in each direction")
        if self.y_max <= self.y_min:
            raise ValueError("empty domain")
        if self.boundary_y not in ("periodic", "outflow"):
            raise ValueError(f"unknown boundary mode {self.boundary_y!r}")

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n_y

    @property
    def dzeta(self) -> float:
        return 1.0 / self.n_zeta

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.n_y) + 0.5) * self.dy

    def zeta_centers(self) -> np.ndarray:
        return (np.arange(self.n_zeta) + 0.5) * self.dzeta


@dataclass
class RefParams:
    """Physical parameters of the reference system."""

    g: float
    coriolis: Callable = _zero_fn
    bathymetry: Callable = _zero_fn
    bathymetry_slope: Callable = _zero_fn
    h_min: float = DEFAULT_H_MIN

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError(f"gravity must be positive, got {self.g}")


@dataclass
class Solution2D:
    """Cell averages of (h, hu, hv, ha, hb) plus the divergence field B."""

    grid: Grid2D
    U: np.ndarray            # (n_y, n_zeta, 5)
    B: np.ndarray            # (n_y, n_zeta)
    time: float = 0.0

    def copy(self) -> "Solution2D":
        return Solution2D(self.grid, self.U.copy(), self.B.copy(), self.time)


def flux_y(U: np.ndarray, g: float, h_min: float = DEFAULT_H_MIN) -> np.ndarray:
    """Horizontal flux G(U) of the reference system."""
    h = U[..., 0]
    if np.any(h <= h_min):
        raise DryStateError("depth at or below floor in flux evaluation")
    u, v, b = (U[..., k] / h for k in (1, 2, 4))
    G = np.zeros_like(U)
    G[..., 0] = U[..., 2]
    G[..., 1] = U[..., 1] * v - U[..., 3] * b
    G[..., 2] = U[..., 2] * v - U[..., 4] * b + 0.5 * g * h * h
    G[..., 3] = U[..., 3] * v - U[..., 4] * u
    return G


def flux_zeta(U: np.ndarray, omega, C) -> np.ndarray:
    """Vertical flux H(U) given mapped transport values omega and C."""
    om = np.asarray(omega)[..., None]
    h = U[..., 0]
    u, v, a, b = (U[..., k] / h for k in (1, 2, 3, 4))
    HC = np.asarray(C) * h
    Hf = U * om
    Hf[..., 1] -= a * HC
    Hf[..., 2] -= b * HC
    Hf[..., 3] -= u * HC
    Hf[..., 4] -= v * HC
    return Hf


def _extend_y(arr: np.ndarray, boundary: str, n_ghost: int = 2) -> np.ndarray:
    if boundary == "periodic":
        return np.concatenate([arr[-n_ghost:], arr, arr[:n_ghost]], axis=0)
    return np.concatenate([arr[:1]] * n_ghost + [arr] + [arr[-1:]] * n_ghost, axis=0)


def _minmod_slope(ext: np.ndarray, dx: float, theta: float, axis: int) -> np.ndarray:
    """Limited slope on the interior of an array with one ghost per side.

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


def sigma_factor(minmod_slope_hb: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Consistency limiter blending B into the hb reconstruction.

    sigma = min(1, minmod_slope / B) when both carry the same sign, else 0,
    so the effective slope sigma * B never exceeds the limited slope.
    """
    agree = minmod_slope_hb * B > 0.0
    safe_b = np.where(B != 0.0, B, 1.0)
    return np.where(agree, np.minimum(1.0, minmod_slope_hb / safe_b), 0.0)


def coupling_omega(h_up: np.ndarray, h_down: np.ndarray, flux_h: np.ndarray,
                   dy: float, dzeta: float) -> np.ndarray:
    """Vertical velocity transport omega at all zeta-interfaces.

    ``h_up``/``h_down`` are the upper/lower face depths per cell (n_y, n_z)
    and ``flux_h`` the central-upwind depth fluxes at the y-interfaces
    (n_y + 1, n_z).  The running depth sum is built so the resulting
    discrete depth update is the column mean of the flux divergence,
    keeping h uniform in zeta; omega vanishes at zeta = 0 and 1 (the
    telescoping sum makes the top value zero to round-off; it is forced).
    """
    n_y, n_z = h_up.shape
    flux_div = (flux_h[1:] - flux_h[:-1]) / dy            # (n_y, n_z)
    hvm_y = dzeta * flux_div.sum(axis=1)                  # (n_y,)
    partial = np.cumsum(dzeta * (hvm_y[:, None] - flux_div), axis=1)
    omega = np.zeros((n_y, n_z + 1))
    denom = h_down[:, 1:] + h_up[:, :-1]
    omega[:, 1:-1] = 2.0 * partial[:, :-1] / denom
    return omega


def coupling_c(sigma_b: np.ndarray, dzeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Magnetic coupling hC at zeta-interfaces and cell centers.

    ``sigma_b`` holds the limited divergence slopes sigma * B per cell.
    The interface values are the running depth sum
    (hC)_{k+1/2} = -dzeta * sum_{l<=k} sigma_l B_l (zero at the bottom),
    and the cell value is their midpoint, i.e. the half-weight falls on
    the cell itself; the zeta-slope of hC is then exactly -sigma * B, the
    negative of the hb y-slope, which is the local divergence-free
    property of the reconstruction.
    """
    n_y, n_z = sigma_b.shape
    faces = np.zeros((n_y, n_z + 1))
    faces[:, 1:] = -dzeta * np.cumsum(sigma_b, axis=1)
    centers = 0.5 * (faces[:, :-1] + faces[:, 1:])
    return faces, centers


def _cu_combine(F_l, F_r, U_l, U_r, sm, sp, out=None):
    """Central-upwind flux from face fluxes and one-sided speeds.

    Evaluates (sp F_l - sm F_r) / (sp - sm) + sp sm / (sp - sm) (U_r - U_l),
    and 0 where sp = sm, into ``out`` (a new array if None).  ``F_r`` is
    overwritten.
    """
    width = sp - sm
    moving = width > 0.0
    safe = np.where(moving, width, 1.0)[..., None]
    smn = sm[..., None]
    spn = sp[..., None]
    out = np.multiply(spn, F_l, out=out)
    np.multiply(smn, F_r, out=F_r)
    out -= F_r
    out /= safe
    np.subtract(U_r, U_l, out=F_r)
    F_r *= spn * smn / safe
    out += F_r
    if not moving.all():
        out[~moving] = 0.0
    return out


@dataclass
class Rhs2DResult:
    dudt: np.ndarray
    dbdt: np.ndarray
    max_speed_y: float
    max_speed_z: float
    div_residual: float


def _clip_h_slope(mid_h, slope_h, half_dx, h_min):
    bad = (mid_h + half_dx * slope_h <= h_min) | (mid_h - half_dx * slope_h <= h_min)
    if np.any(bad):
        logger.warning("clipped depth slope in %d cell(s)", int(bad.sum()))
        slope_h = np.where(bad, 0.0, slope_h)
    return slope_h


@dataclass
class Reconstruction2D:
    """Limited reconstruction on the n_y + 2 rows with one ghost row per side.

    The hb component of ``slope_y`` is the divergence slope sigma * B; the
    depth slopes are clipped to keep every face depth above the floor.
    """

    u_bar: np.ndarray      # (n_y+2, n_zeta, 5) cell averages
    b_bar: np.ndarray      # (n_y+2, n_zeta) divergence field B
    slope_y: np.ndarray    # (n_y+2, n_zeta, 5)
    slope_z: np.ndarray    # (n_y+2, n_zeta, 5)
    north: np.ndarray      # (n_y+2, n_zeta, 5) face values at y + dy/2
    south: np.ndarray      # ... at y - dy/2
    up: np.ndarray         # ... at zeta + dzeta/2
    down: np.ndarray       # ... at zeta - dzeta/2


def reconstruct2d(solution: Solution2D, params: RefParams,
                  theta: float) -> Reconstruction2D:
    """Limited piecewise-linear face values in both directions."""
    grid = solution.grid
    dy, dz = grid.dy, grid.dzeta
    ext = _extend_y(solution.U, grid.boundary_y)          # (n_y+4, n_z, 5)
    mid = ext[1:-1]
    B_mid = _extend_y(solution.B, grid.boundary_y, 1)

    sy = _minmod_slope(ext, dy, theta, axis=0)
    sy[..., 4] = sigma_factor(sy[..., 4], B_mid) * B_mid
    sy[..., 0] = _clip_h_slope(mid[..., 0], sy[..., 0], 0.5 * dy, params.h_min)

    ext_z = np.concatenate([mid[:, :1], mid, mid[:, -1:]], axis=1)
    sz = _minmod_slope(ext_z, dz, theta, axis=1)
    sz[..., 0] = _clip_h_slope(mid[..., 0], sz[..., 0], 0.5 * dz, params.h_min)

    half = 0.5 * dy * sy
    north, south = mid + half, mid - half
    np.multiply(0.5 * dz, sz, out=half)
    return Reconstruction2D(u_bar=mid, b_bar=B_mid, slope_y=sy, slope_z=sz,
                            north=north, south=south, up=mid + half, down=mid - half)


def rhs2d(solution: Solution2D, params: RefParams, theta: float) -> Rhs2DResult:
    """Semi-discrete time derivative of (U, B)."""
    grid = solution.grid
    dy, dz = grid.dy, grid.dzeta
    n_y, n_z = grid.n_y, grid.n_zeta
    g = params.g

    rec = reconstruct2d(solution, params, theta)
    mid, B_mid, sy = rec.u_bar, rec.b_bar, rec.slope_y
    real = slice(1, -1)

    # --- horizontal central-upwind fluxes ---------------------------------
    L, R = rec.north[:-1], rec.south[1:]                  # (n_y+1, n_z, 5)
    for face in (L, R):
        if np.any(face[..., 0] <= params.h_min):
            raise DryStateError("face depth at or below floor")

    def wave(U):
        h = U[..., 0]
        v = U[..., 2] / h
        root = np.sqrt(U[..., 4] ** 2 / h ** 2 + g * h)
        return v - root, v + root

    lo_l, hi_l = wave(L)
    lo_r, hi_r = wave(R)
    sp_y = np.maximum(np.maximum(hi_l, hi_r), 0.0)
    sm_y = np.minimum(np.minimum(lo_l, lo_r), 0.0)
    Gf = _cu_combine(flux_y(L, g, params.h_min), flux_y(R, g, params.h_min),
                     L, R, sm_y, sp_y)

    # --- vertical transport operators -------------------------------------
    h_up = rec.up[real, :, 0]
    h_down = rec.down[real, :, 0]
    omega = coupling_omega(h_up, h_down, Gf[..., 0], dy, dz)   # (n_y, n_z+1)
    hc_face_all, hc_cen_all = coupling_c(sy[..., 4], dz)       # incl. ghost rows
    hc_face = hc_face_all[real]
    sigma_b = sy[real, :, 4]                                   # sigma * B

    # --- vertical central-upwind fluxes -----------------------------------
    om_int = omega[:, 1:-1]                                # (n_y, n_z-1)
    c_up = hc_face[:, 1:-1] / h_up[:, :-1]
    c_dn = hc_face[:, 1:-1] / h_down[:, 1:]
    up = rec.up[real, :-1]
    dn = rec.down[real, 1:]
    sp_z = np.maximum(np.maximum(om_int + np.abs(c_up), om_int + np.abs(c_dn)), 0.0)
    sm_z = np.minimum(np.minimum(om_int - np.abs(c_up), om_int - np.abs(c_dn)), 0.0)
    Hf = np.empty((n_y, n_z + 1, 5))
    Hf[:, [0, -1]] = 0.0
    _cu_combine(flux_zeta(up, om_int, c_up), flux_zeta(dn, om_int, c_dn),
                up, dn, sm_z, sp_z, out=Hf[:, 1:-1])

    # --- nonconservative products ------------------------------------------
    # weights of all five components keep the operands contiguous
    U_real = mid[real]
    sy_real = sy[real]
    sz_real = rec.slope_z[real]
    Qy_cell = _gp_rows(_cell_weights(U_real[..., 0], sy_real[..., 0],
                                     U_real, sy_real, dy), sigma_b)
    Qy_if = _gp_rows(_interface_weights(L[..., 0], R[..., 0], L, R),
                     R[..., 4] - L[..., 4])
    Qz_cell = _gp_rows(_cell_weights(U_real[..., 0], sz_real[..., 0],
                                     U_real, sz_real, dz), -sigma_b)
    # interface path terms in zeta vanish: hC is single-valued at faces

    width_y = sp_y - sm_y
    safe_y = np.where(width_y > 0.0, width_y, 1.0)
    cl = np.where(width_y > 0.0, sp_y / safe_y, 0.0)[..., None]
    cr = np.where(width_y > 0.0, sm_y / safe_y, 0.0)[..., None]

    y = grid.y_centers()
    f = np.broadcast_to(np.asarray(params.coriolis(y), dtype=float), y.shape)[:, None]
    z_y = np.broadcast_to(np.asarray(params.bathymetry_slope(y), dtype=float),
                          y.shape)[:, None]

    # dudt = -(dG - Qy_cell - cl Qy_if + cr Qy_if) / dy - (dH - Qz_cell) / dz + S
    dudt = np.subtract(Gf[1:], Gf[:-1])
    dudt -= Qy_cell
    tmp = np.multiply(cl[:-1], Qy_if[:-1], out=Qy_cell)
    dudt -= tmp
    np.multiply(cr[1:], Qy_if[1:], out=tmp)
    dudt += tmp
    np.negative(dudt, out=dudt)
    dudt /= dy
    np.subtract(Hf[:, 1:], Hf[:, :-1], out=tmp)
    tmp -= Qz_cell
    tmp /= dz
    dudt -= tmp
    S = np.zeros_like(dudt)
    S[..., 1] = f * U_real[..., 2]
    S[..., 2] = -f * U_real[..., 1] - g * U_real[..., 0] * z_y
    dudt += S

    # --- divergence-field evolution (first-order fluxes) --------------------
    v_mid = mid[..., 2] / mid[..., 0]
    ext_vz = np.concatenate([v_mid[:, :1], v_mid, v_mid[:, -1:]], axis=1)
    v_zeta = _minmod_slope(ext_vz, dz, theta, axis=1)      # (n_y+2, n_z)
    phi_y = v_mid * B_mid - hc_cen_all * v_zeta            # (n_y+2, n_z)

    FyB = _cu_scalar(phi_y[:-1], phi_y[1:], B_mid[:-1], B_mid[1:], sm_y, sp_y)

    om_cen = 0.5 * (omega[:, :-1] + omega[:, 1:])
    om_ext = _extend_y(om_cen, grid.boundary_y, 1)
    om_y = _minmod_slope(om_ext, dy, theta, axis=0)        # (n_y, n_z)
    B_real = solution.B
    hb_real = U_real[..., 4]
    psi = omega[:, 1:-1]
    up_val = psi * B_real[:, :-1] + hb_real[:, :-1] * om_y[:, :-1]
    dn_val = psi * B_real[:, 1:] + hb_real[:, 1:] * om_y[:, 1:]
    FzB = np.zeros((n_y, n_z + 1))
    FzB[:, 1:-1] = _cu_scalar(up_val, dn_val, B_real[:, :-1], B_real[:, 1:],
                              sm_z, sp_z)

    dbdt = -(FyB[1:] - FyB[:-1]) / dy - (FzB[:, 1:] - FzB[:, :-1]) / dz

    slope_hc = (hc_face[:, 1:] - hc_face[:, :-1]) / dz
    b_scale = np.abs(solution.B).max()
    div_residual = float(np.abs(sigma_b + slope_hc).max())
    return Rhs2DResult(dudt=dudt, dbdt=dbdt,
                       max_speed_y=float(np.maximum(sp_y, -sm_y).max()),
                       max_speed_z=float(np.maximum(sp_z, -sm_z).max())
                       if sp_z.size else 0.0,
                       div_residual=div_residual if b_scale == 0.0
                       else div_residual / b_scale)


def _gp_rows(W: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Godunov-Powell contributions -(a, b, u, v) * integral per row.

    ``W`` holds int chi/h for chi = U in its last axis and ``grad`` the
    slope or jump of the divergence carrier.
    """
    out = W[..., [0, 3, 4, 1, 2]]
    out *= -grad[..., None]
    out[..., 0] = 0.0
    return out


def _cu_scalar(f_l, f_r, q_l, q_r, sm, sp):
    width = sp - sm
    safe = np.where(width > 0.0, width, 1.0)
    out = (sp * f_l - sm * f_r) / safe + (sp * sm / safe) * (q_r - q_l)
    return np.where(width > 0.0, out, 0.0)


def depth_average(solution: Solution2D) -> np.ndarray:
    """Columns (h, u_m, v_m, a_m, b_m): depth-weighted vertical means."""
    U = solution.U
    h_col = U[..., 0].sum(axis=1)
    out = np.empty((solution.grid.n_y, 5))
    out[:, 0] = U[..., 0].mean(axis=1)
    for k in range(1, 5):
        out[:, k] = U[..., k].sum(axis=1) / h_col
    return out


def profile_slice(solution: Solution2D, y0: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Primitive vertical profile of the column nearest y0.

    Ties on a cell boundary resolve to the lower-index column.  Returns
    (column index, zeta midpoints, primitives (n_zeta, 5)).
    """
    grid = solution.grid
    if not grid.y_min <= y0 <= grid.y_max:
        raise ValueError(f"y0={y0} outside [{grid.y_min}, {grid.y_max}]")
    pos = (y0 - grid.y_min) / grid.dy
    j = int(np.floor(pos))
    if pos == j and j > 0:
        j -= 1
    j = min(j, grid.n_y - 1)
    col = solution.U[j]
    prim = col.copy()
    prim[:, 1:] /= col[:, :1]
    return j, grid.zeta_centers(), prim


def cfl_dt_2d(solution: Solution2D, params: RefParams, nu: float,
              theta: float, dt_max: float = 1.0) -> float:
    """CFL bound min over directions of nu * dx / max speed."""
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"CFL number nu={nu} outside (0, 0.5]")
    r = rhs2d(solution, params, theta)
    dt = dt_max
    if r.max_speed_y > 0.0:
        dt = min(dt, nu * solution.grid.dy / r.max_speed_y)
    if r.max_speed_z > 0.0:
        dt = min(dt, nu * solution.grid.dzeta / r.max_speed_z)
    return dt


@dataclass
class Step2DDiagnostics:
    max_speed_y: float = 0.0
    max_speed_z: float = 0.0
    div_residual: float = 0.0


def step_ssprk3_2d(solution: Solution2D, params: RefParams, dt: float,
                   theta: float) -> tuple[Solution2D, Step2DDiagnostics]:
    """One SSP-RK3 step of (U, B); transport operators rebuilt per stage."""
    r1 = rhs2d(solution, params, theta)
    return _finish_step_2d(solution, params, r1, dt, theta)


def _finish_step_2d(solution: Solution2D, params: RefParams, r1: Rhs2DResult,
                    dt: float, theta: float) -> tuple[Solution2D, Step2DDiagnostics]:
    diag = Step2DDiagnostics(max_speed_y=r1.max_speed_y,
                             max_speed_z=r1.max_speed_z,
                             div_residual=r1.div_residual)

    def stage(U, B, t):
        r = rhs2d(Solution2D(solution.grid, U, B, t), params, theta)
        diag.max_speed_y = max(diag.max_speed_y, r.max_speed_y)
        diag.max_speed_z = max(diag.max_speed_z, r.max_speed_z)
        diag.div_residual = max(diag.div_residual, r.div_residual)
        return r

    def check(U):
        if not np.all(np.isfinite(U)):
            raise DryStateError("non-finite state in 2-D step")
        if np.any(U[..., 0] <= params.h_min):
            raise DryStateError("depth at or below floor in 2-D step")

    U0, B0, t0 = solution.U, solution.B, solution.time
    U1, B1 = U0 + dt * r1.dudt, B0 + dt * r1.dbdt
    check(U1)
    r2 = stage(U1, B1, t0 + dt)
    U2 = 0.75 * U0 + 0.25 * (U1 + dt * r2.dudt)
    B2 = 0.75 * B0 + 0.25 * (B1 + dt * r2.dbdt)
    check(U2)
    r3 = stage(U2, B2, t0 + 0.5 * dt)
    U3 = U0 / 3.0 + (2.0 / 3.0) * (U2 + dt * r3.dudt)
    B3 = B0 / 3.0 + (2.0 / 3.0) * (B2 + dt * r3.dbdt)
    check(U3)
    return Solution2D(solution.grid, U3, B3, t0 + dt), diag


@dataclass
class Run2DStats:
    n_steps: int = 0
    max_div_residual: float = 0.0
    wall_time: float = 0.0


def run2d(solution: Solution2D, params: RefParams, t_final: float,
          nu: float = 0.45, theta: float = 1.3, dt_max: float = 1.0,
          callback: Callable[[Solution2D, Step2DDiagnostics], None] | None = None,
          dt_controller: Callable[[Solution2D, float], float] | None = None,
          max_steps: int = 10_000_000) -> tuple[Solution2D, Run2DStats]:
    """March the reference solution to t_final with adaptive CFL steps.

    As in the 1-D driver, the step-start evaluation provides both the CFL
    bound and the first stage; ``dt_controller`` may shrink the step.
    """
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"CFL number nu={nu} outside (0, 0.5]")
    stats = Run2DStats()
    tic = time.perf_counter()
    sol = solution.copy()
    while sol.time < t_final - 1e-14 * max(1.0, t_final):
        r1 = rhs2d(sol, params, theta)
        dt = dt_max
        if r1.max_speed_y > 0.0:
            dt = min(dt, nu * sol.grid.dy / r1.max_speed_y)
        if r1.max_speed_z > 0.0:
            dt = min(dt, nu * sol.grid.dzeta / r1.max_speed_z)
        if dt_controller is not None:
            dt = dt_controller(sol, dt)
        dt = min(dt, t_final - sol.time)
        sol, diag = _finish_step_2d(sol, params, r1, dt, theta)
        stats.n_steps += 1
        stats.max_div_residual = max(stats.max_div_residual, diag.div_residual)
        if callback is not None:
            callback(sol, diag)
        if stats.n_steps >= max_steps:
            raise SolverError(f"exceeded {max_steps} steps before t={t_final}")
    stats.wall_time = time.perf_counter() - tic
    return sol, stats


def make_divergence_field(U: np.ndarray, grid: Grid2D, theta: float) -> np.ndarray:
    """Initial B from the limited y-slope of hb (consistent start value)."""
    ext = _extend_y(U[..., 4:5], grid.boundary_y)
    return _minmod_slope(ext, grid.dy, theta, axis=0)[1:-1, :, 0]
