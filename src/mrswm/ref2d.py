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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DryStateError
from .fv1d import (RunStats, StepDiagnostics, _cell_weights, _interface_weights,
                   clip_depth_slope, cu_flux_from_values, fill_ghosts, integrate,
                   limited_slope)
from .model1d import DEFAULT_H_MIN, _zero_fn, source_s


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
    h_min: float = DEFAULT_H_MIN

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError(f"gravity must be positive, got {self.g}")


@dataclass
class Solution2D:
    """Cell averages of (h, hu, hv, ha, hb) plus the divergence field B."""

    grid: Grid2D
    U: np.ndarray            # (n_y, n_zeta, 5), stored component-first
    B: np.ndarray            # (n_y, n_zeta)
    time: float = 0.0

    def __post_init__(self):
        # U is a view of a C-contiguous (5, n_y, n_zeta) buffer: component
        # slices are contiguous, and ops broadcast over the components run
        # along rows of n_zeta.  ufuncs keep that order through the rhs and
        # the stages; an input in any other order is copied once.
        self.U = np.moveaxis(np.ascontiguousarray(np.moveaxis(self.U, -1, 0)), 0, -1)

    def __reduce__(self):
        # pickle restores __dict__ without __post_init__, and numpy pickles
        # U in C order: rebuild through the constructor to restore the layout
        return type(self), (self.grid, self.U, self.B, self.time)


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


@dataclass
class Rhs2DResult:
    dudt: np.ndarray
    dbdt: np.ndarray
    max_speed_y: float
    max_speed_z: float
    div_residual: float


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
    ext = fill_ghosts(solution.U, grid.boundary_y)         # (n_y+4, n_z, 5)
    mid = ext[1:-1]
    B_mid = fill_ghosts(solution.B, grid.boundary_y, 1)

    sy = limited_slope(ext, dy, theta)
    sy[..., 4] = sigma_factor(sy[..., 4], B_mid) * B_mid
    clip_depth_slope(mid, sy, dy, params.h_min)

    ext_z = np.concatenate([mid[:, :1], mid, mid[:, -1:]], axis=1)
    sz = limited_slope(ext_z, dz, theta, axis=1)
    clip_depth_slope(mid, sz, dz, params.h_min)

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
    Gf = cu_flux_from_values(flux_y(L, g, params.h_min), flux_y(R, g, params.h_min),
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
    Hf = np.moveaxis(np.empty((5, n_y, n_z + 1)), 0, -1)   # the state's layout
    Hf[:, [0, -1]] = 0.0
    cu_flux_from_values(flux_zeta(up, om_int, c_up), flux_zeta(dn, om_int, c_dn),
                        up, dn, sm_z, sp_z, out=Hf[:, 1:-1])

    # --- nonconservative products ------------------------------------------
    # weights of (hu, hv, ha, hb), a contiguous block of the component axis
    U_real = mid[real]
    sy_real = sy[real]
    sz_real = rec.slope_z[real]
    Qy_cell = _gp_rows(_cell_weights(U_real[..., 0], sy_real[..., 0],
                                     U_real[..., 1:], sy_real[..., 1:], dy), sigma_b)
    Qy_if = _gp_rows(_interface_weights(L[..., 0], R[..., 0], L[..., 1:], R[..., 1:]),
                     R[..., 4] - L[..., 4])
    # full weights: h is uniform in zeta only to round-off (zeta depth slopes can be nonzero)
    Qz_cell = _gp_rows(_cell_weights(U_real[..., 0], sz_real[..., 0],
                                     U_real[..., 1:], sz_real[..., 1:], dz), -sigma_b)
    # interface path terms in zeta vanish: hC is single-valued at faces

    width_y = sp_y - sm_y
    safe_y = np.where(width_y > 0.0, width_y, 1.0)
    cl = np.where(width_y > 0.0, sp_y / safe_y, 0.0)[..., None]
    cr = np.where(width_y > 0.0, sm_y / safe_y, 0.0)[..., None]

    y = grid.y_centers()
    f = np.broadcast_to(np.asarray(params.coriolis(y), dtype=float), y.shape)[:, None]

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
    dudt += source_s(U_real, f)

    # --- divergence-field evolution (first-order fluxes) --------------------
    v_mid = mid[..., 2] / mid[..., 0]
    ext_vz = np.concatenate([v_mid[:, :1], v_mid, v_mid[:, -1:]], axis=1)
    v_zeta = limited_slope(ext_vz, dz, theta, axis=1)      # (n_y+2, n_z)
    phi_y = (v_mid * B_mid - hc_cen_all * v_zeta)[..., None]   # (n_y+2, n_z, 1)
    B_1 = B_mid[..., None]

    FyB = cu_flux_from_values(phi_y[:-1], phi_y[1:], B_1[:-1], B_1[1:],
                              sm_y, sp_y)[..., 0]

    om_cen = 0.5 * (omega[:, :-1] + omega[:, 1:])
    om_ext = fill_ghosts(om_cen, grid.boundary_y, 1)
    om_y = limited_slope(om_ext, dy, theta)                # (n_y, n_z)
    B_real = solution.B
    hb_real = U_real[..., 4]
    psi = omega[:, 1:-1]
    up_val = psi * B_real[:, :-1] + hb_real[:, :-1] * om_y[:, :-1]
    dn_val = psi * B_real[:, 1:] + hb_real[:, 1:] * om_y[:, 1:]
    FzB = np.zeros((n_y, n_z + 1))
    B_1 = B_real[..., None]
    cu_flux_from_values(up_val[..., None], dn_val[..., None], B_1[:, :-1], B_1[:, 1:],
                        sm_z, sp_z, out=FzB[:, 1:-1, None])

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
    """Godunov-Powell contributions -(a, b, u, v) * integral per row,
    stored component-first like the state.

    ``W`` holds int chi/h for chi = (hu, hv, ha, hb) in its last axis and
    ``grad`` the slope or jump of the divergence carrier.
    """
    out = np.moveaxis(np.empty((5,) + grad.shape), 0, -1)
    out[..., 0] = 0.0
    neg = -grad
    for row, k in ((1, 2), (2, 3), (3, 0), (4, 1)):    # rows hu, hv, ha, hb
        np.multiply(W[..., k], neg, out=out[..., row])
    return out


def depth_average(solution: Solution2D) -> np.ndarray:
    """Columns (h, u_m, v_m, a_m, b_m): depth-weighted vertical means."""
    U = solution.U
    h_col = U[..., 0].sum(axis=1)
    out = np.empty((solution.grid.n_y, 5))
    out[:, 0] = U[..., 0].mean(axis=1)
    for k in range(1, 5):
        out[:, k] = U[..., k].sum(axis=1) / h_col
    return out


def column_index(y_min: float, y_max: float, n: int, y0: float) -> int:
    """Index of the cell of a uniform n-cell mesh on [y_min, y_max] that
    holds y0, the column both solvers' profiles are read from.  A point on
    a cell boundary goes to the lower-index cell; ValueError off the mesh.
    """
    if not y_min <= y0 <= y_max:
        raise ValueError(f"y0={y0} outside [{y_min}, {y_max}]")
    pos = (y0 - y_min) / ((y_max - y_min) / n)
    j = int(np.floor(pos))
    if pos == j and j > 0:
        j -= 1
    return min(j, n - 1)


def profile_slice(solution: Solution2D, y0: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Primitive vertical profile of the column holding y0 (``column_index``).

    Returns (column index, zeta midpoints, primitives (n_zeta, 5)).
    """
    grid = solution.grid
    j = column_index(grid.y_min, grid.y_max, grid.n_y, y0)
    col = solution.U[j]
    prim = col.copy()
    prim[:, 1:] /= col[:, :1]
    return j, grid.zeta_centers(), prim


def run2d(solution: Solution2D, params: RefParams, t_final: float,
          nu: float = 0.45, theta: float = 1.3,
          callback: Callable[[Solution2D, StepDiagnostics], None] | None = None,
          ) -> tuple[Solution2D, RunStats]:
    """March the reference solution to t_final with adaptive CFL steps
    (``fv1d.integrate``); transport operators are rebuilt every stage."""
    grid = solution.grid

    def rates(state, t):
        r = rhs2d(Solution2D(grid, *state, t), params, theta)
        return (r.dudt, r.dbdt), StepDiagnostics((r.max_speed_y, r.max_speed_z),
                                                 div_residual=r.div_residual)

    on_step = None if callback is None else (
        lambda state, t, diag: callback(Solution2D(grid, *state, t), diag))
    (U, B), t, stats = integrate((solution.U, solution.B), solution.time, t_final,
                                 rates, (grid.dy, grid.dzeta), nu,
                                 (params.h_min, None), on_step)
    return Solution2D(grid, U, B, t), stats


def make_divergence_field(U: np.ndarray, grid: Grid2D, theta: float) -> np.ndarray:
    """Initial B from the limited y-slope of hb (consistent start value)."""
    ext = fill_ghosts(U[..., 4:5], grid.boundary_y)
    return limited_slope(ext, grid.dy, theta)[1:-1, :, 0]
