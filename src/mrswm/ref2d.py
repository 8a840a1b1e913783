"""Vertically resolved reference solver on the (y, zeta) strip.

Evolves the mapped conservative fields U = (h, hu, hv, ha, hb) on
[y_min, y_max] x [0, 1] with central-upwind fluxes in both directions and
exact path integrals for the magnetic-divergence coupling, which acts
through the vector -(a, b, u, v) times [(hb)_y + (hC)_zeta].

The total depth h has no vertical structure.  It is stored in every
layer of a column but holds one value there: ``Solution2D`` rejects a
depth that varies in zeta, and every layer's depth rate is the column
value -(h v_m)_y, so the elementwise SSP-RK3 stages keep h uniform bit
for bit.  The vertical transport operators are algebraic, not evolved:
omega is reconstructed from the central-upwind depth fluxes so that the
zeta transport agrees with that depth rate, and the magnetic coupling hC
is the running depth sum of the limited divergence field.  A scalar
field B ~ (hb)_y is evolved alongside U (first-order accuracy suffices,
it only feeds slopes) and blended into the y-reconstruction of hb
through the consistency factor sigma, which makes the cell-wise y-slope
of hb and zeta-slope of hC cancel exactly: the scheme is locally
divergence-free by construction.

Wave speeds are closed-form: v +- sqrt(b^2 + g h) in y and
omega +- |C| in zeta; the vertical flux vanishes identically at the
surface and bottom where omega = C = 0, so mass is exchanged only
horizontally.

``rhs2d`` fills the y ghosts of U and B once, then runs its body over
windows of about ``WINDOW_CELLS`` cells (whole rows; a strip that fits
in one window runs as one).  A strip of two or more windows, in a
process with more than one CPU share (``model1d.spectrum_shares``,
which ``compare``'s workers set to 1), is split in y: the caller runs
the lower half of the windows while a forked strip worker runs the
upper half (``strip_processes``), a domain decomposition of the same
scheme.  At n_zeta = 100 a window is 100 rows and
each of the body's (rows, n_zeta, 5) temporaries 400 KB, so they stay in
a 2 MiB L2 cache where the whole strip's (3.2 MB each at 800 x 100)
would stream from memory.  A window reads ``HALO`` = 3 rows of U and B
beyond each end: the B update takes the y-slope of omega, one row beyond
the window; omega there needs the depth fluxes one row further out, and
their face values the limited slopes of the row beyond that.  The halo
rows are recomputed with the same arithmetic as in the window that owns
them, so every element of the result is bit-for-bit what one window over
the strip gives.  Beyond an outflow end the ghost omega is a copy of the
edge row's, not one computed from the copied rows of U.
The speeds and the divergence residual are maxima over the windows; the
clipped y depth slopes are counted once per stencil row and logged once.
The worker is forked at the first split call, never at import, and
its job carries every setting the windows read (``_strip``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model1d
from .fv1d import (RunStats, StepDiagnostics, _cell_weights, _interface_weights,
                   clip_depth_slope, cu_flux_from_values, fill_ghosts, integrate,
                   limited_slope, warn_clipped)
from .model1d import DEFAULT_H_MIN, _zero_fn, check_valid, source_s

#: Cells (rows x n_zeta) in one window of ``rhs2d``: about 100 rows at
#: n_zeta = 100, so that each temporary of a window stays in the L2 cache.
WINDOW_CELLS = 10_000
#: Rows of U and B that a window reads beyond each of its ends.
HALO = 3


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
    """Cell averages of (h, hu, hv, ha, hb) plus the divergence field B;
    h holds one value per column."""

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
        h = self.U[..., 0]
        # a non-finite column spreads by NaN and is left to check_valid
        varies = h.max(axis=1) - h.min(axis=1) > 0.0
        if np.any(varies):
            j = int(np.argmax(varies))
            raise ValueError(f"depth varies in zeta in column {j} (from "
                             f"{h[j].min():.6g} to {h[j].max():.6g}); the "
                             "reference holds one depth per column")

    def __reduce__(self):
        # pickle restores __dict__ without __post_init__, and numpy pickles
        # U in C order: rebuild through the constructor to restore the layout
        return type(self), (self.grid, self.U, self.B, self.time)


def flux_y(U: np.ndarray, g: float) -> np.ndarray:
    """Horizontal flux G(U) of the reference system."""
    h = U[..., 0]
    u, v, b = (U[..., k] / h for k in (1, 2, 4))
    G = np.zeros_like(U)
    G[..., 0] = U[..., 2]
    G[..., 1] = U[..., 1] * v - U[..., 3] * b
    G[..., 2] = U[..., 2] * v - U[..., 4] * b + 0.5 * g * h * h
    G[..., 3] = U[..., 3] * v - U[..., 4] * u
    return G


def flux_zeta(U: np.ndarray, omega, C) -> np.ndarray:
    """Vertical flux H(U) of (hu, hv, ha, hb) given mapped transport values
    omega and C.  The depth has none: its rate is the column value that
    ``coupling_omega`` returns."""
    om = np.asarray(omega)[..., None]
    h = U[..., 0]
    u, v, a, b = (U[..., k] / h for k in (1, 2, 3, 4))
    HC = np.asarray(C) * h
    Hf = U[..., 1:] * om
    Hf[..., 0] -= a * HC
    Hf[..., 1] -= b * HC
    Hf[..., 2] -= u * HC
    Hf[..., 3] -= v * HC
    return Hf


def sigma_factor(minmod_slope_hb: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Consistency limiter blending B into the hb reconstruction.

    sigma = min(1, minmod_slope / B) when both carry the same sign, else 0,
    so the effective slope sigma * B never exceeds the limited slope.
    """
    agree = minmod_slope_hb * B > 0.0
    safe_b = np.where(B != 0.0, B, 1.0)
    return np.where(agree, np.minimum(1.0, minmod_slope_hb / safe_b), 0.0)


def coupling_omega(h: np.ndarray, flux_h: np.ndarray, dy: float,
                   dzeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertical velocity transport omega at all zeta-interfaces, and the
    column mean hvm_y of the depth-flux divergence.

    ``h`` holds the depth of each column (n_y,) and ``flux_h`` the
    central-upwind depth fluxes at the y-interfaces (n_y + 1, n_z).
    omega vanishes at zeta = 0 and 1 (the telescoping sum makes the top
    value zero to round-off; it is forced).

    Why the depth rate is -hvm_y, set directly in every layer: both sides
    of a zeta interface k+1/2 carry the column's h, so the central-upwind
    depth flux there reduces to h omega_{k+1/2} = partial_k, the running
    sum of dzeta (hvm_y - flux_div).  The depth has no source and no
    nonconservative product, so layer k's depth update through the zeta
    fluxes is -flux_div_k - (partial_k - partial_{k-1}) / dzeta
    = -flux_div_k - (hvm_y - flux_div_k) = -hvm_y, the same in every
    layer.  ``rhs2d`` takes that value itself, which keeps h one value
    per column bit for bit, where the zeta fluxes would give it only to
    round-off; ``flux_zeta`` has no depth column.
    """
    flux_div = (flux_h[1:] - flux_h[:-1]) / dy            # (n_y, n_z)
    hvm_y = dzeta * flux_div.sum(axis=1)                  # (n_y,)
    partial = np.cumsum(dzeta * (hvm_y[:, None] - flux_div), axis=1)
    omega = np.zeros((len(h), flux_div.shape[1] + 1))
    omega[:, 1:-1] = partial[:, :-1] / h[:, None]
    return omega, hvm_y


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
    """Limited reconstruction on a run of rows of the strip.

    The hb component of ``slope_y`` is the divergence slope sigma * B; the
    depth slopes in y are clipped to keep every face depth above the
    floor.  The depth has no zeta slope: its faces in zeta are its average.
    """

    u_bar: np.ndarray      # (rows, n_zeta, 5) cell averages
    slope_y: np.ndarray    # (rows, n_zeta, 5)
    north: np.ndarray      # (rows, n_zeta, 5) face values at y + dy/2
    south: np.ndarray      # ... at y - dy/2
    up: np.ndarray         # ... at zeta + dzeta/2
    down: np.ndarray       # ... at zeta - dzeta/2


def _reconstruct(ext: np.ndarray, b_bar: np.ndarray, grid: Grid2D, params: RefParams,
                 theta: float) -> tuple[Reconstruction2D, np.ndarray]:
    """Face values on the rows of ``ext`` inside its first and last row,
    where ``b_bar`` holds B; also the mask of the clipped y depth slopes."""
    dy, dz = grid.dy, grid.dzeta
    mid = ext[1:-1]
    sy = limited_slope(ext, dy, theta)
    sy[..., 4] = sigma_factor(sy[..., 4], b_bar) * b_bar
    clip_y = clip_depth_slope(mid, sy, dy, params.h_min)

    half = 0.5 * dy * sy
    north, south = mid + half, mid - half
    chi = mid[..., 1:]                                     # (hu, hv, ha, hb)
    ext_z = np.concatenate([chi[:, :1], chi, chi[:, -1:]], axis=1)
    np.multiply(0.5 * dz, limited_slope(ext_z, dz, theta, axis=1), out=half[..., 1:])
    half[..., 0] = 0.0
    rec = Reconstruction2D(u_bar=mid, slope_y=sy, north=north, south=south,
                           up=mid + half, down=mid - half)
    return rec, clip_y


def rhs2d(solution: Solution2D, params: RefParams, theta: float) -> Rhs2DResult:
    """Semi-discrete time derivative of (U, B), computed window by window,
    in one process or two (see the module docstring)."""
    grid = solution.grid
    n_y, n_z = grid.n_y, grid.n_zeta
    # The windows check no depth: a face depth falls to the floor exactly
    # where a cell depth does (a clipped cell's faces are its average, the
    # others' stay above it), so this check covers every face.
    if np.any(solution.U[..., 0] <= params.h_min):
        check_valid(solution.U, params.h_min, solution.time)
    y = grid.y_centers()
    f = np.broadcast_to(np.asarray(params.coriolis(y), dtype=float), y.shape)[:, None]
    dudt = np.moveaxis(np.empty((5, n_y, n_z)), 0, -1)         # the state's layout
    dbdt = np.empty((n_y, n_z))
    windows = _windows(grid)
    if strip_processes(grid) == 1:
        ext = fill_ghosts(solution.U, grid.boundary_y, HALO)   # (n_y+6, n_z, 5)
        B_ext = fill_ghosts(solution.B, grid.boundary_y, HALO)
        stats = _rhs_windows(windows, ext, B_ext, f, grid, params, theta, dudt, dbdt)
    else:
        from . import _strip            # loaded by the first split only
        stats = _strip.worker(grid).split(windows, solution, f, params, theta,
                                          dudt, dbdt)
    stats = np.array(stats)
    warn_clipped(stats[:, 3].sum())
    max_speed_y, max_speed_z, div_residual = map(float, stats[:, :3].max(axis=0))
    b_scale = np.abs(solution.B).max()
    return Rhs2DResult(dudt=dudt, dbdt=dbdt, max_speed_y=max_speed_y,
                       max_speed_z=max_speed_z,
                       div_residual=div_residual if b_scale == 0.0
                       else div_residual / b_scale)


def _windows(grid: Grid2D) -> list[tuple[int, int]]:
    """The windows of ``rhs2d`` as (first row, end row): runs of whole rows
    of about ``WINDOW_CELLS`` cells."""
    rows = max(1, WINDOW_CELLS // grid.n_zeta)
    return [(a, min(a + rows, grid.n_y)) for a in range(0, grid.n_y, rows)]


def strip_processes(grid: Grid2D) -> int:
    """Processes ``rhs2d`` runs the windows of ``grid`` in: two when the
    strip has two or more windows, the process more than one CPU share
    (``model1d.spectrum_shares``) and the call comes from the main thread
    (the worker serves one caller at a time); else one."""
    split = (len(_windows(grid)) > 1 and model1d.spectrum_shares > 1
             and threading.current_thread() is threading.main_thread())
    return 2 if split else 1


def _rhs_windows(windows: list[tuple[int, int]], ext: np.ndarray, B_ext: np.ndarray,
                 f: np.ndarray, grid: Grid2D, params: RefParams, theta: float,
                 dudt: np.ndarray, dbdt: np.ndarray) -> list[tuple[float, ...]]:
    """``_rhs_rows`` on each window, from the ghosted strip ``ext`` and
    ``B_ext`` into the strip's ``dudt`` and ``dbdt``; the windows' stats."""
    outflow = grid.boundary_y == "outflow"
    return [_rhs_rows(ext[a:b + 2 * HALO], B_ext[a:b + 2 * HALO], f[a:b],
                      (a == 0, b == grid.n_y), outflow, grid, params, theta,
                      dudt[a:b], dbdt[a:b])
            for a, b in windows]


def _rhs_rows(ext: np.ndarray, B_ext: np.ndarray, f: np.ndarray,
              edges: tuple[bool, bool], outflow: bool, grid: Grid2D,
              params: RefParams, theta: float, dudt: np.ndarray,
              dbdt: np.ndarray) -> tuple[float, ...]:
    """The right-hand side on the window of rows a .. b-1, written into
    ``dudt`` and ``dbdt``.

    ``ext`` and ``B_ext`` hold U and B on rows a-3 .. b+2, and ``edges``
    says whether a and b are the ends of the strip.  Returns the window's
    maxima of the y and zeta speeds and of the divergence residual, and
    the number of clipped y depth slopes on its stencil rows: a .. b-1,
    and the ghost row beyond an end of the strip.
    """
    dy, dz = grid.dy, grid.dzeta
    n, n_z = dudt.shape[:2]
    g = params.g

    B_mid = B_ext[1:-1]
    rec, clip_y = _reconstruct(ext, B_mid, grid, params, theta)
    own = slice(1 if edges[0] else 2, -1 if edges[1] else -2)
    mid, sy = rec.u_bar, rec.slope_y                      # rows a-2 .. b+1
    h = mid[:, 0, 0]                                      # the column depths
    real = slice(2, -2)

    # --- horizontal central-upwind fluxes ---------------------------------
    # at the interfaces a-3/2 .. b+1/2; the window's own are [1:-1]
    L, R = rec.north[:-1], rec.south[1:]                  # (n+3, n_z, 5)

    def wave(U):
        h = U[..., 0]
        v = U[..., 2] / h
        root = np.sqrt(U[..., 4] ** 2 / h ** 2 + g * h)
        return v - root, v + root

    lo_l, hi_l = wave(L)
    lo_r, hi_r = wave(R)
    sp_y = np.maximum(np.maximum(hi_l, hi_r), 0.0)
    sm_y = np.minimum(np.minimum(lo_l, lo_r), 0.0)
    Gf = cu_flux_from_values(flux_y(L, g), flux_y(R, g), L, R, sm_y, sp_y)

    # --- vertical transport operators -------------------------------------
    # omega on rows a-1 .. b, for the B update's y-slope of omega
    omega, hvm_y = coupling_omega(h[1:-1], Gf[..., 0], dy, dz)
    hc_face_all, hc_cen_all = coupling_c(sy[1:-1, :, 4], dz)  # rows a-1 .. b
    hc_face = hc_face_all[1:-1]
    sigma_b = sy[real, :, 4]                                   # sigma * B
    L, R, sp_y, sm_y = L[1:-1], R[1:-1], sp_y[1:-1], sm_y[1:-1]

    # --- vertical central-upwind fluxes -----------------------------------
    om_int = omega[1:-1, 1:-1]                             # (n, n_z-1)
    c = hc_face[:, 1:-1] / h[real, None]
    up = rec.up[real, :-1]
    dn = rec.down[real, 1:]
    sp_z = np.maximum(om_int + np.abs(c), 0.0)
    sm_z = np.minimum(om_int - np.abs(c), 0.0)
    Hf = np.moveaxis(np.empty((4, n, n_z + 1)), 0, -1)   # the state's layout
    Hf[:, [0, -1]] = 0.0
    cu_flux_from_values(flux_zeta(up, om_int, c), flux_zeta(dn, om_int, c),
                        up[..., 1:], dn[..., 1:], sm_z, sp_z, out=Hf[:, 1:-1])

    # --- nonconservative products ------------------------------------------
    # weights of (hu, hv, ha, hb), a contiguous block of the component axis
    U_real = mid[real]
    sy_real = sy[real]
    Qy_cell = _gp_rows(_cell_weights(U_real[..., 0], sy_real[..., 0],
                                     U_real[..., 1:], sy_real[..., 1:], dy), sigma_b)
    Qy_if = _gp_rows(_interface_weights(L[..., 0], R[..., 0], L[..., 1:], R[..., 1:]),
                     R[..., 4] - L[..., 4])
    # with no depth slope in zeta the cell's path weight is chi dzeta / h
    Qz_cell = _gp_rows(U_real[..., 1:] * (dz / h[real])[:, None, None], -sigma_b)
    # interface path terms in zeta vanish: hC is single-valued at faces

    width_y = sp_y - sm_y
    safe_y = np.where(width_y > 0.0, width_y, 1.0)
    cl = np.where(width_y > 0.0, sp_y / safe_y, 0.0)[..., None]
    cr = np.where(width_y > 0.0, sm_y / safe_y, 0.0)[..., None]

    # the depth rate is the column value -hvm_y in every layer (coupling_omega);
    # (hu, hv, ha, hb): -(dG - Qy_cell - cl Qy_if + cr Qy_if) / dy - (dH - Qz_cell) / dz + S
    dudt[..., 0] = -hvm_y[1:-1, None]
    du = dudt[..., 1:]
    Gf = Gf[1:-1, :, 1:]
    np.subtract(Gf[1:], Gf[:-1], out=du)
    du -= Qy_cell
    tmp = np.multiply(cl[:-1], Qy_if[:-1], out=Qy_cell)
    du -= tmp
    np.multiply(cr[1:], Qy_if[1:], out=tmp)
    du += tmp
    np.negative(du, out=du)
    du /= dy
    np.subtract(Hf[:, 1:], Hf[:, :-1], out=tmp)
    tmp -= Qz_cell
    tmp /= dz
    du -= tmp
    du += source_s(U_real, f)[..., 1:]

    # --- divergence-field evolution (first-order fluxes) --------------------
    v_mid = mid[1:-1, :, 2] / mid[1:-1, :, 0]              # rows a-1 .. b
    ext_vz = np.concatenate([v_mid[:, :1], v_mid, v_mid[:, -1:]], axis=1)
    v_zeta = limited_slope(ext_vz, dz, theta, axis=1)
    phi_y = (v_mid * B_mid[1:-1] - hc_cen_all * v_zeta)[..., None]
    B_1 = B_mid[1:-1, :, None]

    FyB = cu_flux_from_values(phi_y[:-1], phi_y[1:], B_1[:-1], B_1[1:],
                              sm_y, sp_y)[..., 0]

    om_cen = 0.5 * (omega[:, :-1] + omega[:, 1:])          # rows a-1 .. b
    # beyond an outflow end, the ghost omega is a copy of the edge row's
    # (beyond a periodic end, the halo row is the wrapped row)
    if outflow and edges[0]:
        om_cen[0] = om_cen[1]
    if outflow and edges[1]:
        om_cen[-1] = om_cen[-2]
    om_y = limited_slope(om_cen, dy, theta)                # rows a .. b-1
    B_real = B_mid[real]
    hb_real = U_real[..., 4]
    up_val = om_int * B_real[:, :-1] + hb_real[:, :-1] * om_y[:, :-1]
    dn_val = om_int * B_real[:, 1:] + hb_real[:, 1:] * om_y[:, 1:]
    FzB = np.zeros((n, n_z + 1))
    B_1 = B_real[..., None]
    cu_flux_from_values(up_val[..., None], dn_val[..., None], B_1[:, :-1], B_1[:, 1:],
                        sm_z, sp_z, out=FzB[:, 1:-1, None])

    np.subtract(-(FyB[1:] - FyB[:-1]) / dy, (FzB[:, 1:] - FzB[:, :-1]) / dz, out=dbdt)

    slope_hc = (hc_face[:, 1:] - hc_face[:, :-1]) / dz
    return (np.maximum(sp_y, -sm_y).max(), np.maximum(sp_z, -sm_z).max(),
            np.abs(sigma_b + slope_hc).max(), clip_y[own].sum())


def _gp_rows(W: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Godunov-Powell contributions -(a, b, u, v) * integral to the rows
    (hu, hv, ha, hb), stored component-first like the state.

    ``W`` holds int chi/h for chi = (hu, hv, ha, hb) in its last axis and
    ``grad`` the slope or jump of the divergence carrier.
    """
    out = np.moveaxis(np.empty((4,) + grad.shape), 0, -1)
    neg = -grad
    for row, k in enumerate((2, 3, 0, 1)):
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
