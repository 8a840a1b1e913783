"""Arbitrary-order 1-D magnetic rotating shallow water moment system.

The conservative state per cell is the length-(5 + 4M) vector

    U = (h, hu_m, hv_m, ha_m, hb_m,
         h a1, h b1, h g1, h e1, ..., h aM, h bM, h gM, h eM)

where (u_m, v_m, a_m, b_m) are depth means of velocity and magnetic field
and (alpha_i, beta_i) / (gamma_i, eta_i) the vertical-profile coefficients
of velocity / magnetic field.  This module assembles the conservative
flux G(U), the Coriolis source S(U), the nonconservative
matrix Q(U) that multiplies U_y, the analytic flux Jacobian
J = dG/dU - Q, and one-sided local wave-speed bounds with monitoring of
complex eigenvalue contamination.  The flux is a quadratic form in U over
h plus the hydrostatic pressure; its coefficients form a constant tensor
(``flux_tensor``), so G and dG/dU are single contractions.

Every nonzero entry of Q(U) is a constant-coefficient linear combination
of conserved components divided by h.  That structure is captured once in
a third-order coefficient tensor (``coupling_tensor``) so that both the
pointwise matrix and the exact path integrals of the scheme contract
against the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .closure import ClosureTensors, build_tensors
from .errors import DryStateError, HyperbolicityError

H, HU, HV, HA, HB = range(5)
ALPHA, BETA, GAMMA, ETA = range(4)

DEFAULT_H_MIN = 1e-10
DEFAULT_TOL_IM = 0.1


def n_vars(order: int) -> int:
    return 5 + 4 * order


def moment_index(i: int, comp: int) -> int:
    """Flat index of moment block i (1-based) and component in {ALPHA..ETA}."""
    return 5 + 4 * (i - 1) + comp


def _zero_fn(y):
    return np.zeros_like(np.asarray(y, dtype=float))


@dataclass
class ModelParams:
    """Physical and numerical parameters of the 1-D moment system."""

    g: float
    order: int
    tensors: ClosureTensors | None = None
    coriolis: Callable = _zero_fn            # f(y)
    h_min: float = DEFAULT_H_MIN
    tol_im: float = DEFAULT_TOL_IM
    q_tensor: np.ndarray = field(init=False, repr=False)
    path_matrix: np.ndarray = field(init=False, repr=False)
    flux_matrix: np.ndarray = field(init=False, repr=False)
    jac_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError(f"gravity must be positive, got {self.g}")
        if self.tensors is None:
            self.tensors = build_tensors(self.order)
        if self.tensors.order != self.order:
            raise ValueError("tensor order does not match model order")
        self.q_tensor = coupling_tensor(self.tensors)
        # flattened layouts so the hot contractions run as single matmuls
        n = self.n_vars
        self.path_matrix = self.q_tensor.reshape(n, n * n).T.copy()
        C = flux_tensor(self.tensors)
        self.flux_matrix = C.reshape(n, n * n).T.copy()
        # h (dG/dU - Q) is (2C - T) U in every column but the h column
        self.jac_matrix = (2.0 * C - self.q_tensor).reshape(n * n, n).T.copy()

    @property
    def n_vars(self) -> int:
        return n_vars(self.order)


def check_valid(U: np.ndarray, h_min: float = DEFAULT_H_MIN,
                t: float | None = None) -> None:
    """Reject states with non-finite entries or depth at/below the floor.

    The error names the quantity, the flat cell index (cells in row-major
    order over all axes but the last) and, when given, the time.
    """
    U = np.asarray(U)
    when = "" if t is None else f" at t={t:.6g}"
    if not np.all(np.isfinite(U)):
        cell, comp = divmod(int(np.argmin(np.isfinite(U))), U.shape[-1])
        value = U.reshape(-1, U.shape[-1])[cell, comp]
        raise DryStateError(f"non-finite value {value} in component {comp} "
                            f"at flat cell index {cell}{when}")
    h = U[..., H]
    if np.any(h <= h_min):
        j = int(np.argmin(h))
        raise DryStateError(
            f"depth {h.reshape(-1)[j]:.3e} at flat cell index {j} "
            f"is at or below the floor {h_min:.1e}{when}")


def flux_g(U: np.ndarray, params: ModelParams,
           quad: np.ndarray | None = None) -> np.ndarray:
    """Conservative flux G(U) = (U^T C U) / h + (g/2) h^2 e_hv.

    Accepts batched states (..., 5+4M); C is ``flux_tensor``.  ``quad`` is
    ``quadratic_flux(U)`` when the caller already has it.
    """
    U = _checked(U, params)
    h = U[..., H]
    G = quadratic_flux(U, params) if quad is None else quad.copy()
    G[..., HV] += 0.5 * params.g * h * h
    return G


def _checked(U: np.ndarray, params: ModelParams) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if np.any(U[..., H] <= params.h_min):
        check_valid(U, params.h_min)
    return U


def quadratic_flux(U: np.ndarray, params: ModelParams) -> np.ndarray:
    """(U^T C U) / h, the flux without the hydrostatic pressure."""
    U = _checked(U, params)
    n = U.shape[-1]
    UU = (U[..., :, None] * U[..., None, :]).reshape(U.shape[:-1] + (n * n,))
    return UU @ params.flux_matrix / U[..., H, None]


def flux_tensor(tensors: ClosureTensors) -> np.ndarray:
    """Constant tensor C, symmetric in its last two indices, with
    G(U) = sum_jk C[:, j, k] U[j] U[k] / h + (g/2) h^2 e_hv.

    Apart from the mass flux h v_m, every flux term is a product U_j U_k
    minus the product of the two partner components, where the partners
    are u <-> a, v <-> b, alpha_i <-> gamma_i and beta_i <-> eta_i.
    """
    M = tensors.order
    n = n_vars(M)
    mom = np.arange(5, n).reshape(M, 4)
    star = np.arange(n)
    star[[HU, HV, HA, HB]] = [HA, HB, HU, HV]
    star[mom] = mom[:, [GAMMA, ETA, ALPHA, BETA]]
    C = np.zeros((n, n, n))
    C[H, H, HV] = C[H, HV, H] = 0.5

    def add(row, j, k, w):
        # w * (U_j U_k - U_j* U_k*), split evenly over (j, k) and (k, j)
        for x, y, s in ((j, k, w), (star[j], star[k], -w)):
            C[row, x, y] += 0.5 * s
            C[row, y, x] += 0.5 * s

    for row in (HU, HV, HA):
        add(row, row, HV, 1.0)
    for i, (al, be, ga, _) in enumerate(mom):
        w = 1.0 / (2 * i + 3)
        add(HU, al, be, w)
        add(HV, be, be, w)
        add(HA, be, ga, w)
        add(al, HU, be, 1.0)
        add(al, HV, al, 1.0)
        add(be, HV, be, 2.0)
        add(ga, HA, be, 1.0)
        add(ga, HV, ga, 1.0)
        for l in range(M):
            for m in range(M):
                w = tensors.A[i, l, m]
                add(al, mom[l, ALPHA], mom[m, BETA], w)
                add(be, mom[l, BETA], mom[m, BETA], w)
                add(ga, mom[l, BETA], mom[m, GAMMA], w)
    return C


def source_s(U: np.ndarray, f) -> np.ndarray:
    """Coriolis source; ``f`` broadcasts over cells."""
    U = np.asarray(U, dtype=float)
    f = np.asarray(f, dtype=float)
    S = np.zeros_like(U)
    S[..., HU] = f * U[..., HV]
    S[..., HV] = -f * U[..., HU]
    M = (U.shape[-1] - 5) // 4
    for i in range(1, M + 1):
        S[..., moment_index(i, ALPHA)] = f * U[..., moment_index(i, BETA)]
        S[..., moment_index(i, BETA)] = -f * U[..., moment_index(i, ALPHA)]
    return S


def coupling_tensor(tensors: ClosureTensors) -> np.ndarray:
    """Constant tensor T with Q(U)[r, c] = sum_k T[r, c, k] U[k] / h.

    Columns c with any nonzero entry are hb_m and the h*beta_l / h*eta_l
    moment components; those are the only gradients entering the
    nonconservative products of the 1-D system.
    """
    M = tensors.order
    n = n_vars(M)
    T = np.zeros((n, n, n))
    phi1 = tensors.phi_at_one
    Gam = tensors.Gamma
    B = tensors.B

    # mean rows, hb_m column: -(surface value) of (a, b, u, v)
    for row, comp in ((HU, HA), (HV, HB), (HA, HU), (HB, HV)):
        T[row, HB, comp] = -1.0
        for l in range(M):
            T[row, HB, moment_index(l + 1, {HA: GAMMA, HB: ETA,
                                            HU: ALPHA, HV: BETA}[comp])] = -phi1[l]

    for i in range(M):
        ra = moment_index(i + 1, ALPHA)
        rb = moment_index(i + 1, BETA)
        rg = moment_index(i + 1, GAMMA)
        re = moment_index(i + 1, ETA)
        for l in range(M):
            ca = moment_index(l + 1, ALPHA)
            cb = moment_index(l + 1, BETA)
            cg = moment_index(l + 1, GAMMA)
            ce = moment_index(l + 1, ETA)
            w = 1.0 + Gam[i, l]
            T[ra, HB, cg] = -w
            T[rb, HB, ce] = -w
            T[rg, HB, ca] = -w
            T[re, HB, cb] = -w
            if i == l:
                T[ra, cb, HU] += 1.0
                T[rb, cb, HV] += 1.0
                T[rg, cb, HA] += 1.0
                T[re, cb, HB] += 1.0
                T[ra, ce, HA] -= 1.0
                T[rb, ce, HB] -= 1.0
                T[rg, ce, HU] -= 1.0
                T[re, ce, HV] -= 1.0
            for nn in range(M):
                Bval = B[i, l, nn]
                T[ra, cb, moment_index(nn + 1, ALPHA)] -= Bval
                T[rb, cb, moment_index(nn + 1, BETA)] -= Bval
                T[rg, cb, moment_index(nn + 1, GAMMA)] -= Bval
                T[re, cb, moment_index(nn + 1, ETA)] -= Bval
                T[ra, ce, moment_index(nn + 1, GAMMA)] += Bval
                T[rb, ce, moment_index(nn + 1, ETA)] += Bval
                T[rg, ce, moment_index(nn + 1, ALPHA)] += Bval
                T[re, ce, moment_index(nn + 1, BETA)] += Bval
    return T


def noncons_q(U: np.ndarray, params: ModelParams) -> np.ndarray:
    """Nonconservative matrix Q(U); batched as (..., n, n)."""
    U = _checked(U, params)
    return np.einsum("rck,...k->...rc", params.q_tensor, U) / U[..., H][..., None, None]


def jacobian(U: np.ndarray, params: ModelParams,
             quad: np.ndarray | None = None) -> np.ndarray:
    """J(U) = dG/dU - Q(U), batched along leading axes.

    Analytic from the flux tensor: with G = (U^T C U)/h + (g/2)h^2 e_hv and
    C symmetric, dG/dU = (2 C U)/h - G_quad e_h^T / h + g h e_hv e_h^T.
    ``quad`` is G_quad = ``quadratic_flux(U)`` when the caller has it.
    """
    U = _checked(U, params)
    n = U.shape[-1]
    h = U[..., H]
    if quad is None:
        quad = quadratic_flux(U, params)
    J = (U @ params.jac_matrix).reshape(U.shape[:-1] + (n, n)) / h[..., None, None]
    J[..., :, H] -= quad / h[..., None]
    J[..., HV, H] += params.g * h
    return J


def spectral_blocks(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index sets (gravity, velocity, magnetic) of the diagonal blocks of J.

    In the order (hb_m, gravity, transverse) J is block lower-triangular.
    The gravity block is (h, hv_m, h beta_i, h eta_i).  The transverse
    block pairs velocity components (hu_m, h alpha_i) with their magnetic
    partners (ha_m, h gamma_i); its Elsasser sums and differences
    (Elsasser 1950) decouple into two (M+1)x(M+1) blocks.
    """
    moments = np.arange(5, n_vars(order)).reshape(order, 4)
    return (np.r_[H, HV, moments[:, [BETA, ETA]].ravel()],
            np.r_[HU, moments[:, ALPHA]], np.r_[HA, moments[:, GAMMA]])


def eigenvalues(U: np.ndarray, params: ModelParams,
                quad: np.ndarray | None = None) -> np.ndarray:
    """Complex spectrum of J(U), batched along leading axes.

    The union of the spectra of the diagonal blocks (``spectral_blocks``):
    the scalar hb_m entry, the gravity block, and the Elsasser blocks
    J_uu + J_ua and J_uu - J_ua of the transverse block.  ``quad`` is
    passed on to ``jacobian``.
    """
    J = jacobian(U, params, quad)
    grav, vel, mag = spectral_blocks(params.order)
    J_uu = J[..., vel[:, None], vel]
    J_ua = J[..., vel[:, None], mag]
    return np.concatenate([J[..., HB, HB, None].astype(complex),
                           np.linalg.eigvals(J[..., grav[:, None], grav]),
                           np.linalg.eigvals(J_uu + J_ua),
                           np.linalg.eigvals(J_uu - J_ua)], axis=-1)


def interface_speeds(U_left: np.ndarray, U_right: np.ndarray,
                     params: ModelParams, tol_im: float | None = None,
                     quad: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """One-sided speed bounds s-, s+ for a batch of interfaces.

    s+ = max(Re spectrum(left), Re spectrum(right), 0) and s- the
    analogous minimum.  While a state's ratio max|Im| / max|Re| is at most
    ``tol_im``, its bounds use the real parts alone: the imaginary parts
    neither widen them (as Re +- |Im| would) nor fail the step.  The worst
    ratio over the states is returned for logging; a ratio above
    ``tol_im`` raises HyperbolicityError, located at (interface index,
    "left" or "right").
    ``quad`` is the quadratic flux of the left states followed by the
    right ones, when the caller has it.
    """
    tol = params.tol_im if tol_im is None else tol_im
    stacked = np.concatenate([np.atleast_2d(U_left), np.atleast_2d(U_right)])
    lam = eigenvalues(stacked, params, quad)
    # per state max|Im| / max|Re|; above tol_im hyperbolicity is lost
    ratios = (np.abs(lam.imag).max(axis=-1)
              / np.maximum(np.abs(lam.real).max(axis=-1), 1e-14))
    half = stacked.shape[0] // 2
    worst = float(ratios.max()) if ratios.size else 0.0
    if worst > tol:
        side, iface = divmod(int(np.argmax(ratios)), half)
        side = ("left", "right")[side]
        raise HyperbolicityError(
            f"complex eigenvalue ratio {worst:.3e} exceeds {tol:.3e} "
            f"in the {side} state of interface {iface}",
            ratio=worst, location=(iface, side))
    both = np.concatenate([lam[:half].real, lam[half:].real], axis=-1)
    s_plus = np.maximum(both.max(axis=-1), 0.0)
    s_minus = np.minimum(both.min(axis=-1), 0.0)
    return s_minus, s_plus, worst

