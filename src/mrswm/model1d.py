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
(``flux_tensor``), so G and dG/dU are single contractions.  G multiplies
only the pairs U_j U_k the closure's selection rules leave nonzero.

Every nonzero entry of Q(U) is a constant-coefficient linear combination
of conserved components divided by h.  That structure is captured once in
a third-order coefficient tensor (``coupling_tensor``) so that both the
pointwise matrix and the exact path integrals of the scheme contract
against the same data.

The spectrum of J is that of its hb_m entry, its gravity block and two
Elsasser blocks, built straight from U without forming J.  Scaled, an
Elsasser block is symmetric with a real spectrum inside the range of
(v -+ b)(zeta) (``spectral_blocks``), so the speed bounds solve it only
where a Gershgorin interval leaves the range of the other eigenvalues,
and the worst |Im|/|Re| ratio comes from the gravity block alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
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
    jac_matrix: np.ndarray = field(init=False, repr=False)
    flux_pairs: tuple = field(init=False, repr=False)
    path_pairs: tuple = field(init=False, repr=False)
    speed_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError(f"gravity must be positive, got {self.g}")
        if self.tensors is None:
            self.tensors = build_tensors(self.order)
        if self.tensors.order != self.order:
            raise ValueError("tensor order does not match model order")
        self.q_tensor = coupling_tensor(self.tensors)
        C = flux_tensor(self.tensors)
        n = self.n_vars
        # h (dG/dU - Q) is (2C - T) U in every column but the h column
        jac = 2.0 * C - self.q_tensor
        self.jac_matrix = jac.reshape(n * n, n).T.copy()
        # C is symmetric in its last two indices: each unordered product once
        self.flux_pairs = _pair_list(np.triu(C) + np.triu(C, 1))
        self.path_pairs = _pair_list(self.q_tensor)
        self.speed_matrix = _speed_coefficients(jac, self.order)

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
    """(U^T C U) / h, the flux without the hydrostatic pressure, from the
    products U_j U_k that C does not zero (``ModelParams.flux_pairs``)."""
    U = _checked(U, params)
    j, k, coef = params.flux_pairs
    return _by_state(U[..., j] * U[..., k], coef) / U[..., H, None]


def _by_state(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """X @ A as one vector-matrix product per state, so that a state's row
    does not depend on the batch around it: BLAS rounds the rows of one
    matrix-matrix product differently with the number of rows."""
    return (X[..., None, :] @ A)[..., 0, :]


def _pair_list(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index pairs (a, b) with a nonzero T[:, a, b], and those columns
    of T as a (pairs, n) matrix: sum_ab T[:, a, b] x_a y_b is
    (x[a] * y[b]) @ coef."""
    a, b = np.nonzero(np.any(T != 0.0, axis=0))
    return a, b, T[:, a, b].T.copy()


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


def jacobian(U: np.ndarray, params: ModelParams) -> np.ndarray:
    """J(U) = dG/dU - Q(U), batched along leading axes.

    Analytic from the flux tensor: with G = (U^T C U)/h + (g/2)h^2 e_hv and
    C symmetric, dG/dU = (2 C U)/h - G_quad e_h^T / h + g h e_hv e_h^T,
    where G_quad = ``quadratic_flux(U)``.
    """
    U = _checked(U, params)
    n = U.shape[-1]
    h = U[..., H]
    J = (U @ params.jac_matrix).reshape(U.shape[:-1] + (n, n)) / h[..., None, None]
    J[..., :, H] -= quadratic_flux(U, params) / h[..., None]
    J[..., HV, H] += params.g * h
    return J


def spectral_blocks(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index sets (gravity, velocity, magnetic) of the diagonal blocks of J.

    In the order (hb_m, gravity, transverse) J is block lower-triangular.
    The gravity block is (h, hv_m, h beta_i, h eta_i).  The transverse
    block pairs velocity components (hu_m, h alpha_i) with their magnetic
    partners (ha_m, h gamma_i); its Elsasser sums and differences
    (Elsasser 1950) decouple into two (M+1)x(M+1) blocks J_uu +- J_ua.

    Each Elsasser block is the Galerkin compression of multiplication by
    the profile (v -+ b)(zeta) onto phi_0 .. phi_M, so with
    D = diag(1 / sqrt(2l + 1)) the block D (J_uu +- J_ua) D^-1 is
    symmetric: its spectrum is real and lies within [min, max] of
    (v -+ b) on [0, 1].  Complex eigenvalues, and so the worst |Im|/|Re|
    ratio, come from the gravity block alone.
    """
    moments = np.arange(5, n_vars(order)).reshape(order, 4)
    return (np.r_[H, HV, moments[:, [BETA, ETA]].ravel()],
            np.r_[HU, moments[:, ALPHA]], np.r_[HA, moments[:, GAMMA]])


def _speed_coefficients(jac: np.ndarray, order: int) -> np.ndarray:
    """The (n, K) matrix taking U to h times the hb_m entry of J, its
    gravity block and its two D-scaled Elsasser blocks, flattened in that
    order; ``jac`` is the tensor 2C - T of ``ModelParams``.  The Elsasser
    coefficients are made exactly symmetric, since ``eigvalsh`` reads one
    triangle (before that they are symmetric to round-off)."""
    n = n_vars(order)
    grav, vel, mag = spectral_blocks(order)
    root = np.sqrt(2.0 * np.arange(order + 1) + 1.0)
    scale = (root[None, :] / root[:, None])[..., None]
    columns = [jac[HB, HB][None], jac[grav[:, None], grav].reshape(-1, n)]
    for sign in (1.0, -1.0):
        block = scale * (jac[vel[:, None], vel] + sign * jac[vel[:, None], mag])
        columns.append((0.5 * (block + block.swapaxes(0, 1))).reshape(-1, n))
    return np.concatenate(columns).T.copy()


def _spectral_matrices(U: np.ndarray, params: ModelParams,
                       quad: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The hb_m entries (N,), gravity blocks (N, 2M+2, 2M+2) and D-scaled
    Elsasser blocks (N, M+1, M+1) of J for a batch of N states, from one
    product per state (``_by_state``): the blocks of a state do not depend
    on the batch it comes in, nor on how the batch is cut into shares."""
    U = _checked(U, params).reshape(-1, params.n_vars)
    h = U[:, H]
    if quad is None:
        quad = quadratic_flux(U, params)
    quad = quad.reshape(U.shape)
    grav = spectral_blocks(params.order)[0]
    k, m = len(grav), params.order + 1
    X = _by_state(U, params.speed_matrix)
    X /= h[:, None]
    blocks = np.split(X, np.cumsum([1, k * k, m * m]), axis=1)
    hb = blocks[0][:, 0]
    gravity = blocks[1].reshape(-1, k, k)
    gravity[:, :, 0] -= quad[:, grav] / h[:, None]
    gravity[:, 1, 0] += params.g * h
    return hb, gravity, blocks[2].reshape(-1, m, m), blocks[3].reshape(-1, m, m)


#: Shares a batch of states is cut into for its spectra: one per usable
#: CPU.  ``ref2d.strip_processes`` splits a reference strip when it is
#: above 1.  ``experiments._init_worker`` sets 1 in ``compare``'s worker
#: processes, which already fill the CPUs.
spectrum_shares = len(os.sched_getaffinity(0))
#: Jacobian entries (states x (5 + 4M)^2) of the smallest batch whose
#: spectra are split.  Two shares cost about 0.3 ms more than one in
#: thread hand-offs, and at one BLAS thread they won on a 2-core machine
#: from about 128 states at M = 3 (37k entries), 256 at M = 1..2 (21k,
#: 43k) and not below 402 at M = 0 (10k).
MIN_SPLIT_ENTRIES = 32_768

_pool: ThreadPoolExecutor | None = None
_pool_pid: int | None = None


def spectrum_split(n_states: int, n: int) -> int:
    """Shares a batch of ``n_states`` states of ``n`` components is cut
    into for its spectra."""
    return spectrum_shares if n_states * n * n >= MIN_SPLIT_ENTRIES else 1


def _spectrum_pool() -> ThreadPoolExecutor:
    """The threads that take every share but the caller's, created on first
    use by each process: a pool inherited through fork has no threads, and
    work handed to it would never run."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        _pool = ThreadPoolExecutor(spectrum_shares - 1, thread_name_prefix="mrswm-spectrum")
        _pool_pid = os.getpid()
    return _pool


def _in_shares(per_share: Callable, blocks: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """``per_share(*blocks)`` with the batch cut into ``spectrum_split``
    contiguous shares, the first on the calling thread and the others on
    the pool (numpy's eigenvalue loops release the GIL).  Each state's
    result is computed on its own, so it is bitwise the same as in one
    share."""
    size = len(blocks[0])
    shares = spectrum_split(size, n)
    if shares == 1:
        return per_share(*blocks)
    cuts = [size * k // shares for k in range(shares + 1)]
    parts = [[b[lo:hi] for b in blocks] for lo, hi in zip(cuts[:-1], cuts[1:])]
    pool = _spectrum_pool()
    futures = [pool.submit(per_share, *part) for part in parts[1:]]
    try:
        first = per_share(*parts[0])
    finally:
        wait(futures)           # no share outlives the call, even on an error
    return np.concatenate([first] + [f.result() for f in futures])


def _block_spectra(hb: np.ndarray, gravity: np.ndarray, plus: np.ndarray,
                   minus: np.ndarray) -> np.ndarray:
    """The spectra of one share's blocks.  It runs on the spectrum threads,
    so it calls numpy only."""
    return np.concatenate([hb[:, None].astype(complex), np.linalg.eigvals(gravity),
                           np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)], axis=-1)


#: Relative round-off allowed for a Gershgorin interval: LAPACK's
#: symmetric eigenvalues are within a small multiple of eps times the
#: block's norm of the exact ones, far below this.
_GERSHGORIN_PAD = 1e-12


def _may_leave(S: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """States whose symmetric block S may have an eigenvalue outside
    [lo, hi]: the Gershgorin interval, widened by round-off, is not inside."""
    diag = np.diagonal(S, axis1=-2, axis2=-1)
    reach = np.abs(S).sum(axis=-1)                  # |S_ii| + radius_i
    radius = reach - np.abs(diag)
    pad = _GERSHGORIN_PAD * reach.max(axis=-1)
    return (((diag - radius).min(axis=-1) - pad < lo)
            | ((diag + radius).max(axis=-1) + pad > hi))


def _speed_extremes(hb: np.ndarray, gravity: np.ndarray, plus: np.ndarray,
                    minus: np.ndarray) -> np.ndarray:
    """Per state of one share, the least and greatest real part and the
    greatest |Im| of the spectrum, as an (N, 3) array.  The real Elsasser
    eigenvalues are taken only where they may leave the range of the
    others (``_may_leave``).  Calls numpy only."""
    lam = np.linalg.eigvals(gravity)
    lo = np.minimum(lam.real.min(axis=-1), hb)
    hi = np.maximum(lam.real.max(axis=-1), hb)
    need = _may_leave(plus, lo, hi) | _may_leave(minus, lo, hi)
    if need.any():
        els = np.concatenate([np.linalg.eigvalsh(plus[need]),
                              np.linalg.eigvalsh(minus[need])], axis=-1)
        lo[need] = np.minimum(lo[need], els.min(axis=-1))
        hi[need] = np.maximum(hi[need], els.max(axis=-1))
    return np.stack([lo, hi, np.abs(lam.imag).max(axis=-1)], axis=-1)


def eigenvalues(U: np.ndarray, params: ModelParams) -> np.ndarray:
    """Complex spectrum of J(U), batched along leading axes.

    The union of the spectra of the diagonal blocks (``spectral_blocks``):
    the scalar hb_m entry, the gravity block (``eigvals``), and the
    D-scaled Elsasser blocks (``eigvalsh``, real).

    A batch of at least ``MIN_SPLIT_ENTRIES`` Jacobian entries is cut into
    ``spectrum_shares`` contiguous shares whose spectra are taken at once
    (``_in_shares``); the result is bitwise the same as in one share.
    """
    U = np.asarray(U, dtype=float)
    blocks = _spectral_matrices(U, params)
    return _in_shares(_block_spectra, blocks, params.n_vars).reshape(U.shape)


def interface_speeds(U_left: np.ndarray, U_right: np.ndarray,
                     params: ModelParams, quad: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """One-sided speed bounds s-, s+ for a batch of interfaces.

    s+ = max(Re spectrum(left), Re spectrum(right), 0) and s- the
    analogous minimum.  While a state's ratio max|Im| / max|Re| is at most
    ``params.tol_im``, its bounds use the real parts alone: the imaginary
    parts neither widen them (as Re +- |Im| would) nor fail the step.  The
    worst ratio over the states is returned for logging; a ratio above
    ``params.tol_im`` raises HyperbolicityError, located at (interface
    index, "left" or "right").
    ``quad`` is the quadratic flux of the left states followed by the
    right ones, when the caller has it.

    The extremes come from the gravity eigenvalues and hb_m, and from the
    real Elsasser eigenvalues only where their Gershgorin bound leaves
    that range (``_speed_extremes``): s-, s+ and every ratio are bitwise
    those of the full ``eigenvalues`` spectrum.
    """
    stacked = np.concatenate([np.atleast_2d(U_left), np.atleast_2d(U_right)])
    blocks = _spectral_matrices(stacked, params, quad)
    lo, hi, im = _in_shares(_speed_extremes, blocks, params.n_vars).T
    # per state max|Im| / max|Re|; above tol_im hyperbolicity is lost
    ratios = im / np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-14)
    half = stacked.shape[0] // 2
    worst = float(ratios.max()) if ratios.size else 0.0
    if worst > params.tol_im:
        side, iface = divmod(int(np.argmax(ratios)), half)
        side = ("left", "right")[side]
        raise HyperbolicityError(
            f"complex eigenvalue ratio {worst:.3e} exceeds {params.tol_im:.3e} "
            f"in the {side} state of interface {iface}",
            ratio=worst, location=(iface, side))
    s_plus = np.maximum(np.maximum(hi[:half], hi[half:]), 0.0)
    s_minus = np.minimum(np.minimum(lo[:half], lo[half:]), 0.0)
    return s_minus, s_plus, worst
