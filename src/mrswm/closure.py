"""Shifted-Legendre vertical basis and moment-closure tensors.

Vertical profiles of velocity and magnetic field are expanded in scaled
Legendre polynomials phi_l(z) = P_l(1 - 2z) on [0, 1], normalized so that
phi_l(0) = 1.  With that normalization the basis satisfies

    int_0^1 phi_i phi_j dz = delta_ij / (2i + 1),      phi_l(1) = (-1)**l.

``basis_rows`` evaluates phi_0 .. phi_M by the three-term recurrence, in
the dtype of z; the tensors, the Gauss rule, the projection and the
profile evaluation all take their basis values from it, and the tensors
take phi_l' and int_0^z phi_l from its rows.

The moment fluxes and nonconservative coupling terms of the moment system
are built from three tensors of basis products,

    A[i,l,n]   = (2i+1) int phi_i phi_l phi_n dz
    B[i,l,n]   = (2i+1) int phi_i' (int_0^z phi_l) phi_n dz
    Gamma[i,l] = (2i+1) int z phi_i phi_l' dz

All integrands are polynomials of degree <= 3M, so a fixed Gauss-Legendre
rule of sufficient length evaluates every entry exactly up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg

#: Largest supported expansion order: the closure tensors, the projection
#: and the profile evaluation are checked against independent quadrature
#: up to this order, and the moment system has 5 + 4M unknowns per cell.
MAX_ORDER = 12


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds supported maximum {MAX_ORDER}")


def basis_rows(order: int, zeta) -> np.ndarray:
    """Rows phi_0 .. phi_order at ``zeta``, shape (order + 1,) + zeta.shape.

    phi_l(z) = P_l(1 - 2z) by the three-term recurrence, whose terms stay
    within 1 on [0, 1]; the rows keep a floating ``zeta``'s dtype (float64
    for profiles, longdouble for quadrature), others become float64.  Any
    z is accepted: the range check belongs to callers taking outside input.
    """
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    z = np.asarray(zeta)
    if z.dtype.kind != "f":
        z = z.astype(float)
    p = np.ones((order + 1,) + z.shape, dtype=z.dtype)
    if order:
        p[1] = 1.0 - 2.0 * z
    for l in range(2, order + 1):
        # l P_l = (2l - 1) x P_{l-1} - (l - 1) P_{l-2}, with x = p[1]
        p[l] = ((2 * l - 1) * p[1] * p[l - 1] - (l - 1) * p[l - 2]) / l
    return p


def _derivative_rows(phi: np.ndarray) -> np.ndarray:
    """phi_0' .. phi_M' from the rows of ``basis_rows``.

    P'_{l+1} = P'_{l-1} + (2l+1) P_l with phi_l' = -2 P_l'(1 - 2z): unlike
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), it has no division at z = 0, 1.
    """
    dphi = np.zeros_like(phi)
    for l in range(1, len(phi)):
        dphi[l] = (dphi[l - 2] if l > 1 else 0.0) - 2 * (2 * l - 1) * phi[l - 1]
    return dphi


def gauss_rule(n_points: int, extended: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1].

    With ``extended=True`` the nodes are Newton-refined in longdouble so
    that polynomial quadrature is exact to extended precision, not just to
    the double-precision accuracy of the tabulated nodes.
    """
    x, w = npleg.leggauss(n_points)
    if not extended:
        return 0.5 * (x + 1.0), 0.5 * w
    z = np.longdouble(0.5) * (x.astype(np.longdouble) + 1.0)
    for _ in range(3):
        phi = basis_rows(n_points, z)
        z = z - phi[n_points] / _derivative_rows(phi)[n_points]
    dp = _derivative_rows(basis_rows(n_points, z))[n_points]
    # the weights 2 / ((1 - x^2) P_n'(x)^2) on [-1, 1], mapped to [0, 1]
    return z, 1.0 / (z * (1.0 - z) * dp * dp)


@dataclass(frozen=True, eq=False)
class ClosureTensors:
    """Coupling tensors of the order-M moment closure.

    ``A`` is symmetric in its last two indices; all entries are exact
    rationals reproduced by the quadrature to round-off.  ``phi_at_one``
    holds phi_l(1) = (-1)**l, which weighs the surface values entering the
    magnetic-divergence source.
    """

    order: int
    A: np.ndarray           # (M, M, M)
    B: np.ndarray           # (M, M, M)
    Gamma: np.ndarray       # (M, M)
    phi_at_one: np.ndarray  # (M,)

    def __post_init__(self):
        for arr in (self.A, self.B, self.Gamma, self.phi_at_one):
            arr.setflags(write=False)


def build_tensors(order: int) -> ClosureTensors:
    """Build the closure tensors for expansion order ``order`` (M >= 0)."""
    _check_order(order)
    # Exact for polynomial integrands of degree <= 3M (A is the worst case);
    # evaluated in extended precision so the stored float64 entries are
    # within one unit in the last place of the exact rationals, and exact
    # zeros come out as round-off below 1e-16 (checked up to MAX_ORDER).
    z, w = gauss_rule(ceil((3 * order + 2) / 2) + 2, extended=True)
    rows = basis_rows(order + 1, z)                     # phi_0 .. phi_{M+1}
    scale = 2.0 * np.arange(1, order + 1).astype(np.longdouble) + 1.0
    phi = rows[1:-1]                                    # (M, npts)
    dphi = _derivative_rows(rows)[1:-1]
    # int_0^z phi_l = (phi_{l-1} - phi_{l+1}) / (2 (2l+1))
    iphi = (rows[:-2] - rows[2:]) / (2.0 * scale[:, None])

    A = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, phi, phi, phi)
    B = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, dphi, iphi, phi)
    Gamma = scale[:, None] * np.einsum("p,p,ip,lp->il", w, z, phi, dphi)
    phi_at_one = basis_rows(order, 1.0)[1:]
    return ClosureTensors(int(order), A.astype(float), B.astype(float),
                          Gamma.astype(float), phi_at_one)


#: Gauss-Legendre points per panel of ``project_profile``, and the most
#: panels it splits before it gives up.
_PANEL_POINTS = 20
_MAX_PANELS = 5000
#: Relative rounding that ``project_profile`` allows in profile values: a
#: panel need not agree closer than this times (2M+1) times the largest
#: |profile| seen.  Without it the default tol of 1e-12 would ask profiles
#: above about 1e3 to agree beyond the double rounding of their own values.
_VALUE_ROUNDING = 16 * np.finfo(float).eps


def project_profile(profile: Callable[[float], float], order: int,
                    tol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Project a vertical profile onto the mean and first ``order`` moments.

    Returns ``(mean, moments)`` with mean = int_0^1 profile and
    moments[i] = (2(i+1)+1) int_0^1 phi_{i+1} profile, so that
    profile ~ mean + sum_l moments[l-1] phi_l.

    The profile is called on floats: once at each end point and once per
    node.  Each panel's mean and moments come from one weighted sum in
    longdouble; a panel is accepted once its one-panel and two half-panel
    estimates agree to ``tol`` times its width, or to the rounding of the
    profile's values, else it is bisected.  Jumps and kinks converge as
    their panel narrows to one float spacing.  A non-finite value, or a
    panel still unresolved when the split budget runs out, is a ValueError.

    Only what the nodes sample can start a split: a feature so narrow and
    so near an end point that it falls between all nodes of the whole
    interval and of both its halves is missed.  A step at z = 1e-5 (0
    below it, 1 above) returns mean 1.0, not 1 - 1e-5, since every node of
    [0, 1/2] lies above 1e-5; the end-point samples at z = 0 and 1 only
    scale the tolerance.
    """
    _check_order(order)
    nodes, weights = gauss_rule(_PANEL_POINTS, extended=True)
    scale = 2 * np.arange(order + 1)[:, None] + 1
    largest = 0.0

    def sample(z: np.ndarray) -> np.ndarray:
        nonlocal largest
        f = np.array([profile(float(zi)) for zi in z], dtype=float)
        if not np.all(np.isfinite(f)):
            raise ValueError("profile returned non-finite values on "
                             f"[{float(z[0])!r}, {float(z[-1])!r}]")
        largest = max(largest, float(np.max(np.abs(f))))
        return f

    def panel(a: float, b: float) -> np.ndarray:
        z = a + (b - a) * nodes
        return (scale * basis_rows(order, z)) @ ((b - a) * weights * sample(z))

    sample(np.array([0.0, 1.0]))    # the end points, which no node reaches
    total = np.zeros(order + 1, dtype=np.longdouble)
    pending = [(0.0, 1.0, panel(0.0, 1.0))]
    splits = 0
    while pending:
        a, b, whole = pending.pop()
        mid = 0.5 * (a + b)
        if not a < mid < b:     # one float spacing wide: nothing left to split
            total += whole
            continue
        left, right = panel(a, mid), panel(mid, b)
        splits += 1
        floor = _VALUE_ROUNDING * (2 * order + 1) * largest
        if np.max(np.abs(left + right - whole)) <= (b - a) * max(tol, floor):
            total += left + right
        elif splits < _MAX_PANELS:
            pending += [(mid, b, right), (a, mid, left)]
        else:
            raise ValueError(f"profile projection did not converge on [{a!r}, {b!r}] "
                             f"within {_MAX_PANELS} panel splits")
    return float(total[0]), total[1:].astype(float)


def eval_profile(mean: float, moments: Sequence[float], zeta):
    """Evaluate mean + sum_l moments[l-1] phi_l(zeta) for zeta in [0, 1]."""
    moments = np.asarray(moments, dtype=float)
    _check_order(len(moments))
    z = np.asarray(zeta, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("zeta outside [0, 1]")
    out = np.full_like(z, float(mean))
    for m, phi in zip(moments, basis_rows(len(moments), z)[1:]):
        out = out + m * phi
    return out if out.shape else float(out)
