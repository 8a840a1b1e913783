"""Shifted-Legendre vertical basis and moment-closure tensors.

Vertical profiles of velocity and magnetic field are expanded in scaled
Legendre polynomials phi_l on [0, 1], normalized so that phi_l(0) = 1.
With that normalization the basis satisfies

    int_0^1 phi_i phi_j dz = delta_ij / (2i + 1),      phi_l(1) = (-1)**l.

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
from numpy.polynomial import polynomial as npoly

#: Largest supported expansion order.  The basis is stored as monomial
#: coefficients, which grow like 4**l and start losing digits past this.
MAX_ORDER = 12


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds supported maximum {MAX_ORDER}")


def _basis_coefficients(order: int) -> list[np.ndarray]:
    """Monomial coefficients (lowest degree first) of phi_1 .. phi_order."""
    t = np.array([-1.0, 2.0])  # t = 2*zeta - 1
    legendre = [np.array([1.0]), t]
    for n in range(1, order):
        # (n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}
        nxt = npoly.polysub((2 * n + 1) * npoly.polymul(t, legendre[n]),
                            n * legendre[n - 1]) / (n + 1)
        legendre.append(nxt)
    # sign-normalize so phi_l(0) = 1 (shifted Legendre has P_l(0) = (-1)**l)
    return [(-1.0) ** l * legendre[l] for l in range(1, order + 1)]


@dataclass(frozen=True)
class BasisSet:
    """Scaled Legendre basis phi_1 .. phi_order on [0, 1] with phi_l(0) = 1."""

    order: int
    poly_coeffs: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, order: int) -> "BasisSet":
        _check_order(order)
        return cls(order=int(order), poly_coeffs=tuple(_basis_coefficients(order)))

    def _coeffs(self, l: int) -> np.ndarray:
        if not 1 <= l <= self.order:
            raise IndexError(f"basis index {l} outside 1..{self.order}")
        return self.poly_coeffs[l - 1]

    def eval(self, l: int, zeta):
        """Evaluate phi_l at zeta in [0, 1]."""
        z = np.asarray(zeta, dtype=float)
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise ValueError("zeta outside [0, 1]")
        return npoly.polyval(z, self._coeffs(l))

    def eval_deriv(self, l: int, zeta):
        """Evaluate phi_l'."""
        z = np.asarray(zeta, dtype=float)
        return npoly.polyval(z, npoly.polyder(self._coeffs(l)))

    def eval_antideriv(self, l: int, zeta):
        """Evaluate int_0^zeta phi_l."""
        z = np.asarray(zeta, dtype=float)
        return npoly.polyval(z, npoly.polyint(self._coeffs(l)))

    def eval_all(self, zeta) -> np.ndarray:
        """phi_1..phi_order stacked along the leading axis, no range check."""
        z = np.asarray(zeta, dtype=float)
        if self.order == 0:
            return np.zeros((0,) + z.shape)
        return np.stack([npoly.polyval(z, c) for c in self.poly_coeffs])


def _legendre_and_deriv(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence (any float dtype)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_rule(n_points: int, extended: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1].

    With ``extended=True`` the nodes are Newton-refined in longdouble so
    that polynomial quadrature is exact to extended precision, not just to
    the double-precision accuracy of the tabulated nodes.
    """
    x, w = npleg.leggauss(n_points)
    if extended:
        x = x.astype(np.longdouble)
        for _ in range(3):
            p, dp = _legendre_and_deriv(n_points, x)
            x = x - p / dp
        _, dp = _legendre_and_deriv(n_points, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        half = np.longdouble(0.5)
        return half * (x + 1.0), half * w
    return 0.5 * (x + 1.0), 0.5 * w


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
    basis: BasisSet

    def __post_init__(self):
        for arr in (self.A, self.B, self.Gamma, self.phi_at_one):
            arr.setflags(write=False)


def build_tensors(order: int) -> ClosureTensors:
    """Build the closure tensors for expansion order ``order`` (M >= 0)."""
    _check_order(order)
    basis = BasisSet.build(order)
    if order == 0:
        empty3 = np.zeros((0, 0, 0))
        return ClosureTensors(0, empty3, empty3.copy(), np.zeros((0, 0)),
                              np.zeros(0), basis)

    # Exact for polynomial integrands of degree <= 3M (A is the worst case);
    # evaluated in extended precision so the stored float64 entries are the
    # correctly rounded exact rationals.
    z, w = gauss_rule(ceil((3 * order + 2) / 2) + 2, extended=True)
    phi = np.stack([npoly.polyval(z, c) for c in basis.poly_coeffs])   # (M, npts)
    dphi = np.stack([npoly.polyval(z, npoly.polyder(c)) for c in basis.poly_coeffs])
    iphi = np.stack([npoly.polyval(z, npoly.polyint(c)) for c in basis.poly_coeffs])
    scale = 2.0 * np.arange(1, order + 1).astype(np.longdouble) + 1.0

    A = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, phi, phi, phi)
    B = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, dphi, iphi, phi)
    Gamma = scale[:, None] * np.einsum("p,p,ip,lp->il", w, z, phi, dphi)
    phi_at_one = basis.eval_all(np.array(1.0))
    return ClosureTensors(int(order), A.astype(float), B.astype(float),
                          Gamma.astype(float), phi_at_one, basis)


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
        # phi_l(z) = P_l(1 - 2z) by the three-term recurrence: its terms stay
        # within 1, where monomial coefficients would cancel
        p = np.ones((order + 1, z.size), dtype=np.longdouble)
        if order:
            p[1] = 1.0 - 2.0 * z
        for l in range(2, order + 1):
            p[l] = ((2 * l - 1) * p[1] * p[l - 1] - (l - 1) * p[l - 2]) / l
        return (scale * p) @ ((b - a) * weights * sample(z))

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
    basis = BasisSet.build(len(moments))
    z = np.asarray(zeta, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("zeta outside [0, 1]")
    out = np.full_like(z, float(mean), dtype=float)
    for l in range(1, len(moments) + 1):
        out = out + moments[l - 1] * basis.eval(l, z)
    return out if out.shape else float(out)
