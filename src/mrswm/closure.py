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
from scipy import integrate

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


def project_profile(profile: Callable[[float], float], order: int,
                    tol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Project a vertical profile onto the mean and first ``order`` moments.

    Returns ``(mean, moments)`` with mean = int_0^1 profile and
    moments[i] = (2(i+1)+1) int_0^1 phi_{i+1} profile, so that
    profile ~ mean + sum_l moments[l-1] phi_l.
    """
    _check_order(order)
    probe = np.asarray([profile(z) for z in np.linspace(0.0, 1.0, 17)], dtype=float)
    if not np.all(np.isfinite(probe)):
        raise ValueError("profile returned non-finite values on [0, 1]")

    basis = BasisSet.build(order)
    mean, _ = integrate.quad(profile, 0.0, 1.0, epsabs=tol, limit=200)
    moments = np.empty(order)
    for i in range(1, order + 1):
        val, _ = integrate.quad(lambda zz, i=i: basis.eval(i, zz) * profile(zz),
                                0.0, 1.0, epsabs=tol, limit=200)
        moments[i - 1] = (2 * i + 1) * val
    return mean, moments


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
