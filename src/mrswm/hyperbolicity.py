"""Hyperbolicity diagnostics for the first-order moment system.

Four of the nine first-order wave speeds come from a quartic in a scaled
eigenvalue variable; the system is hyperbolic where all four roots are
real.  ``quartic_roots`` evaluates that quartic's roots through the
companion matrix, ``roots_are_real`` gives the verdict, and
``scan_region`` classifies a Cartesian grid of scaled states (the
classifier behind the published hyperbolic-region plots).

The quartic lives in its own scaled coordinates (b_m, beta~, eta~) and is
used as the region classifier only.  For an actual moment state the
verdict comes from the Jacobian spectrum, through the |Im|/|Re| policy
of ``model1d.interface_speeds``; ``moment_state_from_scaled`` builds such
a state from scaled coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import write_csv

#: Imaginary tolerance for root realness: |Im| <= REAL_TOL * (1 + |Re|).
REAL_TOL = 1e-8


def quartic_coefficients(b_m, beta_tilde, eta_tilde, gh):
    """Monic quartic coefficients (c3, c2, c1, c0), broadcastable inputs."""
    b_m, bt, et, gh = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (b_m, beta_tilde, eta_tilde, gh)))
    if np.any(gh <= 0.0):
        raise ValueError("gh must be positive")
    c3 = np.zeros_like(b_m)
    c2 = -3.0 * (3.0 * b_m ** 2 / (b_m ** 2 + gh) + 1.0 + 3.0 * bt ** 2 + et ** 2)
    c1 = -72.0 * b_m * bt * et
    c0 = 27.0 * b_m ** 2 * (3.0 - bt ** 2 - 3.0 * et ** 2)
    return c3, c2, c1, c0


def quartic_roots(b_m, beta_tilde, eta_tilde, gh) -> np.ndarray:
    """Roots of the scaled wave-speed quartic via the companion matrix.

    Broadcasts over array inputs; the roots land in the trailing axis.
    """
    c3, c2, c1, c0 = quartic_coefficients(b_m, beta_tilde, eta_tilde, gh)
    comp = np.zeros(c3.shape + (4, 4))
    comp[..., 1, 0] = 1.0
    comp[..., 2, 1] = 1.0
    comp[..., 3, 2] = 1.0
    comp[..., 0, 3] = -c0
    comp[..., 1, 3] = -c1
    comp[..., 2, 3] = -c2
    comp[..., 3, 3] = -c3
    return np.linalg.eigvals(comp)


def quartic_residual(roots, b_m, beta_tilde, eta_tilde, gh) -> np.ndarray:
    """|p(root)| normalized by the largest coefficient magnitude."""
    c3, c2, c1, c0 = quartic_coefficients(b_m, beta_tilde, eta_tilde, gh)
    r = np.asarray(roots)
    p = (((r + c3[..., None]) * r + c2[..., None]) * r + c1[..., None]) * r + c0[..., None]
    scale = np.maximum.reduce([np.abs(c) for c in (c3, c2, c1, c0)])
    return np.abs(p) / np.maximum(scale, 1.0)[..., None]


def roots_are_real(roots: np.ndarray, tol: float = REAL_TOL) -> np.ndarray:
    """Realness verdict per state: every root within the imaginary band."""
    return np.all(np.abs(roots.imag) <= tol * (1.0 + np.abs(roots.real)), axis=-1)


@dataclass
class ScanResult:
    """Verdict grid of a Cartesian sweep in the scaled coordinates."""

    b_values: np.ndarray
    beta_values: np.ndarray
    eta_values: np.ndarray
    gh: float
    hyperbolic: np.ndarray      # bool (nb, nbeta, neta)
    max_im_ratio: np.ndarray    # float (nb, nbeta, neta)

    @property
    def hyperbolic_fraction(self) -> float:
        return float(self.hyperbolic.mean())

    def write_csv(self, path) -> None:
        """One row per sample, in C order over (b_m, beta_tilde, eta_tilde)."""
        axes = np.meshgrid(self.b_values, self.beta_values, self.eta_values,
                           indexing="ij")
        write_csv(path, ["b_m", "beta_tilde", "eta_tilde", "hyperbolic", "max_im_ratio"],
                  [a.ravel() for a in axes]
                  + [self.hyperbolic.ravel(), self.max_im_ratio.ravel()])


def scan_region(b_range: tuple[float, float], beta_range: tuple[float, float],
                eta_range: tuple[float, float],
                resolutions: tuple[int, int, int] | int,
                gh: float = 1.0) -> ScanResult:
    """Classify realness on the Cartesian grid of scaled states."""
    if np.isscalar(resolutions):
        resolutions = (int(resolutions),) * 3
    nb, nbeta, neta = resolutions
    b = np.linspace(*b_range, nb)
    bt = np.linspace(*beta_range, nbeta)
    et = np.linspace(*eta_range, neta)
    B, BT, ET = np.meshgrid(b, bt, et, indexing="ij")
    roots = quartic_roots(B, BT, ET, gh)
    verdict = roots_are_real(roots)
    ratio = (np.abs(roots.imag) / (1.0 + np.abs(roots.real))).max(axis=-1)
    return ScanResult(b, bt, et, float(gh), verdict, ratio)


def moment_state_from_scaled(b_m: float, beta_tilde: float, eta_tilde: float,
                             gh: float, g: float = 1.0) -> np.ndarray:
    """First-order state (v_m = u_m = a_m = alpha = gamma = 0) realizing
    the scaled coordinates: h = gh/g, beta = beta~ * sqrt(b_m^2 + gh)."""
    h = gh / g
    scale = np.sqrt(b_m ** 2 + gh)
    U = np.zeros(9)
    U[0] = h
    U[4] = h * b_m
    U[6] = h * beta_tilde * scale
    U[8] = h * eta_tilde * scale
    return U
