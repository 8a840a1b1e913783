"""Quartic-root classifier and Jacobian-spectrum hyperbolicity checks."""

from dataclasses import replace

import numpy as np
import pytest

from mrswm import hyperbolicity as hyp
from mrswm import model1d
from mrswm.errors import HyperbolicityError


def jacobian_verdict(U, params, tol_im=None):
    """(verdict, max |Im| / max |Re|) of a state under the solver's own
    policy, ``model1d.interface_speeds`` with the state on both sides,
    at ``tol_im`` in place of the params' own when given."""
    if tol_im is not None:
        params = replace(params, tol_im=tol_im)
    try:
        _, _, ratio = model1d.interface_speeds(U, U, params)
    except HyperbolicityError as exc:
        return False, exc.ratio
    return True, ratio


def quartic_verdict(b_m, beta_tilde, eta_tilde, gh):
    return bool(hyp.roots_are_real(hyp.quartic_roots(b_m, beta_tilde, eta_tilde, gh)))


class TestQuarticRoots:
    def test_zero_field_roots(self):
        roots = np.sort_complex(hyp.quartic_roots(0.0, 0.0, 0.0, 1.0))
        expected = np.sort_complex(np.array([-np.sqrt(3.0), 0.0, 0.0, np.sqrt(3.0)]))
        np.testing.assert_allclose(roots, expected, atol=1e-7)

    def test_zero_mean_field_slice_always_real(self):
        rng = np.random.default_rng(0)
        bt = rng.uniform(-10, 10, size=500)
        et = rng.uniform(-10, 10, size=500)
        roots = hyp.quartic_roots(np.zeros(500), bt, et, np.ones(500))
        assert np.all(hyp.roots_are_real(roots))

    def test_residual_contract(self):
        # acceptance-scale draw: residual bound over 1e5 random coefficients
        rng = np.random.default_rng(1)
        n = 100_000
        b = rng.uniform(-5, 5, size=n)
        bt = rng.uniform(-10, 10, size=n)
        et = rng.uniform(-10, 10, size=n)
        gh = rng.uniform(0.1, 4.0, size=n)
        roots = hyp.quartic_roots(b, bt, et, gh)
        res = hyp.quartic_residual(roots, b, bt, et, gh)
        assert res.max() <= 1e-9

    def test_rejects_nonpositive_gh(self):
        with pytest.raises(ValueError):
            hyp.quartic_roots(0.1, 0.0, 0.0, 0.0)


class TestIsHyperbolic:
    def test_m0_always_hyperbolic(self):
        rng = np.random.default_rng(2)
        p = model1d.ModelParams(g=1.0, order=0)
        for _ in range(100):
            U = np.empty(5)
            U[0] = rng.uniform(0.2, 3.0)
            U[1:] = rng.normal(size=4) * U[0]
            ok, ratio = jacobian_verdict(U, p)
            assert ok and ratio <= 1e-6

    def test_m1_zero_mean_field_hyperbolic(self):
        rng = np.random.default_rng(3)
        p = model1d.ModelParams(g=1.0, order=1)
        for _ in range(100):
            U = np.empty(9)
            U[0] = rng.uniform(0.2, 3.0)
            U[1:] = rng.normal(size=8) * U[0]
            U[4] = 0.0                     # b_m = 0
            ok, ratio = jacobian_verdict(U, p, tol_im=1e-6)
            assert ok, f"ratio {ratio} at state {U}"

    def test_deep_void_state_flagged(self):
        # located by the scan: strong b_m with a strong mixed profile
        assert not quartic_verdict(2.0, 2.0, 0.0, 1.0)
        p = model1d.ModelParams(g=1.0, order=1)
        U = hyp.moment_state_from_scaled(2.0, 2.0, 0.0, 1.0)
        ok, ratio = jacobian_verdict(U, p, tol_im=1e-3)
        assert not ok and ratio > 1e-3


class TestScan:
    def test_zero_slice_fully_hyperbolic(self):
        scan = hyp.scan_region((0.0, 0.0), (-10, 10), (-10, 10), (1, 41, 41))
        assert scan.hyperbolic_fraction == 1.0

    def test_sign_flip_symmetry(self):
        scan = hyp.scan_region((-3, 3), (-6, 6), (-6, 6), (13, 13, 13))
        flipped = scan.hyperbolic[:, ::-1, ::-1]
        np.testing.assert_array_equal(scan.hyperbolic, flipped)

    def test_published_ranges_have_nonempty_void(self):
        scan = hyp.scan_region((-5, 5), (-10, 10), (-10, 10), (21, 21, 21))
        assert 0.0 < scan.hyperbolic_fraction < 1.0

    def test_csv_dump(self, tmp_path):
        scan = hyp.scan_region((-1, 1), (-2, 2), (-2, 2), (3, 3, 3))
        out = tmp_path / "scan.csv"
        scan.write_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "b_m,beta_tilde,eta_tilde,hyperbolic,max_im_ratio"
        assert len(lines) == 1 + 27
        # rows in C order over (b, beta, eta), carrying the grid's values
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        B, T, E = np.meshgrid(scan.b_values, scan.beta_values, scan.eta_values,
                              indexing="ij")
        np.testing.assert_array_equal(rows[:, 0], B.ravel())
        np.testing.assert_array_equal(rows[:, 1], T.ravel())
        np.testing.assert_array_equal(rows[:, 2], E.ravel())
        np.testing.assert_array_equal(rows[:, 3], scan.hyperbolic.ravel())
        np.testing.assert_array_equal(rows[:, 4], scan.max_im_ratio.ravel())
        assert lines[1].startswith("-1,-2,-2,") and lines[2].startswith("-1,-2,0,")
        assert lines[4].startswith("-1,0,-2,") and lines[10].startswith("0,-2,-2,")


class TestAgreementAdvisory:
    def test_quartic_and_jacobian_agreement_logged(self, capsys):
        # advisory cross-check on v_m = 0 states over the published plot
        # ranges; the printed quartic lives in its own scaled coordinates
        # and its void is slightly larger than the Jacobian's, so the
        # agreement rate is reported rather than enforced point-wise
        p = model1d.ModelParams(g=1.0, order=1)
        grid = np.linspace(-5, 5, 13), np.linspace(-10, 10, 13), np.linspace(-10, 10, 13)
        B, T, E = np.meshgrid(*grid, indexing="ij")
        quartic = hyp.roots_are_real(hyp.quartic_roots(B, T, E, 1.0))
        states = np.stack([hyp.moment_state_from_scaled(b, t, e, 1.0)
                           for b, t, e in zip(B.ravel(), T.ravel(), E.ravel())])
        lam = model1d.eigenvalues(states, p)
        im = np.abs(lam.imag).max(-1)
        re = np.maximum(np.abs(lam.real).max(-1), 1e-14)
        jacobian = (im / re <= 1e-4).reshape(B.shape)
        agreement = float((quartic == jacobian).mean())
        n_disagree = int((quartic != jacobian).sum())
        print(f"quartic/jacobian agreement {agreement:.3f} "
              f"({n_disagree} of {quartic.size} disagree)")
        assert agreement >= 0.8

    def test_structural_agreement_points(self):
        p = model1d.ModelParams(g=1.0, order=1)
        # weak mean field: both classifiers see hyperbolic states
        for b, bt, et in [(0.1, 0.1, -0.1), (0.0, 2.0, 1.0), (-0.05, 0.0, 0.2)]:
            assert quartic_verdict(b, bt, et, 1.0)
            U = hyp.moment_state_from_scaled(b, bt, et, 1.0)
            ok, _ = jacobian_verdict(U, p, tol_im=1e-4)
            assert ok
        # deep inside the void both flag the loss
        for b, bt, et in [(2.0, 2.0, 0.0), (3.0, -3.0, 0.5)]:
            assert not quartic_verdict(b, bt, et, 1.0)
            U = hyp.moment_state_from_scaled(b, bt, et, 1.0)
            ok, _ = jacobian_verdict(U, p, tol_im=1e-4)
            assert not ok
