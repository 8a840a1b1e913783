"""Basis and closure-tensor tests against an independent quadrature oracle.

The oracle builds the basis through numpy's Legendre class mapped to
[0, 1] (Clenshaw summation of a Legendre series, a construction path
disjoint from the package's three-term recurrence) and integrates every
tensor entry with a 200-node Gauss rule.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Legendre

from mrswm import closure, experiments


def oracle_phi(l):
    """phi_l as a numpy Legendre object on [0, 1], normalized phi_l(0) = 1."""
    return (-1.0) ** l * Legendre.basis(l, domain=[0.0, 1.0])


def oracle_gauss(n):
    """Own 200-node-capable Gauss rule on [0, 1], refined in longdouble."""
    x, _ = np.polynomial.legendre.leggauss(n)
    x = x.astype(np.longdouble)

    def leg(xv):
        p_prev, p = np.ones_like(xv), xv.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * xv * p - (k - 1) * p_prev) / k
        return p, n * (xv * p - p_prev) / (xv * xv - 1.0)

    for _ in range(3):
        p, dp = leg(x)
        x = x - p / dp
    _, dp = leg(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (x + 1.0) / 2.0, w / 2.0


def oracle_tensors(order, n_nodes=200):
    """A, B, Gamma via 200-node quadrature of the Legendre-class basis."""
    z, w = oracle_gauss(n_nodes)
    phi = np.array([oracle_phi(l)(z) for l in range(1, order + 1)])
    dphi = np.array([oracle_phi(l).deriv()(z) for l in range(1, order + 1)])
    iphi = np.array([oracle_phi(l).integ(lbnd=0.0)(z) for l in range(1, order + 1)])
    scale = 2.0 * np.arange(1, order + 1).astype(np.longdouble) + 1.0
    A = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, phi, phi, phi)
    B = scale[:, None, None] * np.einsum("p,ip,lp,np->iln", w, dphi, iphi, phi)
    G = scale[:, None] * np.einsum("p,p,ip,lp->il", w, z, phi, dphi)
    return A.astype(float), B.astype(float), G.astype(float)


class TestBasis:
    def test_normalization_at_zero(self):
        phi = closure.basis_rows(6, 0.0)
        for l in range(1, 7):
            assert phi[l] == pytest.approx(1.0, abs=1e-13)

    def test_first_basis_values(self):
        phi = closure.basis_rows(3, np.array([0.0, 0.5]))
        assert phi[1, 0] == pytest.approx(1.0)
        assert phi[1, 1] == pytest.approx(0.0, abs=1e-15)
        assert phi[2, 1] == pytest.approx(-0.5)

    def test_cubic_polynomial_coefficients(self):
        # phi_3 = 1 - 12z + 30z^2 - 20z^3, checked through its values
        z = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(closure.basis_rows(3, z)[3],
                                   1.0 - 12.0 * z + 30.0 * z ** 2 - 20.0 * z ** 3,
                                   rtol=0, atol=1e-14)

    def test_degree(self):
        # phi_l has degree exactly l: on l + 2 equispaced points its
        # (l+1)-th difference vanishes, and on l + 1 points its l-th
        # difference is l! h^l times the leading coefficient (-1)^l C(2l, l)
        for l in range(1, 9):
            over = np.diff(closure.basis_rows(l, np.linspace(0.0, 1.0, l + 2))[l], l + 1)
            assert abs(over[0]) < 1e-12
            step = np.diff(closure.basis_rows(l, np.linspace(0.0, 1.0, l + 1))[l], l)
            lead = (-1) ** l * math.comb(2 * l, l)
            assert step[0] == pytest.approx(math.factorial(l) * lead / l ** l, rel=1e-12)

    def test_orthogonality(self):
        z, w = closure.gauss_rule(40)
        phi = closure.basis_rows(6, z)[1:]
        gram = np.einsum("p,ip,jp->ij", w, phi, phi)
        expected = np.diag(1.0 / (2.0 * np.arange(1, 7) + 1.0))
        np.testing.assert_allclose(gram, expected, atol=1e-14)

    def test_matches_oracle_basis(self):
        z = np.linspace(0.0, 1.0, 57)
        phi = closure.basis_rows(closure.MAX_ORDER, z)
        for l in range(1, closure.MAX_ORDER + 1):
            np.testing.assert_allclose(phi[l], oracle_phi(l)(z), rtol=0, atol=1e-14)

    def test_matches_longdouble_evaluation(self):
        # float64 rows against the oracle's Legendre series evaluated in
        # longdouble, on 20,001 points (6.4e-15 measured at order 12)
        z = np.linspace(0.0, 1.0, 20001)
        phi = closure.basis_rows(closure.MAX_ORDER, z)
        for l in range(closure.MAX_ORDER + 1):
            exact = oracle_phi(l)(z.astype(np.longdouble))
            assert exact.dtype == np.longdouble
            np.testing.assert_allclose(phi[l], exact.astype(float), rtol=0, atol=1e-14)

    def test_rows_keep_dtype(self):
        for dtype in (np.float64, np.longdouble):
            z = np.linspace(0.0, 1.0, 5, dtype=dtype)
            assert closure.basis_rows(4, z).dtype == dtype
        assert closure.basis_rows(2, [0, 1]).dtype == np.float64

    def test_rejects_bad_index_and_range(self):
        # rows run phi_0 = 1 .. phi_order, no further
        phi = closure.basis_rows(3, np.array([0.2, 0.5]))
        assert phi.shape == (4, 2)
        np.testing.assert_array_equal(phi[0], 1.0)
        with pytest.raises(ValueError):
            closure.eval_profile(0.0, [1.0], 1.5)
        with pytest.raises(ValueError):
            closure.eval_profile(0.0, [1.0], -0.1)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            closure.basis_rows(-1, 0.5)
        with pytest.raises(ValueError):
            closure.basis_rows(1.5, 0.5)
        with pytest.raises(ValueError):
            closure.eval_profile(0.0, np.zeros(closure.MAX_ORDER + 1), 0.5)
        with pytest.raises(ValueError):
            closure.build_tensors(closure.MAX_ORDER + 1)


class TestTensors:
    @pytest.mark.parametrize("order", range(1, closure.MAX_ORDER + 1))
    def test_matches_200_node_oracle(self, order):
        t = closure.build_tensors(order)
        A, B, G = oracle_tensors(order)
        np.testing.assert_allclose(t.A, A, atol=1e-13)
        np.testing.assert_allclose(t.B, B, atol=1e-13)
        np.testing.assert_allclose(t.Gamma, G, atol=1e-13)

    def test_known_entries(self):
        t = closure.build_tensors(3)
        assert t.A[0, 0, 0] == pytest.approx(0.0, abs=1e-14)
        assert t.Gamma[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_phi_at_one_alternates(self):
        t = closure.build_tensors(6)
        np.testing.assert_allclose(t.phi_at_one, (-1.0) ** np.arange(1, 7),
                                   atol=1e-13)

    def test_antiderivative_pairing_identity(self):
        # int phi_i' (int_0^z phi_n) dz = -delta_in / (2i+1)
        # with phi_l' and int_0^z phi_l from the rows, as build_tensors takes them
        z, w = closure.gauss_rule(64)
        rows = closure.basis_rows(6, z)
        dphi = closure._derivative_rows(rows)
        for i in range(1, 6):
            for n in range(1, 6):
                iphi = (rows[n - 1] - rows[n + 1]) / (2 * (2 * n + 1))
                val = np.sum(w * dphi[i] * iphi)
                expect = -1.0 / (2 * i + 1) if i == n else 0.0
                assert val == pytest.approx(expect, abs=1e-14)

    def test_a_symmetric_in_last_indices(self):
        t = closure.build_tensors(6)
        np.testing.assert_allclose(t.A, np.swapaxes(t.A, 1, 2), atol=1e-14)

    def test_nesting(self):
        big = closure.build_tensors(6)
        for m in range(1, 6):
            small = closure.build_tensors(m)
            np.testing.assert_allclose(big.A[:m, :m, :m], small.A, atol=1e-13)
            np.testing.assert_allclose(big.B[:m, :m, :m], small.B, atol=1e-13)
            np.testing.assert_allclose(big.Gamma[:m, :m], small.Gamma, atol=1e-13)

    def test_order_zero_empty(self):
        t = closure.build_tensors(0)
        assert t.A.shape == (0, 0, 0)
        assert t.phi_at_one.shape == (0,)

    def test_tensors_immutable(self):
        t = closure.build_tensors(2)
        with pytest.raises(ValueError):
            t.A[0, 0, 0] = 1.0


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            out[a + b] += x * y
    return out


def _poly_integral(p):
    """int_0^1 of a polynomial given by its monomial coefficients."""
    return sum(x / (k + 1) for k, x in enumerate(p))


def exact_tensors(order):
    """A, B and Gamma as exact rationals (object arrays), from the monomial
    coefficients of phi_l(z) = P_l(1 - 2z) = sum_k (-1)^k C(l,k) C(l+k,k) z^k."""
    phi = [[Fraction((-1) ** k * math.comb(l, k) * math.comb(l + k, k))
            for k in range(l + 1)] for l in range(1, order + 1)]
    dphi = [[k * p[k] for k in range(1, len(p))] for p in phi]
    iphi = [[Fraction(0)] + [x / (k + 1) for k, x in enumerate(p)] for p in phi]
    A = np.zeros((order,) * 3, dtype=object)
    B = np.zeros((order,) * 3, dtype=object)
    G = np.zeros((order,) * 2, dtype=object)
    for i in range(order):
        for l in range(order):
            G[i, l] = (2 * i + 3) * _poly_integral(
                _poly_mul([Fraction(0), Fraction(1)], _poly_mul(phi[i], dphi[l])))
            pp, dp = _poly_mul(phi[i], phi[l]), _poly_mul(dphi[i], iphi[l])
            for n in range(order):
                A[i, l, n] = (2 * i + 3) * _poly_integral(_poly_mul(pp, phi[n]))
                B[i, l, n] = (2 * i + 3) * _poly_integral(_poly_mul(dp, phi[n]))
    return A, B, G


class TestSelectionRules:
    """Entries the selection rules forbid vanish exactly and are stored as
    exact zeros."""

    def test_rules_against_exact_rationals(self):
        order = closure.MAX_ORDER
        A, B, G = exact_tensors(order)
        triangle, upper = closure.selection_rules(order)
        # necessary: nothing the rules forbid is nonzero; for A and Gamma
        # also sufficient
        assert np.array_equal(A != 0, triangle)
        assert np.array_equal(G != 0, upper)
        assert not np.any((B != 0) & ~triangle)
        cancelled = {tuple(int(d) for d in idx + 1)
                     for idx in np.argwhere(triangle & (B == 0))}
        assert cancelled == {(3, 5, 6), (5, 3, 6), (6, 9, 11), (9, 6, 11)}
        t = closure.build_tensors(order)
        for stored, exact in ((t.A, A), (t.B, B), (t.Gamma, G)):
            exact = exact.astype(float)
            assert np.abs(stored - exact).max() <= 4e-16 * max(1.0, np.abs(exact).max())

    @pytest.mark.parametrize("order", range(closure.MAX_ORDER + 1))
    def test_forbidden_entries_are_exact_zeros(self, order):
        t = closure.build_tensors(order)
        triangle, upper = closure.selection_rules(order)
        assert triangle.shape == t.A.shape and upper.shape == t.Gamma.shape
        assert np.all(t.A[~triangle] == 0.0)
        assert np.all(t.B[~triangle] == 0.0)
        assert np.all(t.Gamma[~upper] == 0.0)


class TestProjection:
    def test_constant_profile(self):
        mean, moments = closure.project_profile(lambda z: 3.7, 4)
        assert mean == pytest.approx(3.7, abs=1e-12)
        np.testing.assert_allclose(moments, 0.0, atol=1e-12)

    def test_sinusoid_profile(self):
        mean, moments = closure.project_profile(
            lambda z: 0.25 * np.sin(2.0 * np.pi * z), 3)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert moments[0] == pytest.approx(3.0 / (4.0 * np.pi), abs=1e-12)
        assert moments[1] == pytest.approx(0.0, abs=1e-12)
        assert moments[2] == pytest.approx(
            7.0 * (np.pi ** 2 - 15.0) / (4.0 * np.pi ** 3), abs=1e-12)

    def test_linear_profile(self):
        mean, moments = closure.project_profile(lambda z: 0.5 * z, 3)
        assert mean == pytest.approx(0.25, abs=1e-13)
        assert moments[0] == pytest.approx(-0.25, abs=1e-13)
        np.testing.assert_allclose(moments[1:], 0.0, atol=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            closure.project_profile(lambda z: np.inf if z > 0.5 else 0.0, 2)

    def test_eval_profile_values(self):
        assert closure.eval_profile(1.1, [-0.25], 0.0) == pytest.approx(0.85)
        assert closure.eval_profile(2.5, [0.0, 0.0], 0.73) == pytest.approx(2.5)

    def test_eval_profile_rejects_range(self):
        with pytest.raises(ValueError):
            closure.eval_profile(1.0, [0.1], 1.2)

    def test_round_trip_on_polynomials(self):
        rng = np.random.default_rng(7)
        for order in (1, 2, 4):
            coeffs = rng.normal(size=order + 1)
            profile = lambda z: np.polynomial.polynomial.polyval(z, coeffs)
            mean, moments = closure.project_profile(profile, order)
            z = np.linspace(0.0, 1.0, 33)
            np.testing.assert_allclose(closure.eval_profile(mean, moments, z),
                                       profile(z), atol=1e-11)

    def test_projection_inverts_evaluation(self):
        rng = np.random.default_rng(11)
        mean = rng.normal()
        moments = rng.normal(size=4)
        m2, mom2 = closure.project_profile(
            lambda z: closure.eval_profile(mean, moments, z), 4)
        assert m2 == pytest.approx(mean, abs=1e-12)
        np.testing.assert_allclose(mom2, moments, atol=1e-12)

    def test_quadratic_product_identity(self):
        # int W^(j) W^(k) = mean_j mean_k + sum_l m_j[l] m_k[l] / (2l+1)
        rng = np.random.default_rng(3)
        order = 3
        z, w = closure.gauss_rule(32)
        for _ in range(5):
            mj, mk = rng.normal(size=2)
            momj, momk = rng.normal(size=(2, order))
            wj = closure.eval_profile(mj, momj, z)
            wk = closure.eval_profile(mk, momk, z)
            lhs = np.sum(w * wj * wk)
            rhs = mj * mk + np.sum(momj * momk / (2.0 * np.arange(1, order + 1) + 1.0))
            assert lhs == pytest.approx(rhs, abs=1e-13)


#: (mean, moments 1..3) of the examples' v and hb profiles as
#: scipy.integrate.quad projected them, before the package's own rule.
QUAD_PROJECTIONS = {
    (1, "constant"): ([0.25, -2.6372669025088205e-18, 4.336808689942018e-17,
                       -2.5439976395815164e-16], [0.0, 0.0, 0.0, 0.0]),
    (1, "linear"): ([0.25, -0.25, 7.806255641895632e-17, -4.978656376053436e-16],
                    [0.0, 0.0, 0.0, 0.0]),
    (1, "quadratic"): ([0.25, 1.4264205983800216e-17, -0.25,
                        -1.4636074324962633e-16], [0.0, 0.0, 0.0, 0.0]),
    (1, "cubic"): ([0.25, -1.222980050563649e-16, 1.214306433183765e-16,
                    -0.2500000000000001], [0.0, 0.0, 0.0, 0.0]),
    (2, "constant"): ([0.25, -2.6372669025088205e-18, 4.336808689942018e-17,
                       -2.5439976395815164e-16],
                      [1.1, -1.249661621032016e-17, 1.3877787807814457e-16,
                       -1.08677310616011e-15]),
    (2, "linear"): ([0.25, -0.25, 7.806255641895632e-17, -4.978656376053436e-16],
                    [1.1, -0.25, 2.42861286636753e-16, -1.3235940121703038e-15]),
    (2, "quadratic"): ([0.25, 1.4264205983800216e-17, -0.25,
                        -1.4636074324962633e-16],
                       [1.1, -1.4096227590979922e-17, -0.2499999999999997,
                        -9.071886897718384e-16]),
    (2, "cubic"): ([0.25, -1.222980050563649e-16, 1.214306433183765e-16,
                    -0.2500000000000001],
                   [1.1, -1.1449174941446927e-16, 3.8163916471489756e-16,
                    -0.250000000000001]),
    (3, "sinusoid"): ([-1.8180383198332777e-18, 0.238732414637843,
                       -3.647985037843155e-17, -0.2895604780498525],
                      [0.10000000000000002, -1.3186334512544102e-18,
                       3.469446951953614e-17, -9.792920866938299e-17]),
    (4, "sinusoid"): ([-1.8180383198332777e-18, 0.238732414637843,
                       -3.647985037843155e-17, -0.2895604780498525],
                      [1.1, -1.249661621032016e-17, 1.3877787807814457e-16,
                       -1.08677310616011e-15]),
}


def exact_projections(example, case):
    """Exact (mean, moments 1..3) of the example's v and hb profiles: the
    bump profiles are 1/4 (v) or the hb mean minus 1/4 phi_k, so their
    moments are rationals; the sinusoid's are closed forms in pi."""
    if case == "sinusoid":
        pi = np.pi
        v = [0.0, 3.0 / (4.0 * pi), 0.0, 7.0 * (pi ** 2 - 15.0) / (4.0 * pi ** 3)]
        return v, [0.1 if example == 3 else 1.1, 0.0, 0.0, 0.0]
    k = experiments.BUMP_CASES.index(case)
    v = [0.25, 0.0, 0.0, 0.0]
    hb = [0.0 if example == 1 else 1.1, 0.0, 0.0, 0.0]
    if k:
        v[k] = -0.25
        hb[k] = 0.0 if example == 1 else -0.25
    return v, hb


class TestGaussProjection:
    """The adaptive Gauss-Legendre projection against exact values."""

    @pytest.mark.parametrize("example, case", sorted(QUAD_PROJECTIONS))
    def test_example_profiles(self, example, case):
        spec = experiments.make_spec(example, case)
        profiles = (spec.v_profile, spec.hb_profile)
        for profile, quad, exact in zip(profiles, QUAD_PROJECTIONS[example, case],
                                        exact_projections(example, case)):
            for order in range(4):
                mean, moments = closure.project_profile(profile, order)
                got = np.array([mean, *moments])
                np.testing.assert_allclose(got, exact[:order + 1], rtol=0, atol=2e-16)
                np.testing.assert_allclose(got, quad[:order + 1], rtol=0, atol=2e-15)

    def test_jump(self):
        mean, _ = closure.project_profile(
            lambda z: np.where(z < 1.0 / np.pi, 1.0, 0.3), 2)
        assert mean == pytest.approx(0.3 + 0.7 / np.pi, abs=1e-15)

    def test_narrow_edge_feature_is_missed(self):
        # the documented limit: every node of [0, 1] and of its halves lies
        # above 1e-5, so the estimates agree and no split finds the step
        mean, moments = closure.project_profile(
            lambda z: np.where(z > 1e-5, 1.0, 0.0), 2)
        assert mean == 1.0
        np.testing.assert_allclose(moments, 0.0, rtol=0, atol=1e-15)

    def test_kink(self):
        # exact moments of |z - 0.3| from both sides of the kink, each a
        # polynomial integrated by the 200-node oracle rule
        order = 4
        z, w = oracle_gauss(200)
        exact = np.zeros(order + 1, dtype=np.longdouble)
        for a, b in ((0.0, 0.3), (0.3, 1.0)):
            x = a + (b - a) * z
            f = np.abs(x - 0.3) * (b - a) * w
            exact[0] += np.sum(f)
            for l in range(1, order + 1):
                exact[l] += (2 * l + 1) * np.sum(f * oracle_phi(l)(x))
        mean, moments = closure.project_profile(lambda z: abs(z - 0.3), order)
        np.testing.assert_allclose([mean, *moments], exact.astype(float),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("profile", [
        lambda z: np.where(np.sin(1.0 / (z + 1e-300)) > 0.0, 1.0, 0.0),
        lambda z: np.where(np.sin(1.0 / (1.0 - z + 1e-300)) > 0.0, 1.0, 0.0),
    ], ids=["towards-0", "towards-1"])
    def test_unresolved_profile_rejected(self, profile):
        # infinitely many jumps towards an end point: the split budget runs out
        with pytest.raises(ValueError, match=r"did not converge on \[.*within 5000 panel splits"):
            closure.project_profile(profile, 2)

    @pytest.mark.parametrize("z_bad", [0.0, 1.0])
    def test_rejects_non_finite_end_point(self, z_bad):
        # no Gauss node lies on an end point: they are sampled on their own
        with pytest.raises(ValueError, match="non-finite"):
            closure.project_profile(lambda z: np.inf if z == z_bad else 1.0, 2)

    @pytest.mark.parametrize("amplitude", [1.0, 1e4, 1e12])
    def test_every_order(self, amplitude):
        # up to MAX_ORDER, and for profiles too large for an absolute 1e-12
        # against their rounding
        order = closure.MAX_ORDER
        z, w = oracle_gauss(200)
        exact = np.array([np.sum(w * np.exp(z))]
                         + [(2 * l + 1) * np.sum(w * np.exp(z) * oracle_phi(l)(z))
                            for l in range(1, order + 1)])
        for m in range(order + 1):
            mean, moments = closure.project_profile(lambda z: amplitude * np.exp(z), m)
            np.testing.assert_allclose(np.array([mean, *moments]) / amplitude,
                                       exact[:m + 1].astype(float), rtol=0, atol=1e-13)
            mean, moments = closure.project_profile(lambda z: amplitude, m)
            assert mean == amplitude
            np.testing.assert_allclose(moments / amplitude, 0.0, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, closure.MAX_ORDER),
       coeffs=st.lists(st.floats(-10.0, 10.0), min_size=closure.MAX_ORDER + 1,
                       max_size=closure.MAX_ORDER + 1))
def test_projection_round_trip(order, coeffs):
    mean, moments = coeffs[0], np.array(coeffs[1:order + 1])
    got_mean, got_moments = closure.project_profile(
        lambda z: closure.eval_profile(mean, moments, z), order)
    assert got_mean == pytest.approx(mean, abs=1e-13)
    np.testing.assert_allclose(got_moments, moments, rtol=0, atol=1e-13)


def test_round_trip_at_max_order():
    rng = np.random.default_rng(12)
    mean, moments = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, closure.MAX_ORDER)
    got_mean, got_moments = closure.project_profile(
        lambda z: closure.eval_profile(mean, moments, z), closure.MAX_ORDER)
    assert got_mean == pytest.approx(mean, abs=1e-13)
    np.testing.assert_allclose(got_moments, moments, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, closure.MAX_ORDER), zeta=st.floats(0.0, 1.0))
def test_eval_matches_oracle_pointwise(order, zeta):
    assert closure.basis_rows(order, zeta)[order] == pytest.approx(
        float(oracle_phi(order)(zeta)), abs=1e-14)
