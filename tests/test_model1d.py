"""Flux, source, coupling-matrix, and wave-speed tests for the 1-D system.

Oracles: the zeroth- and first-order systems written out by hand
(flux vectors, Godunov-Powell columns, closed-form wave speeds), the
order-M flux written out component by component, a finite-difference
directional-derivative check of the Jacobian, and the dense spectrum of
the full Jacobian for the blockwise eigenvalues.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mrswm import closure, experiments, fv1d, model1d
from mrswm.errors import DryStateError, HyperbolicityError


def params_for(order, g=1.0, **kw):
    return model1d.ModelParams(g=g, order=order, **kw)


def local_speeds(U_left, U_right, params):
    """Speed bounds (s-, s+) for a single interface."""
    sm, sp, _ = model1d.interface_speeds(np.asarray(U_left, dtype=float)[None, :],
                                         np.asarray(U_right, dtype=float)[None, :],
                                         params)
    return float(sm[0]), float(sp[0])


def noncons_columns(order):
    """State components whose y-gradients appear in Q(U) U_y."""
    cols = [model1d.HB]
    for i in range(1, order + 1):
        cols.append(model1d.moment_index(i, model1d.BETA))
        cols.append(model1d.moment_index(i, model1d.ETA))
    return cols


def random_states(rng, order, n, mag=1.0, h_span=(0.5, 2.0)):
    U = np.zeros((n, model1d.n_vars(order)))
    U[:, 0] = rng.uniform(*h_span, size=n)
    U[:, 1:] = mag * rng.normal(size=(n, model1d.n_vars(order) - 1)) * U[:, :1]
    return U


def flux_m0_oracle(U, g):
    h, hu, hv, ha, hb = U
    u, v, a, b = hu / h, hv / h, ha / h, hb / h
    return np.array([
        hv,
        hu * v - ha * b,
        hv * v - hb * b + 0.5 * g * h * h,
        ha * v - hb * u,
        0.0,
    ])


def flux_m1_oracle(U, g):
    h = U[0]
    u, v, a, b, al, be, ga, et = U[1:] / h
    return np.array([
        h * v,
        h * u * v + h * al * be / 3.0 - h * a * b - h * ga * et / 3.0,
        h * v * v + h * be ** 2 / 3.0 - h * b * b - h * et ** 2 / 3.0 + 0.5 * g * h * h,
        h * a * v + h * be * ga / 3.0 - h * b * u - h * al * et / 3.0,
        0.0,
        h * u * be + h * v * al - h * a * et - h * b * ga,
        2.0 * h * v * be - 2.0 * h * b * et,
        h * a * be + h * v * ga - h * b * al - h * u * et,
        0.0,
    ])


def flux_written_out(U, order, A, g):
    """Order-M flux component by component, with the closure tensor A."""
    h = U[..., 0]
    u, v, a, b = (U[..., k] / h for k in range(1, 5))
    P = U[..., 5:].reshape(U.shape[:-1] + (order, 4)) / h[..., None, None]
    al, be, ga, et = (P[..., c] for c in range(4))
    wl = 1.0 / (2.0 * np.arange(1, order + 1) + 1.0)
    G = np.zeros_like(U)
    G[..., 0] = U[..., 2]
    G[..., 1] = h * (u * v - a * b + (al * be - ga * et) @ wl)
    G[..., 2] = h * (v * v - b * b + (be * be - et * et) @ wl) + 0.5 * g * h * h
    G[..., 3] = h * (a * v - b * u + (be * ga - al * et) @ wl)

    def coupling(x, y):                       # sum_ln A_iln x_l y_n
        return np.einsum("iln,...l,...n->...i", A, x, y)

    hh, u, v, a, b = h[..., None], u[..., None], v[..., None], a[..., None], b[..., None]
    blocks = np.zeros(U.shape[:-1] + (order, 4))
    blocks[..., 0] = hh * (u * be + v * al - a * et - b * ga
                           + coupling(al, be) - coupling(ga, et))
    blocks[..., 1] = hh * (2.0 * (v * be - b * et)
                           + coupling(be, be) - coupling(et, et))
    blocks[..., 2] = hh * (a * be + v * ga - b * al - u * et
                           + coupling(be, ga) - coupling(al, et))
    G[..., 5:] = blocks.reshape(U.shape[:-1] + (4 * order,))
    return G


def mrsw_speeds(U, g):
    h, hv, hb = U[0], U[2], U[4]
    v, b = hv / h, hb / h
    root = np.sqrt(b * b + g * h)
    return np.array([v, v - abs(b), v + abs(b), v - root, v + root])


def first_order_closed_speeds(U):
    h = U[0]
    v, b = U[2] / h, U[4] / h
    be, et = U[6] / h, U[8] / h
    s3 = 1.0 / np.sqrt(3.0)
    return np.array([
        v - be,
        v - b - s3 * abs(be - et), v - b + s3 * abs(be - et),
        v + b - s3 * abs(be + et), v + b + s3 * abs(be + et),
    ])


class TestFlux:
    def test_rest_state_m0(self):
        p = params_for(0)
        U = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(model1d.flux_g(U, p),
                                   [0.0, 0.0, 2.0, 0.0, 0.0], atol=1e-15)

    def test_generic_m0_matches_oracle(self):
        rng = np.random.default_rng(0)
        p = params_for(0, g=1.3)
        for U in random_states(rng, 0, 20):
            np.testing.assert_allclose(model1d.flux_g(U, p),
                                       flux_m0_oracle(U, 1.3), rtol=1e-13)

    def test_generic_m1_matches_oracle(self):
        rng = np.random.default_rng(1)
        p = params_for(1, g=0.7)
        for U in random_states(rng, 1, 20):
            np.testing.assert_allclose(model1d.flux_g(U, p),
                                       flux_m1_oracle(U, 0.7), rtol=1e-12, atol=1e-13)

    def test_hierarchy_zero_moments(self):
        # with every moment zero, any order reproduces the padded M=0 flux
        rng = np.random.default_rng(2)
        p3, p0 = params_for(3), params_for(0)
        for U0 in random_states(rng, 0, 10):
            U3 = np.concatenate([U0, np.zeros(12)])
            G3 = model1d.flux_g(U3, p3)
            np.testing.assert_allclose(G3[:5], model1d.flux_g(U0, p0),
                                       rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(G3[5:], 0.0, atol=1e-14)

    def test_hierarchy_even_moments(self):
        # parity: even-only moment data closes under the flux, so the
        # order-3 flux agrees with order 2 on shared components and its
        # third block stays zero (odd couplings A_{3,even,even} vanish)
        rng = np.random.default_rng(3)
        p3, p2 = params_for(3), params_for(2)
        for U2 in random_states(rng, 2, 10):
            U2[5:9] = 0.0                      # zero the first (odd) block
            U3 = np.concatenate([U2, np.zeros(4)])
            G3 = model1d.flux_g(U3, p3)
            np.testing.assert_allclose(G3[:13], model1d.flux_g(U2, p2),
                                       rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(G3[13:], 0.0, atol=1e-14)

    def test_rejects_dry_state(self):
        p = params_for(0)
        with pytest.raises(DryStateError):
            model1d.flux_g(np.array([0.0, 0.0, 0.0, 0.0, 0.0]), p)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_shared_quadratic_flux_gives_same_bits(self, order):
        # the right-hand side evaluates the quadratic flux once and hands it
        # to both the Jacobian (via the speeds) and the flux
        p = params_for(order)
        UL, UR = (random_states(np.random.default_rng(60 + k), order, 7)
                  for k in range(2))
        both = np.concatenate([UL, UR])
        quad = model1d.quadratic_flux(both, p)
        kept = quad.copy()
        assert model1d.flux_g(both, p, quad).tobytes() == model1d.flux_g(both, p).tobytes()
        assert (model1d.jacobian(both, p, quad).tobytes()
                == model1d.jacobian(both, p).tobytes())
        shared = model1d.interface_speeds(UL, UR, p, np.inf, quad=quad)
        for a, b in zip(shared, model1d.interface_speeds(UL, UR, p, np.inf)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert quad.tobytes() == kept.tobytes()


class TestFluxKernel:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5])
    def test_compiled_kernel_matches_reference(self, order):
        # the flux-tensor contraction against the flux written out
        # component by component
        rng = np.random.default_rng(100 + order)
        p = params_for(order, g=1.4)
        U = random_states(rng, order, 50)
        np.testing.assert_allclose(model1d.flux_g(U, p),
                                   flux_written_out(U, order, p.tensors.A, 1.4),
                                   rtol=1e-12, atol=1e-13)


class TestSource:
    def test_zero_forcing(self):
        U = np.array([1.0, 0.3, -0.2, 0.1, 0.4])
        np.testing.assert_allclose(model1d.source_s(U, 0.0), 0.0)

    def test_mean_rows(self):
        U = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
        np.testing.assert_allclose(model1d.source_s(U, 1.0),
                                   [0.0, 3.0, -2.0, 0.0, 0.0])

    def test_moment_rows(self):
        U = np.zeros(9)
        U[0] = 1.0
        U[5] = 7.0   # h alpha_1
        U[6] = 5.0   # h beta_1
        S = model1d.source_s(U, 1.0)
        np.testing.assert_allclose(S[5:], [5.0, -7.0, 0.0, 0.0])


class TestCouplingMatrix:
    def test_m0_structure(self):
        p = params_for(0)
        U = np.array([2.0, 1.0, -0.6, 0.8, 1.2])
        Q = model1d.noncons_q(U, p)
        u, v, a, b = U[1:] / U[0]
        expected = np.zeros((5, 5))
        expected[1, 4] = -a
        expected[2, 4] = -b
        expected[3, 4] = -u
        expected[4, 4] = -v
        np.testing.assert_allclose(Q, expected, atol=1e-14)

    def test_m1_surface_correction(self):
        p = params_for(1)
        U = np.zeros(9)
        U[0] = 1.0
        U[3] = 0.5           # ha_m -> a_m = 0.5
        U[7] = 0.2           # h gamma_1 -> gamma_1 = 0.2
        Q = model1d.noncons_q(U, p)
        # row hu_m, column hb_m: -(a_m - gamma_1) since phi_1(1) = -1
        assert Q[1, 4] == pytest.approx(-(0.5 - 0.2), abs=1e-14)

    def test_zero_moments_leave_mean_entries(self):
        p = params_for(2)
        U = np.zeros(13)
        U[:5] = [1.5, 0.3, -0.4, 0.6, 0.9]
        Q = model1d.noncons_q(U, p)
        u, v, a, b = U[1:5] / U[0]
        np.testing.assert_allclose(Q[1:5, 4], [-a, -b, -u, -v], atol=1e-14)
        # moment-row hb_m entries are Gamma-weighted sums over zero moments
        np.testing.assert_allclose(Q[5:, 4], 0.0, atol=1e-14)

    def test_first_order_moment_rows(self):
        # M=1 moment rows against the written-out first-order system
        p = params_for(1)
        rng = np.random.default_rng(5)
        U = random_states(rng, 1, 1)[0]
        h = U[0]
        u, v, a, b, al, be, ga, et = U[1:] / h
        Q = model1d.noncons_q(U, p)
        # row h alpha_1: u_m (h beta_1)_y - a_m (h eta_1)_y - 2 gamma_1 (hb_m)_y
        assert Q[5, 6] == pytest.approx(u, rel=1e-13)
        assert Q[5, 8] == pytest.approx(-a, rel=1e-13)
        assert Q[5, 4] == pytest.approx(-2.0 * ga, rel=1e-13)
        # row h beta_1
        assert Q[6, 6] == pytest.approx(v, rel=1e-13)
        assert Q[6, 8] == pytest.approx(-b, rel=1e-13)
        assert Q[6, 4] == pytest.approx(-2.0 * et, rel=1e-13)
        # row h gamma_1
        assert Q[7, 6] == pytest.approx(a, rel=1e-13)
        assert Q[7, 8] == pytest.approx(-u, rel=1e-13)
        assert Q[7, 4] == pytest.approx(-2.0 * al, rel=1e-13)
        # row h eta_1
        assert Q[8, 6] == pytest.approx(b, rel=1e-13)
        assert Q[8, 8] == pytest.approx(-v, rel=1e-13)
        assert Q[8, 4] == pytest.approx(-2.0 * be, rel=1e-13)

    def test_only_gradient_columns_nonzero(self):
        p = params_for(3)
        rng = np.random.default_rng(6)
        U = random_states(rng, 3, 1)[0]
        Q = model1d.noncons_q(U, p)
        cols = set(noncons_columns(3))
        for c in range(Q.shape[1]):
            if c not in cols:
                np.testing.assert_allclose(Q[:, c], 0.0, atol=1e-14)


class TestJacobianSpectra:
    def test_still_water_spectrum(self):
        p = params_for(0)
        U = np.array([1.0, 0.0, 0.0, 0.4, 0.0])
        lam = np.sort(model1d.eigenvalues(U, p).real)
        np.testing.assert_allclose(lam, [-1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-8)

    def test_m0_random_spectra_match_closed_form(self):
        rng = np.random.default_rng(7)
        p = params_for(0, g=1.0)
        U = random_states(rng, 0, 200)
        lam = np.sort(model1d.eigenvalues(U, p).real, axis=-1)
        expected = np.sort(np.array([mrsw_speeds(u, 1.0) for u in U]), axis=-1)
        assert np.abs(lam - expected).max() < 1e-10

    def test_m1_contains_closed_form_speeds(self):
        rng = np.random.default_rng(8)
        p = params_for(1)
        U = random_states(rng, 1, 100, mag=0.3)
        lam = model1d.eigenvalues(U, p)
        for u, spec in zip(U, lam):
            for s in first_order_closed_speeds(u):
                assert np.min(np.abs(spec - s)) < 1e-8

    @pytest.mark.parametrize("order", range(7))
    def test_directional_derivative(self, order):
        # J + Q applied to a direction approximates the flux derivative
        rng = np.random.default_rng(9)
        p = params_for(order)
        U = random_states(rng, order, 1)[0]
        d = rng.normal(size=U.size)
        d /= np.linalg.norm(d)
        J = model1d.jacobian(U, p)
        Q = model1d.noncons_q(U, p)
        eps = 1e-6
        fd = (model1d.flux_g(U + eps * d, p) - model1d.flux_g(U - eps * d, p)) / (2 * eps)
        est = (J + Q) @ d
        assert np.linalg.norm(fd - est) / np.linalg.norm(fd) < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
           h=st.floats(0.1, 3.0), amp=st.floats(0.01, 3.0))
    def test_block_spectrum_matches_dense(self, order, seed, h, amp):
        # J is block lower-triangular in the order (hb_m, gravity,
        # transverse), the transverse block splits in Elsasser variables,
        # and the union of the block spectra is the full spectrum
        rng = np.random.default_rng(seed)
        p = params_for(order)
        U = np.empty(model1d.n_vars(order))
        U[0] = h
        U[1:] = amp * h * rng.normal(size=U.size - 1)
        J = model1d.jacobian(U, p)
        grav, vel, mag = model1d.spectral_blocks(order)
        trans = np.r_[vel, mag]
        jmax = np.abs(J).max()
        off = [J[model1d.HB, np.r_[grav, trans]], J[grav[:, None], trans],
               J[vel[:, None], vel] - J[mag[:, None], mag],
               J[vel[:, None], mag] - J[mag[:, None], vel]]
        assert max(np.abs(o).max() for o in off) <= 1e-14 * jmax
        lam = model1d.eigenvalues(U, p)
        dense = np.linalg.eigvals(J)
        dist = np.abs(lam[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-10 * np.abs(dense).max()


class TestLocalSpeeds:
    def test_still_water_unit_speeds(self):
        p = params_for(0)
        U = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        sm, sp_ = local_speeds(U, U, p)
        assert sm == pytest.approx(-1.0, abs=1e-9)
        assert sp_ == pytest.approx(1.0, abs=1e-9)

    def test_magnetogravity_bound(self):
        p = params_for(0)
        U = np.array([1.0, 0.0, 0.0, 0.0, 1.1])
        sm, sp_ = local_speeds(U, U, p)
        assert sp_ == pytest.approx(np.sqrt(2.21), abs=1e-9)
        assert sm == pytest.approx(-np.sqrt(2.21), abs=1e-9)

    def test_signs_bracket_zero(self):
        rng = np.random.default_rng(10)
        p = params_for(1)
        UL = random_states(rng, 1, 50, mag=0.3)
        UR = random_states(rng, 1, 50, mag=0.3)
        sm, sp_, ratio = model1d.interface_speeds(UL, UR, p)
        assert np.all(sm <= 0.0) and np.all(sp_ >= 0.0)
        assert ratio >= 0.0

    def test_hyperbolicity_abort(self):
        p = params_for(1, tol_im=1e-12)
        rng = np.random.default_rng(11)
        # strong magnetic mean + strong eta-profile sits outside the
        # hyperbolic region, so some sampled state must trip the monitor
        with pytest.raises(HyperbolicityError):
            for _ in range(50):
                U = random_states(rng, 1, 1, mag=2.0)[0]
                local_speeds(U, U, p)

    def test_bounds_use_real_parts_below_tol_im(self):
        # a complex pair sets the smallest real part, with |Im|/|Re| of
        # 0.068 under tol_im = 0.1: s- is that real part, not Re - |Im|
        p = params_for(2)
        U = np.array([[1.0, -0.33, 1.06, 0.89, 0.32, -0.83, 0.12, -0.24, -1.97,
                       -0.84, -1.92, -1.54, -1.13]])
        lam = model1d.eigenvalues(U, p)
        sm, sp_, ratio = model1d.interface_speeds(U, U, p)
        assert 0.0 < ratio < p.tol_im
        assert lam.real.min() > (lam.real - np.abs(lam.imag)).min()
        assert sm[0] == min(lam.real.min(), 0.0)
        assert sp_[0] == max(lam.real.max(), 0.0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_hyperbolicity_error_names_interface_and_side(self, side):
        p = params_for(1, tol_im=1e-6)
        rng = np.random.default_rng(11)
        candidates = random_states(rng, 1, 50, mag=2.0)
        lam = model1d.eigenvalues(candidates, p)
        ratio = np.abs(lam.imag).max(axis=-1) / np.abs(lam.real).max(axis=-1)
        bad = candidates[np.argmax(ratio > 1e-3)]
        good = np.array([1.0, 0.0, 0.2, 0.0, 1.1, 0.0, 0.0, 0.0, 0.0])
        U_left = np.tile(good, (6, 1))
        U_right = U_left.copy()
        (U_left if side == "left" else U_right)[3] = bad
        with pytest.raises(HyperbolicityError,
                           match=f"in the {side} state of interface 3$") as info:
            model1d.interface_speeds(U_left, U_right, p)
        assert info.value.location == (3, side)
        assert info.value.ratio > 1e-3


def spy_on_shares(monkeypatch):
    """Record the number of states of each share whose spectra
    ``eigenvalues`` (``_block_spectra``) or ``interface_speeds``
    (``_speed_extremes``) take."""
    sizes = []

    def spy_on(name):
        per_share = getattr(model1d, name)

        def spy(hb, *blocks):
            sizes.append(len(hb))
            return per_share(hb, *blocks)

        monkeypatch.setattr(model1d, name, spy)

    spy_on("_block_spectra")
    spy_on("_speed_extremes")
    return sizes


def split_cut(order):
    """Fewest states whose batch ``eigenvalues`` splits at ``order``."""
    return -(-model1d.MIN_SPLIT_ENTRIES // model1d.n_vars(order) ** 2)


@pytest.fixture
def fast_thread_switches():
    """Switch threads as often as the interpreter allows, so that shares
    taken at once interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestSpectrumSplit:
    @pytest.mark.parametrize("order", range(4))
    def test_split_matches_one_share_bitwise(self, order, monkeypatch,
                                             fast_thread_switches):
        p = params_for(order)
        rng = np.random.default_rng(order)
        cut = split_cut(order)
        sizes = spy_on_shares(monkeypatch)
        for n in (1, 7, cut - 1, cut, cut + 1, 2 * cut + 1, 3 * cut + 7):
            U = random_states(rng, order, n, mag=0.5)
            monkeypatch.setattr(model1d, "spectrum_shares", 1)
            whole = model1d.eigenvalues(U, p)
            for shares in (2, 3):
                monkeypatch.setattr(model1d, "spectrum_shares", shares)
                sizes.clear()
                split = model1d.eigenvalues(U, p)
                assert split.shape == whole.shape == U.shape
                assert split.tobytes() == whole.tobytes()
                # contiguous shares covering the batch, or one below the cut
                assert sum(sizes) == n
                assert len(sizes) == (shares if n >= cut else 1)
                assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("order", [0, 3, 5])
    def test_speeds_split_match_one_share_bitwise(self, order, monkeypatch,
                                                  fast_thread_switches):
        # strong states, so that some take the eigvalsh fallback
        p = params_for(order)
        rng = np.random.default_rng(40 + order)
        cut = split_cut(order)
        sizes = spy_on_shares(monkeypatch)
        for n_if in (1, cut // 2, cut // 2 + 1, cut + 3):
            U_left, U_right = (random_states(rng, order, n_if, mag=2.0) for _ in "lr")
            monkeypatch.setattr(model1d, "spectrum_shares", 1)
            whole = model1d.interface_speeds(U_left, U_right, p, tol_im=np.inf)
            for shares in (2, 3):
                monkeypatch.setattr(model1d, "spectrum_shares", shares)
                sizes.clear()
                split = model1d.interface_speeds(U_left, U_right, p, tol_im=np.inf)
                assert [a.tobytes() for a in split[:2]] == [a.tobytes() for a in whole[:2]]
                assert split[2] == whole[2]
                assert sum(sizes) == 2 * n_if
                assert len(sizes) == (shares if 2 * n_if >= cut else 1)

    def test_split_keeps_leading_axes(self, monkeypatch):
        p = params_for(2)
        rows = split_cut(2) // 3 + 2
        U = random_states(np.random.default_rng(5), 2, 3 * rows, mag=0.5)
        monkeypatch.setattr(model1d, "spectrum_shares", 1)
        whole = model1d.eigenvalues(U, p)
        monkeypatch.setattr(model1d, "spectrum_shares", 3)
        sizes = spy_on_shares(monkeypatch)
        split = model1d.eigenvalues(U.reshape(3, rows, -1), p)
        assert len(sizes) == 3
        assert split.shape == (3, rows, U.shape[-1])
        assert split.reshape(whole.shape).tobytes() == whole.tobytes()

    def test_error_in_the_last_share(self, monkeypatch):
        # the offending state is the last right state: the last share
        p = params_for(1, tol_im=1e-6)
        candidates = random_states(np.random.default_rng(11), 1, 50, mag=2.0)
        lam = model1d.eigenvalues(candidates, p)
        ratio = np.abs(lam.imag).max(axis=-1) / np.abs(lam.real).max(axis=-1)
        bad = candidates[np.argmax(ratio > 1e-3)]
        good = np.array([1.0, 0.0, 0.2, 0.0, 1.1, 0.0, 0.0, 0.0, 0.0])
        n_if = split_cut(1) // 2 + 3
        U_left = np.tile(good, (n_if, 1))
        U_right = U_left.copy()
        U_right[-1] = bad
        errors = []
        sizes = spy_on_shares(monkeypatch)
        for shares in (1, 3):
            monkeypatch.setattr(model1d, "spectrum_shares", shares)
            sizes.clear()
            with pytest.raises(HyperbolicityError) as info:
                model1d.interface_speeds(U_left, U_right, p)
            assert len(sizes) == shares
            errors.append((str(info.value), info.value.ratio, info.value.location))
        assert errors[0] == errors[1]
        assert errors[0][2] == (n_if - 1, "right")


def profile_range(mean, moments):
    """Exact min and max on [0, 1] of mean + sum_l moments[l-1] phi_l(z):
    with x = 1 - 2z it is a Legendre series on [-1, 1], whose extrema lie
    at the end points or at real roots of its derivative.  The real parts
    of all roots are taken, so a double root split into a complex pair by
    round-off is not missed; a point of [-1, 1] that is no extremum cannot
    widen the range."""
    series = np.polynomial.Legendre(np.r_[mean, moments])
    crit = series.deriv().roots().real if len(moments) > 1 else np.array([])
    x = np.r_[-1.0, 1.0, crit[np.abs(crit) <= 1.0]]
    values = series(x)
    return values.min(), values.max()


def elsasser_slices(order):
    """Where ``eigenvalues`` puts the J_uu + J_ua and J_uu - J_ua spectra."""
    start = 1 + len(model1d.spectral_blocks(order)[0])
    m = order + 1
    return slice(start, start + m), slice(start + m, start + 2 * m)


def strong_state(rng, order, h, amp):
    U = np.empty(model1d.n_vars(order))
    U[0] = h
    U[1:] = amp * h * rng.normal(size=U.size - 1)
    return U


class TestElsasserStructure:
    """With D = diag(1 / sqrt(2l + 1)), D (J_uu +- J_ua) D^-1 is symmetric:
    the Galerkin compression of multiplication by (v -+ b)(zeta).  Its
    spectrum is real and inside the range of that profile, and the speed
    bounds need it only where a Gershgorin interval does not already place
    it inside the range of the other eigenvalues."""

    @pytest.mark.parametrize("order", range(closure.MAX_ORDER + 1))
    def test_scaled_coefficients_symmetric(self, order):
        p = params_for(order)
        jac = 2.0 * model1d.flux_tensor(p.tensors) - p.q_tensor
        _, vel, mag = model1d.spectral_blocks(order)
        root = np.sqrt(2.0 * np.arange(order + 1) + 1.0)
        scale = (root[None, :] / root[:, None])[..., None]
        m, n = order + 1, p.n_vars
        stored = p.speed_matrix[:, -2 * m * m:].T.reshape(2, m, m, n)
        for block, sign in zip(stored, (1.0, -1.0)):
            S = scale * (jac[vel[:, None], vel] + sign * jac[vel[:, None], mag])
            assert np.abs(S - S.swapaxes(0, 1)).max() <= 4e-16 * max(np.abs(S).max(), 1.0)
            # the stored coefficients are those, symmetrised exactly
            assert np.array_equal(block, block.swapaxes(0, 1))
            assert np.abs(block - S).max() <= 4e-16 * max(np.abs(S).max(), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(order=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
           h=st.floats(0.1, 3.0), amp=st.floats(0.01, 3.0))
    def test_spectrum_within_profile_range(self, order, seed, h, amp):
        p = params_for(order)
        U = strong_state(np.random.default_rng(seed), order, h, amp)
        lam = model1d.eigenvalues(U, p)
        moments = np.arange(5, p.n_vars).reshape(order, 4)
        v = np.r_[U[model1d.HV], U[moments[:, model1d.BETA]]] / h
        b = np.r_[U[model1d.HB], U[moments[:, model1d.ETA]]] / h
        for part, profile in zip(elsasser_slices(order), (v - b, v + b)):
            lo, hi = profile_range(profile[0], profile[1:])
            tol = 1e-12 * max(abs(lo), abs(hi), 1.0)
            assert np.all(lam[part].imag == 0.0)
            assert lo - tol <= lam[part].real.min() and lam[part].real.max() <= hi + tol

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
           amp=st.floats(0.01, 3.0), n_if=st.integers(1, 40))
    def test_speeds_bitwise_from_full_spectrum(self, order, seed, amp, n_if):
        p = params_for(order)
        U = random_states(np.random.default_rng(seed), order, 2 * n_if, mag=amp)
        sm, sp_, worst = model1d.interface_speeds(U[:n_if], U[n_if:], p, tol_im=np.inf)
        lam = model1d.eigenvalues(U, p)
        ratios = (np.abs(lam.imag).max(axis=-1)
                  / np.maximum(np.abs(lam.real).max(axis=-1), 1e-14))
        both = np.concatenate([lam[:n_if].real, lam[n_if:].real], axis=-1)
        assert sp_.tobytes() == np.maximum(both.max(axis=-1), 0.0).tobytes()
        assert sm.tobytes() == np.minimum(both.min(axis=-1), 0.0).tobytes()
        assert worst == ratios.max()

    @pytest.mark.parametrize("order", range(1, 6))
    def test_fallback_states_bitwise(self, order, monkeypatch):
        # strong states where some Elsasser spectra leave the gravity range;
        # each state's bounds equal its own one-state spectrum's
        p = params_for(order)
        rng = np.random.default_rng(order)
        strong = np.arange(60)[:, None] % 3 == 0
        U = np.where(strong, random_states(rng, order, 60, mag=2.0),
                     random_states(rng, order, 60, mag=0.2))
        fallback = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            fallback.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        sm, sp_, _ = model1d.interface_speeds(U[:30], U[30:], p, tol_im=np.inf)
        assert 0 < sum(fallback) < 2 * len(U)     # states, once per block
        monkeypatch.undo()
        lam = np.stack([model1d.eigenvalues(u, p) for u in U]).real
        assert sp_.tobytes() == np.maximum(np.maximum(lam[:30].max(axis=-1),
                                                      lam[30:].max(axis=-1)), 0.0).tobytes()
        assert sm.tobytes() == np.minimum(np.minimum(lam[:30].min(axis=-1),
                                                     lam[30:].min(axis=-1)), 0.0).tobytes()

    def test_rhs_builds_no_full_jacobian(self, monkeypatch):
        spec = experiments.make_spec(2, "linear")
        spec.n_cells = 16
        p = experiments.model_params(spec, 3)
        sol = experiments.initial_moment_solution(spec, 3)
        expected = fv1d.rhs(sol, p, spec.theta)

        def forbidden(*args, **kwargs):
            raise AssertionError("the right-hand side took a full Jacobian")

        monkeypatch.setattr(model1d, "jacobian", forbidden)
        monkeypatch.setattr(model1d, "eigenvalues", forbidden)
        got = fv1d.rhs(sol, p, spec.theta)
        assert got.dudt.tobytes() == expected.dudt.tobytes()


def elsasser_flip(order):
    """Signs that flip ha_m, hb_m, h gamma_i and h eta_i and keep the rest."""
    P = np.ones(model1d.n_vars(order))
    P[[model1d.HA, model1d.HB]] = -1.0
    for i in range(1, order + 1):
        P[[model1d.moment_index(i, model1d.GAMMA),
           model1d.moment_index(i, model1d.ETA)]] = -1.0
    return P


class TestElsasserSymmetry:
    """Reversing the magnetic field maps solutions to solutions: with P the
    sign flip of every magnetic component, G(PU) = P G(U),
    Q(PU) = P Q(U) P, and J(PU) = P J(U) P has the spectrum of J(U)."""

    @settings(max_examples=80, deadline=None)
    @given(order=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           h_left=st.floats(0.1, 3.0), h_right=st.floats(0.1, 3.0),
           amp=st.floats(0.01, 2.0))
    def test_magnetic_sign_flip(self, order, seed, h_left, h_right, amp):
        rng = np.random.default_rng(seed)
        p = params_for(order)
        P = elsasser_flip(order)
        U = np.empty((2, model1d.n_vars(order)))
        U[:, 0] = h_left, h_right
        U[:, 1:] = amp * U[:, :1] * rng.normal(size=(2, U.shape[1] - 1))
        G, G_flip = (model1d.flux_g(V, p) for V in (U, P * U))
        np.testing.assert_allclose(G_flip, P * G, rtol=0,
                                   atol=1e-13 * np.abs(G).max())
        Q, Q_flip = (model1d.noncons_q(V, p) for V in (U, P * U))
        np.testing.assert_allclose(Q_flip, P[:, None] * Q * P, rtol=0,
                                   atol=1e-13 * max(np.abs(Q).max(), 1.0))
        (sm, sp_, ratio), (sm_f, sp_f, ratio_f) = (
            model1d.interface_speeds(V[:1], V[1:], p, tol_im=np.inf)
            for V in (U, P * U))
        scale = max(np.abs(sm).max(), np.abs(sp_).max())
        np.testing.assert_allclose(sm_f, sm, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(sp_f, sp_, rtol=0, atol=1e-13 * scale)
        assert ratio_f == pytest.approx(ratio, rel=1e-13, abs=1e-13)


def reflection_flip(order):
    """Signs that flip hv_m, hb_m, h beta_i and h eta_i and keep the rest."""
    P = np.ones(model1d.n_vars(order))
    P[[model1d.HV, model1d.HB]] = -1.0
    for i in range(1, order + 1):
        P[[model1d.moment_index(i, model1d.BETA),
           model1d.moment_index(i, model1d.ETA)]] = -1.0
    return P


class TestReflectionSymmetry:
    """The reflection y -> -y maps solutions to solutions: with P the sign
    flip of every y-directed component, G(PU) = -P G(U),
    Q(PU) = -P Q(U) P, the mirrored interface (PU_r, PU_l) has the speed
    bounds (-s+, -s-), and S(PU, -f) = P S(U, f)."""

    @settings(max_examples=80, deadline=None)
    @given(order=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           h_left=st.floats(0.1, 3.0), h_right=st.floats(0.1, 3.0),
           amp=st.floats(0.01, 2.0), f=st.floats(-5.0, 5.0))
    def test_reflection(self, order, seed, h_left, h_right, amp, f):
        rng = np.random.default_rng(seed)
        p = params_for(order)
        P = reflection_flip(order)
        U = np.empty((2, model1d.n_vars(order)))
        U[:, 0] = h_left, h_right
        U[:, 1:] = amp * U[:, :1] * rng.normal(size=(2, U.shape[1] - 1))
        G, G_flip = (model1d.flux_g(V, p) for V in (U, P * U))
        np.testing.assert_allclose(G_flip, -P * G, rtol=0,
                                   atol=1e-13 * np.abs(G).max())
        Q, Q_flip = (model1d.noncons_q(V, p) for V in (U, P * U))
        np.testing.assert_allclose(Q_flip, -P[:, None] * Q * P, rtol=0,
                                   atol=1e-13 * max(np.abs(Q).max(), 1.0))
        sm, sp_, ratio = model1d.interface_speeds(U[:1], U[1:], p, tol_im=np.inf)
        sm_f, sp_f, ratio_f = model1d.interface_speeds((P * U)[1:], (P * U)[:1], p,
                                                       tol_im=np.inf)
        scale = max(np.abs(sm).max(), np.abs(sp_).max())
        np.testing.assert_allclose(sm_f, -sp_, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(sp_f, -sm, rtol=0, atol=1e-13 * scale)
        assert ratio_f == pytest.approx(ratio, rel=1e-13, abs=1e-13)
        S, S_flip = model1d.source_s(U, f), model1d.source_s(P * U, -f)
        np.testing.assert_allclose(S_flip, P * S, rtol=0,
                                   atol=1e-13 * max(np.abs(S).max(), 1.0))


class TestOrderNesting:
    """An order-M state padded with zero moment blocks keeps the order-M
    flux and Q in its leading rows and block.  The speeds are not compared:
    nonzero lower moments excite the padded ones through A and B, so the
    padded spectrum differs."""

    @settings(max_examples=80, deadline=None)
    @given(order=st.integers(0, 2), pad=st.integers(1, 2),
           seed=st.integers(0, 2**32 - 1), h=st.floats(0.1, 3.0),
           amp=st.floats(0.01, 2.0))
    def test_zero_padding(self, order, pad, seed, h, amp):
        rng = np.random.default_rng(seed)
        small, big = params_for(order), params_for(order + pad)
        n = model1d.n_vars(order)
        U = np.empty(n)
        U[0] = h
        U[1:] = amp * h * rng.normal(size=n - 1)
        U_pad = np.concatenate([U, np.zeros(4 * pad)])
        G = model1d.flux_g(U, small)
        np.testing.assert_allclose(model1d.flux_g(U_pad, big)[:n], G, rtol=0,
                                   atol=1e-13 * np.abs(G).max())
        Q = model1d.noncons_q(U, small)
        np.testing.assert_allclose(model1d.noncons_q(U_pad, big)[:n, :n], Q, rtol=0,
                                   atol=1e-13 * max(np.abs(Q).max(), 1.0))


class TestReductionStructure:
    def test_zero_magnetic_data_cannot_source_magnetic_rows(self):
        # with a_m = b_m = gamma = eta = 0 the magnetic flux rows vanish,
        # and Q U_y has zero magnetic rows for any gradient consistent with
        # that data (magnetic gradients zero, hb_m spatially constant)
        rng = np.random.default_rng(12)
        p = params_for(2)
        mag_comps = [3, 4, 7, 8, 11, 12]
        for U in random_states(rng, 2, 10):
            U[mag_comps] = 0.0
            G = model1d.flux_g(U, p)
            np.testing.assert_allclose(G[mag_comps], 0.0, atol=1e-15)
            Q = model1d.noncons_q(U, p)
            dU = rng.normal(size=U.size)
            dU[mag_comps] = 0.0
            np.testing.assert_allclose((Q @ dU)[mag_comps], 0.0, atol=1e-14)
