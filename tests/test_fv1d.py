"""Finite-volume machinery tests: limiter, CU flux, exact path integrals
against dense quadrature, SSP-RK3 order, and conservation on short runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrswm import closure, fv1d, model1d
from mrswm.fv1d import Grid1D, Solution1D
from mrswm.model1d import ModelParams


def make_params(order, g=1.0, **kw):
    return ModelParams(g=g, order=order, **kw)


def uniform_solution(grid, state):
    return Solution1D(grid, np.tile(np.asarray(state, dtype=float), (grid.n_cells, 1)))


class TestMinmod:
    def test_branches(self):
        assert fv1d.minmod3(1.0, 2.0, 3.0) == 1.0
        assert fv1d.minmod3(-1.0, 2.0, -3.0) == 0.0
        assert fv1d.minmod3(-1.0, -2.0, -3.0) == -1.0

    def test_zero_argument_kills_slope(self):
        assert fv1d.minmod3(0.0, 1.0, 2.0) == 0.0

    def test_vectorized(self):
        z = fv1d.minmod3(np.array([1.0, -1.0]), np.array([2.0, -0.5]),
                         np.array([0.5, -2.0]))
        np.testing.assert_allclose(z, [0.5, -0.5])

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_bound_and_sign(self, a, b, c):
        m = fv1d.minmod3(a, b, c)
        assert abs(m) <= min(abs(a), abs(b), abs(c)) + 1e-15
        if m != 0.0:
            assert np.sign(m) == np.sign(a) == np.sign(b) == np.sign(c)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0]) | st.floats(-10, 10)] * 3),
                    min_size=1, max_size=12))
    def test_matches_definition(self, triples):
        # zeros of either sign, mixed signs and agreeing signs, elementwise;
        # a slope that is not limited to one sign is +0.0
        z1, z2, z3 = (np.array(col) for col in zip(*triples))
        want = [min(t) if all(x > 0 for x in t) else
                max(t) if all(x < 0 for x in t) else 0.0 for t in triples]
        assert fv1d.minmod3(z1, z2, z3).tobytes() == np.array(want).tobytes()


class TestReconstruct:
    def test_constant_field(self):
        grid = Grid1D(0.0, 1.0, 8)
        sol = uniform_solution(grid, [1.0, 0.2, -0.1, 0.0, 0.4])
        rec = fv1d.reconstruct(sol, theta=1.3)
        np.testing.assert_allclose(rec.slope, 0.0, atol=1e-15)
        np.testing.assert_allclose(rec.north, rec.u_bar)
        np.testing.assert_allclose(rec.south, rec.u_bar)

    def test_linear_field_exact_slope(self):
        grid = Grid1D(0.0, 1.0, 16, boundary="outflow")
        c = 0.7
        cells = np.ones((16, 5))
        cells[:, 1] = c * grid.centers()
        rec = fv1d.reconstruct(Solution1D(grid, cells), theta=1.3)
        np.testing.assert_allclose(rec.slope[2:-2, 1], c, rtol=1e-12)

    def test_extremum_flattened(self):
        grid = Grid1D(0.0, 1.0, 8)
        cells = np.ones((8, 5))
        cells[:, 2] = 0.0
        cells[4, 2] = 1.0
        rec = fv1d.reconstruct(Solution1D(grid, cells), theta=1.3)
        assert rec.slope[5, 2] == 0.0  # row 5 = cell 4 (one ghost offset)

    def test_depth_floor_clips_slope(self):
        grid = Grid1D(0.0, 1.0, 8, boundary="outflow")
        cells = np.ones((8, 5)) * 0.5
        cells[:, 0] = np.linspace(1.0, 1e-9, 8)
        rec = fv1d.reconstruct(Solution1D(grid, cells), theta=1.3)
        assert np.all(rec.south[:, 0] > 0.0)
        assert np.all(rec.north[:, 0] > 0.0)

    def test_theta_validated(self):
        grid = Grid1D(0.0, 1.0, 8)
        sol = uniform_solution(grid, [1.0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            fv1d.reconstruct(sol, theta=0.5)


class TestCuFlux:
    def test_equal_states_recover_flux(self):
        p = make_params(0)
        U = np.array([[1.2, 0.3, -0.4, 0.2, 0.6]])
        F = fv1d.cu_flux(U, U, np.array([-1.0]), np.array([2.0]), p)
        np.testing.assert_allclose(F, model1d.flux_g(U, p), rtol=1e-14)

    def test_one_sided_limits(self):
        p = make_params(0)
        U_l = np.array([[1.0, 0.1, 0.2, 0.0, 0.0]])
        U_r = np.array([[2.0, -0.3, 0.4, 0.1, 0.2]])
        F = fv1d.cu_flux(U_l, U_r, np.array([0.0]), np.array([1.5]), p)
        np.testing.assert_allclose(F, model1d.flux_g(U_l, p), rtol=1e-14)
        F = fv1d.cu_flux(U_l, U_r, np.array([-1.5]), np.array([0.0]), p)
        np.testing.assert_allclose(F, model1d.flux_g(U_r, p), rtol=1e-14)

    def test_degenerate_speeds_zero_flux(self):
        p = make_params(0)
        U = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        F = fv1d.cu_flux(U, U, np.array([0.0]), np.array([0.0]), p)
        np.testing.assert_allclose(F, 0.0)


def quadrature_cell_oracle(u_bar, slope, dy, params, n_nodes=64):
    """Dense Gauss quadrature of Q(U~(y)) U~_y over one cell."""
    s, w = closure.gauss_rule(n_nodes)
    out = np.zeros_like(u_bar)
    for sk, wk in zip(s, w):
        U = u_bar + (sk - 0.5) * dy * slope
        out += wk * dy * (model1d.noncons_q(U, params.tensors) @ slope)
    return out


def quadrature_interface_oracle(U_l, U_r, params, n_nodes=64):
    """Dense Gauss quadrature of Q(path(s)) [U] along the linear path."""
    s, w = closure.gauss_rule(n_nodes)
    jump = U_r - U_l
    out = np.zeros_like(U_l)
    for sk, wk in zip(s, w):
        out += wk * (model1d.noncons_q(U_l + sk * jump, params.tensors) @ jump)
    return out


class TestPathIntegrals:
    def test_constant_psi_no_contribution(self):
        p = make_params(0)
        u_bar = np.array([[2.0, 0.3, 0.1, 0.8, 0.5]])
        slope = np.zeros((1, 5))
        slope[0, 0] = 0.4      # sloped h, flat hb
        Q = fv1d.path_integral_cell(u_bar, slope, 0.1, p)
        np.testing.assert_allclose(Q, 0.0, atol=1e-15)

    def test_flat_h_branch_value(self):
        # flat depth: contribution is (chi_bar/h_bar) * psi_slope * dy
        p = make_params(0)
        u_bar = np.array([[2.0, 0.0, 0.0, 1.2, 0.5]])
        slope = np.zeros((1, 5))
        slope[0, 4] = 3.0
        dy = 0.25
        Q = fv1d.path_integral_cell(u_bar, slope, dy, p)
        a_m = 1.2 / 2.0
        assert Q[0, 1] == pytest.approx(-a_m * 3.0 * dy, rel=1e-13)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_cell_matches_quadrature(self, order):
        rng = np.random.default_rng(20 + order)
        p = make_params(order)
        n = model1d.n_vars(order)
        dy = 0.05
        for _ in range(10):
            u_bar = np.zeros((1, n))
            u_bar[0, 0] = rng.uniform(0.5, 2.0)
            u_bar[0, 1:] = rng.normal(size=n - 1)
            slope = rng.normal(size=(1, n)) * 2.0
            slope[0, 0] = rng.uniform(1.0, 6.0)       # genuinely sloped h
            Q = fv1d.path_integral_cell(u_bar, slope, dy, p)
            ref = quadrature_cell_oracle(u_bar[0], slope[0], dy, p)
            np.testing.assert_allclose(Q[0], ref, rtol=1e-12, atol=1e-13)

    def test_interface_zero_jump(self):
        p = make_params(1)
        U = np.array([[1.0, 0.2, -0.1, 0.3, 0.4, 0.1, -0.2, 0.05, 0.3]])
        Q = fv1d.path_integral_interface(U, U, p)
        np.testing.assert_allclose(Q, 0.0, atol=1e-15)

    def test_interface_flat_h_branch(self):
        # equal depth, equal chi: (chi/h) * [psi]
        p = make_params(0)
        U_l = np.array([[2.0, 0.0, 0.0, 1.0, 0.2]])
        U_r = np.array([[2.0, 0.0, 0.0, 1.0, 0.8]])
        Q = fv1d.path_integral_interface(U_l, U_r, p)
        assert Q[0, 1] == pytest.approx(-(1.0 / 2.0) * 0.6, rel=1e-13)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_interface_matches_quadrature(self, order):
        rng = np.random.default_rng(40 + order)
        p = make_params(order)
        n = model1d.n_vars(order)
        for _ in range(10):
            U_l = np.zeros((1, n))
            U_r = np.zeros((1, n))
            U_l[0, 0] = rng.uniform(0.5, 1.0)
            U_r[0, 0] = rng.uniform(1.5, 2.5)
            U_l[0, 1:] = rng.normal(size=n - 1)
            U_r[0, 1:] = rng.normal(size=n - 1)
            Q = fv1d.path_integral_interface(U_l, U_r, p)
            ref = quadrature_interface_oracle(U_l[0], U_r[0], p)
            np.testing.assert_allclose(Q[0], ref, rtol=1e-12, atol=1e-13)


#: Gauss-Legendre rule on [0, 1] in extended precision for the weight oracles.
_S, _W = closure.gauss_rule(40, extended=True)

#: Relative depth changes across a cell or jump: none, below, around and
#: above the flat-branch switch FLAT_H_TOL = 1e-9, up to a factor 1.5.
rel_depth_change = (st.just(0.0)
                    | st.floats(-14.0, -0.3).map(lambda e: 10.0 ** e)
                    | st.floats(0.5e-9, 2e-9))


def weight_tolerance(rel, scale):
    """Error bound of the exact weights at relative depth change ``rel``.

    The flat branch drops terms of order rel; the logarithmic branch loses
    a few eps/rel to cancellation.  Both meet near rel = FLAT_H_TOL, where
    the bound is loosest (about 2e-6 relative).
    """
    bound = 1e-13 + rel + (10.0 * np.finfo(float).eps / rel if rel > 0 else 0.0)
    return bound * scale


class TestPathWeights:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 2.0), rel_depth_change, st.sampled_from([-1.0, 1.0]),
           st.floats(0.01, 0.5),
           st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10))
    def test_cell_weights_match_quadrature(self, h_bar, rel, sign, dx, chi):
        h_slope = sign * rel * h_bar / dx
        chi_bar, chi_slope = np.array(chi[:5]), np.array(chi[5:]) / dx
        W = fv1d._cell_weights(np.array([h_bar]), np.array([h_slope]),
                               chi_bar[None], chi_slope[None], dx)[0]
        y = (_S - 0.5) * dx
        chi_y = chi_bar + np.multiply.outer(y, chi_slope)
        ref = (_W[:, None] * chi_y / (h_bar + y * h_slope)[:, None]).sum(axis=0) * dx
        scale = (np.abs(chi_bar) + np.abs(chi_slope) * dx + 1.0) * dx / h_bar
        assert np.all(np.abs(W - ref) <= weight_tolerance(rel, scale))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 2.0), rel_depth_change, st.sampled_from([-1.0, 1.0]),
           st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10))
    def test_interface_weights_match_quadrature(self, h_l, rel, sign, chi):
        h_r = h_l * (1.0 + sign * rel)
        chi_l, chi_r = np.array(chi[:5]), np.array(chi[5:])
        W = fv1d._interface_weights(np.array([h_l]), np.array([h_r]),
                                    chi_l[None], chi_r[None])[0]
        chi_s = chi_l + np.multiply.outer(_S, chi_r - chi_l)
        ref = (_W[:, None] * chi_s / (h_l + _S * (h_r - h_l))[:, None]).sum(axis=0)
        scale = (np.abs(chi_l) + np.abs(chi_r) + 1.0) / min(h_l, h_r)
        assert np.all(np.abs(W - ref) <= weight_tolerance(rel, scale))

    def test_batched_rows_match_single_rows(self):
        # masked evaluation: a batch mixing flat and sloped cells gives each
        # row what that row gives alone
        rng = np.random.default_rng(5)
        h = rng.uniform(0.5, 2.0, 12)
        dh = h * np.array([0.0, 1e-12, 0.3, -0.2, 5e-10, 2e-9] * 2)
        chi = rng.normal(size=(12, 5))
        chi2 = rng.normal(size=(12, 5))
        for fn, args in ((fv1d._cell_weights, (h, dh / 0.1, chi, chi2, 0.1)),
                         (fv1d._interface_weights, (h, h + dh, chi, chi2))):
            batch = fn(*args)
            for i in range(12):
                row = fn(*(a[i:i + 1] if isinstance(a, np.ndarray) else a
                           for a in args))
                assert batch[i].tobytes() == row[0].tobytes()


class TestRhs:
    def test_uniform_steady_state(self):
        p = make_params(1)
        grid = Grid1D(-1.0, 1.0, 16)
        sol = uniform_solution(grid, [1.0, 0.2, -0.3, 0.1, 0.4, 0.05, 0.02, -0.01, 0.03])
        r = fv1d.rhs(sol, p, theta=1.3)
        np.testing.assert_allclose(r.dudt, 0.0, atol=1e-13)

    def test_zero_magnetic_rows(self):
        p = make_params(1)
        grid = Grid1D(-1.0, 1.0, 32)
        y = grid.centers()
        cells = np.zeros((32, 9))
        cells[:, 0] = 1.0 + 0.2 * np.exp(-5 * y ** 2)
        cells[:, 2] = 0.25 * cells[:, 0]
        cells[:, 6] = -0.25 * cells[:, 0]
        r = fv1d.rhs(Solution1D(grid, cells), p, theta=1.3)
        np.testing.assert_allclose(r.dudt[:, [3, 4, 7, 8]], 0.0, atol=1e-13)

    def test_riemann_step_matches_first_order_pccu(self):
        # independent first-order PCCU: closed-form speeds, hand-written
        # M=0 interface path integrals; slopes vanish on step data so the
        # second-order scheme collapses onto it
        g = 1.0
        p = make_params(0, g=g)
        grid = Grid1D(-1.0, 1.0, 32, boundary="outflow")
        cells = np.tile([1.0, 0.0, 0.0, 0.3, 0.5], (32, 1))
        cells[16:, 0] = 0.6
        cells[16:, 4] = 0.25
        sol = Solution1D(grid, cells)

        def speeds_m0(U):
            h, v, b = U[:, 0], U[:, 2] / U[:, 0], U[:, 4] / U[:, 0]
            root = np.sqrt(b * b + g * h)
            lams = np.stack([v, v - np.abs(b), v + np.abs(b), v - root, v + root])
            return lams.min(axis=0), lams.max(axis=0)

        ext = np.concatenate([cells[:1], cells, cells[-1:]])
        U_l, U_r = ext[:-1], ext[1:]
        lo_l, hi_l = speeds_m0(U_l)
        lo_r, hi_r = speeds_m0(U_r)
        sm = np.minimum(np.minimum(lo_l, lo_r), 0.0)
        sp_ = np.maximum(np.maximum(hi_l, hi_r), 0.0)
        G_l = np.stack([flux_m0(u, g) for u in U_l])
        G_r = np.stack([flux_m0(u, g) for u in U_r])
        width = np.where(sp_ - sm > 0, sp_ - sm, 1.0)
        F = ((sp_[:, None] * G_l - sm[:, None] * G_r) / width[:, None]
             + (sp_ * sm / width)[:, None] * (U_r - U_l))
        Qif = np.stack([iface_q_m0(ul, ur) for ul, ur in zip(U_l, U_r)])
        cl = np.where(sp_ - sm > 0, sp_ / width, 0.0)[:, None]
        cr = np.where(sp_ - sm > 0, sm / width, 0.0)[:, None]
        expected = -(F[1:] - F[:-1] - cl[:-1] * Qif[:-1] + cr[1:] * Qif[1:]) / grid.dy

        r = fv1d.rhs(sol, p, theta=1.3)
        np.testing.assert_allclose(r.dudt, expected, rtol=1e-9, atol=1e-10)


def flux_m0(U, g):
    h, hu, hv, ha, hb = U
    u, v, a, b = hu / h, hv / h, ha / h, hb / h
    return np.array([hv, hu * v - ha * b, hv * v - hb * b + 0.5 * g * h * h,
                     ha * v - hb * u, 0.0])


def iface_q_m0(U_l, U_r):
    """Hand-written linear-path integral of the M=0 coupling terms."""
    h_l, h_r = U_l[0], U_r[0]
    dpsi = U_r[4] - U_l[4]
    out = np.zeros(5)
    rows = {1: 3, 2: 4, 3: 1, 4: 2}     # row -> chi component
    for row, k in rows.items():
        if abs(h_r - h_l) < 1e-12 * h_l:
            w = 0.5 * (U_l[k] + U_r[k]) / h_l
        else:
            dh = h_r - h_l
            dchi = U_r[k] - U_l[k]
            w = ((U_l[k] * dh - h_l * dchi) / dh * np.log(h_r / h_l) + dchi) / dh
        out[row] = -w * dpsi
    return out


class TestCfl:
    def test_magnetogravity_bound_value(self):
        p = make_params(0)
        grid = Grid1D(0.0, 0.16, 16)
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 1.1])
        dt = fv1d.cfl_dt(sol, p, nu=0.45)
        assert dt == pytest.approx(0.45 * grid.dy / np.sqrt(2.21), rel=1e-8)

    def test_dy_linearity(self):
        p = make_params(0)
        s1 = uniform_solution(Grid1D(0.0, 1.0, 50), [1.0, 0.0, 0.0, 0.0, 1.1])
        s2 = uniform_solution(Grid1D(0.0, 1.0, 100), [1.0, 0.0, 0.0, 0.0, 1.1])
        assert fv1d.cfl_dt(s1, p, 0.45) == pytest.approx(
            2.0 * fv1d.cfl_dt(s2, p, 0.45), rel=1e-12)

    def test_nu_validated(self):
        p = make_params(0)
        sol = uniform_solution(Grid1D(0.0, 1.0, 8), [1.0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            fv1d.cfl_dt(sol, p, nu=0.6)

    def test_all_zero_speeds_capped(self):
        # no physically valid state has zero speeds; exercise the cap via dt_max
        p = make_params(0)
        sol = uniform_solution(Grid1D(0.0, 1.0, 8), [1.0, 0, 0, 0, 0])
        dt = fv1d.cfl_dt(sol, p, nu=0.45, dt_max=1e-4)
        assert dt == 1e-4


class TestTimeStepping:
    def test_zero_rhs_identity(self):
        y = np.array([1.0, -2.0, 3.0])
        out = fv1d.ssprk3(y, lambda v: np.zeros_like(v), 0.1)
        np.testing.assert_allclose(out, y, rtol=1e-15)

    def test_third_order_on_decay(self):
        # u' = -u to t = 1: halving dt should cut the error ~8x
        errs = []
        for n in (16, 32, 64):
            dt = 1.0 / n
            u = np.array([1.0])
            for _ in range(n):
                u = fv1d.ssprk3(u, lambda v: -v, dt)
            errs.append(abs(u[0] - np.exp(-1.0)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 2.9)

    def test_single_step_mass_conservation(self):
        p = make_params(1)
        grid = Grid1D(-1.0, 1.0, 64)
        y = grid.centers()
        cells = np.zeros((64, 9))
        cells[:, 0] = 1.0 + np.exp(3.0 * np.cos(np.pi * (y + 0.5)) - 4.0)
        cells[:, 2] = 0.25 * cells[:, 0]
        cells[:, 4] = 1.1
        cells[:, 8] = -0.25
        sol = Solution1D(grid, cells)
        dt = fv1d.cfl_dt(sol, p, 0.45)
        new, _ = fv1d.step_ssprk3(sol, p, dt, theta=1.3)
        m0 = cells[:, 0].sum() * grid.dy
        m1 = new.cells[:, 0].sum() * grid.dy
        assert abs(m1 - m0) <= 1e-13 * abs(m0)

    def test_short_run_conserves_mass_and_hb(self):
        p = make_params(1)
        grid = Grid1D(-1.0, 1.0, 50)
        y = grid.centers()
        cells = np.zeros((50, 9))
        cells[:, 0] = 1.0 + np.exp(3.0 * np.cos(np.pi * (y + 0.5)) - 4.0)
        cells[:, 2] = 0.25 * cells[:, 0]
        cells[:, 4] = 1.1
        cells[:, 8] = -0.25
        sol = Solution1D(grid, cells)
        final, stats = fv1d.run(sol, p, t_final=0.2, nu=0.45, theta=1.3)
        m0 = cells[:, 0].sum() * grid.dy
        m1 = final.cells[:, 0].sum() * grid.dy
        assert abs(m1 - m0) <= 1e-11 * abs(m0)
        assert np.abs(final.cells[:, 4] - 1.1).max() <= 1.1e-12
        assert stats.n_steps > 0
