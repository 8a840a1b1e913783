"""Finite-volume machinery tests: limiter, CU flux, exact path integrals
against dense quadrature, SSP-RK3 order, and conservation on short runs."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrswm import closure, experiments, fv1d, model1d
from mrswm.errors import DryStateError, HyperbolicityError
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


def cu_flux(U_l, U_r, s_minus, s_plus, params):
    return fv1d.cu_flux_from_values(model1d.flux_g(U_l, params),
                                    model1d.flux_g(U_r, params), U_l, U_r,
                                    s_minus, s_plus)


class TestCuFlux:
    def test_equal_states_recover_flux(self):
        p = make_params(0)
        U = np.array([[1.2, 0.3, -0.4, 0.2, 0.6]])
        F = cu_flux(U, U, np.array([-1.0]), np.array([2.0]), p)
        np.testing.assert_allclose(F, model1d.flux_g(U, p), rtol=1e-14)

    def test_one_sided_limits(self):
        p = make_params(0)
        U_l = np.array([[1.0, 0.1, 0.2, 0.0, 0.0]])
        U_r = np.array([[2.0, -0.3, 0.4, 0.1, 0.2]])
        F = cu_flux(U_l, U_r, np.array([0.0]), np.array([1.5]), p)
        np.testing.assert_allclose(F, model1d.flux_g(U_l, p), rtol=1e-14)
        F = cu_flux(U_l, U_r, np.array([-1.5]), np.array([0.0]), p)
        np.testing.assert_allclose(F, model1d.flux_g(U_r, p), rtol=1e-14)

    def test_degenerate_speeds_zero_flux(self):
        p = make_params(0)
        U = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        F = cu_flux(U, U, np.array([0.0]), np.array([0.0]), p)
        np.testing.assert_allclose(F, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5.0, 0.0), st.floats(0.0, 5.0),
                              st.booleans()), min_size=1, max_size=8),
           st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_matches_formula(self, speeds, n_comp, seed):
        # against (sp G_l - sm G_r + sp sm (U_r - U_l)) / (sp - sm), and
        # exactly 0 where both speeds vanish; out= gives the same bits
        rng = np.random.default_rng(seed)
        sm = np.array([0.0 if zero else lo for lo, _, zero in speeds])
        sp = np.array([0.0 if zero else hi for _, hi, zero in speeds])
        G_l, G_r, U_l, U_r = rng.normal(size=(4, len(speeds), n_comp))
        F = fv1d.cu_flux_from_values(G_l, G_r.copy(), U_l, U_r, sm, sp)
        out = np.full_like(F, np.nan)
        fv1d.cu_flux_from_values(G_l, G_r.copy(), U_l, U_r, sm, sp, out=out)
        assert out.tobytes() == F.tobytes()
        width = (sp - sm)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            want = (sp[:, None] * G_l - sm[:, None] * G_r
                    + (sp * sm)[:, None] * (U_r - U_l)) / width
        moving = (sp > sm)
        np.testing.assert_allclose(F[moving], want[moving], rtol=1e-12, atol=1e-12)
        assert F[~moving].tobytes() == np.zeros_like(F[~moving]).tobytes()   # +0.0


def cu_rates_oracle(F, Q_cell, Q_iface, sm, sp, dx):
    """The central-upwind cell rates written out cell by cell:
    -(F_{j+1/2} - F_{j-1/2} - Q_j - c+_{j-1/2} Q_{j-1/2} + c-_{j+1/2} Q_{j+1/2}) / dx
    with c+- = s+- / (s+ - s-), and 0 at an interface where s+ = s-."""
    def c(s, k):
        width = sp[k] - sm[k]
        return s[k] / width if width > 0.0 else 0.0

    out = np.empty_like(Q_cell)
    for j in np.ndindex(Q_cell.shape[:-1]):
        left, right = j, (j[0] + 1,) + j[1:]
        out[j] = -(F[right] - F[left] - Q_cell[j] - c(sp, left) * Q_iface[left]
                   + c(sm, right) * Q_iface[right]) / dx
    return out


class TestCuRates:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 4), st.integers(1, 5),
           st.floats(1e-3, 10.0), st.integers(0, 2 ** 32 - 1))
    def test_matches_formula(self, n, n_z, n_comp, dx, seed):
        # n+1 interfaces and n cells, as in the moment solver (n_z = 0) or
        # with n_z columns, as in a window of the reference solver; about a
        # third of the interfaces have s+ = s- = 0.  A new array and a
        # strided out= view, the component slice ref2d writes, give the
        # oracle's bits.
        rng = np.random.default_rng(seed)
        cols = (n_z,) if n_z else ()
        moving = rng.random((n + 1,) + cols) > 0.3
        sm = np.where(moving, -3.0 * rng.random(moving.shape), 0.0)
        sp = np.where(moving, 3.0 * rng.random(moving.shape), 0.0)
        F, Q_iface = rng.normal(size=(2, n + 1) + cols + (n_comp,))
        Q_cell = rng.normal(size=(n,) + cols + (n_comp,))
        want = cu_rates_oracle(F, Q_cell, Q_iface, sm, sp, dx)

        got = fv1d.cu_rates(F, Q_cell.copy(), Q_iface, sm, sp, dx)
        assert got.tobytes() == want.tobytes()
        state = np.moveaxis(np.full((n_comp + 1, n) + cols, 7.0), 0, -1)
        view = state[..., 1:]
        got = fv1d.cu_rates(F, Q_cell.copy(), Q_iface, sm, sp, dx, out=view)
        assert got is view and view.tobytes() == want.tobytes()
        assert np.all(state[..., 0] == 7.0)


def quadrature_cell_oracle(u_bar, slope, dy, params, n_nodes=64):
    """Dense Gauss quadrature of Q(U~(y)) U~_y over one cell."""
    s, w = closure.gauss_rule(n_nodes)
    out = np.zeros_like(u_bar)
    for sk, wk in zip(s, w):
        U = u_bar + (sk - 0.5) * dy * slope
        out += wk * dy * (model1d.noncons_q(U, params) @ slope)
    return out


def quadrature_interface_oracle(U_l, U_r, params, n_nodes=64):
    """Dense Gauss quadrature of Q(path(s)) [U] along the linear path."""
    s, w = closure.gauss_rule(n_nodes)
    jump = U_r - U_l
    out = np.zeros_like(U_l)
    for sk, wk in zip(s, w):
        out += wk * (model1d.noncons_q(U_l + sk * jump, params) @ jump)
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

#: Series cutoff of the phi-functions behind the weights.
_CUT = fv1d._PHI_SERIES_MAX

#: Relative depth changes r across a cell (from its south face) or jump,
#: of either sign: none, 1e-14 up to 0.9 (contractions down to r = -0.9),
#: the band 0.5e-9..2e-9 where an earlier flat/log switch lost 2e-7, and
#: both sides of the series cutoff.
rel_depth_change = (st.just(0.0)
                    | st.floats(-14.0, np.log10(0.9)).map(lambda e: 10.0 ** e)
                    | st.floats(0.5e-9, 2e-9)
                    | st.floats(0.5 * _CUT, 2.0 * _CUT)
                    | st.sampled_from([np.nextafter(_CUT, 0.0), _CUT]))
signed_depth_change = st.tuples(rel_depth_change, st.sampled_from([-1.0, 1.0])).map(
    lambda rs: rs[0] * rs[1])

#: Error bound of the weights, relative to the scale of each test.
WEIGHT_TOL = 2e-14


class TestPathWeights:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 2.0), signed_depth_change, st.floats(0.01, 0.5),
           st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10))
    def test_cell_weights_match_quadrature(self, h_bar, r, dx, chi):
        h_slope = r * h_bar / (1.0 + 0.5 * r) / dx     # r = dx h_slope / h_south
        chi_bar, chi_slope = np.array(chi[:5]), np.array(chi[5:]) / dx
        W = fv1d._cell_weights(np.array([h_bar]), np.array([h_slope]),
                               chi_bar[None], chi_slope[None], dx)[0]
        y = (_S - 0.5) * dx
        chi_y = chi_bar + np.multiply.outer(y, chi_slope)
        ref = (_W[:, None] * chi_y / (h_bar + y * h_slope)[:, None]).sum(axis=0) * dx
        scale = (np.abs(chi_bar) + np.abs(chi_slope) * dx + 1.0) * dx / h_bar
        assert np.all(np.abs(W - ref) <= WEIGHT_TOL * scale)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 2.0), signed_depth_change,
           st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10))
    def test_interface_weights_match_quadrature(self, h_l, r, chi):
        h_r = h_l * (1.0 + r)
        chi_l, chi_r = np.array(chi[:5]), np.array(chi[5:])
        W = fv1d._interface_weights(np.array([h_l]), np.array([h_r]),
                                    chi_l[None], chi_r[None])[0]
        chi_s = chi_l + np.multiply.outer(_S, chi_r - chi_l)
        ref = (_W[:, None] * chi_s / (h_l + _S * (h_r - h_l))[:, None]).sum(axis=0)
        scale = (np.abs(chi_l) + np.abs(chi_r) + 1.0) / min(h_l, h_r)
        assert np.all(np.abs(W - ref) <= WEIGHT_TOL * scale)

    def test_batched_rows_match_single_rows(self):
        # a batch mixing flat rows, rows on both sides of the series cutoff
        # and deep contractions gives each row what that row gives alone
        rng = np.random.default_rng(5)
        r = np.array([0.0, 1e-12, 0.3, -0.2, 5e-10, 2e-9, -0.9,
                      np.nextafter(_CUT, 0.0), _CUT, -_CUT, 0.99 * _CUT, -1.01 * _CUT])
        h = rng.uniform(0.5, 2.0, r.size)
        dh = h * r
        chi = rng.normal(size=(r.size, 5))
        chi2 = rng.normal(size=(r.size, 5))
        for fn, args in ((fv1d._cell_weights, (h, dh / 0.1, chi, chi2, 0.1)),
                         (fv1d._interface_weights, (h, h + dh, chi, chi2))):
            batch = fn(*args)
            for i in range(r.size):
                row = fn(*(a[i:i + 1] if isinstance(a, np.ndarray) else a
                           for a in args))
                assert batch[i].tobytes() == row[0].tobytes()


class TestRhs:
    def test_uniform_steady_state(self):
        p = make_params(1)
        grid = Grid1D(-1.0, 1.0, 16)
        sol = uniform_solution(grid, [1.0, 0.2, -0.3, 0.1, 0.4, 0.05, 0.02, -0.01, 0.03])
        (dudt,), _ = fv1d.rhs(sol, p, theta=1.3)
        np.testing.assert_allclose(dudt, 0.0, atol=1e-13)

    def test_zero_magnetic_rows(self):
        p = make_params(1)
        grid = Grid1D(-1.0, 1.0, 32)
        y = grid.centers()
        cells = np.zeros((32, 9))
        cells[:, 0] = 1.0 + 0.2 * np.exp(-5 * y ** 2)
        cells[:, 2] = 0.25 * cells[:, 0]
        cells[:, 6] = -0.25 * cells[:, 0]
        (dudt,), _ = fv1d.rhs(Solution1D(grid, cells), p, theta=1.3)
        np.testing.assert_allclose(dudt[:, [3, 4, 7, 8]], 0.0, atol=1e-13)

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

        (dudt,), _ = fv1d.rhs(sol, p, theta=1.3)
        np.testing.assert_allclose(dudt, expected, rtol=1e-9, atol=1e-10)

    def test_returns_the_pair_run_passes_to_callbacks(self, monkeypatch):
        # rhs returns (rates, diagnostics) as integrate takes them, and the
        # callback receives the merge of each step's three stages
        p = make_params(1)
        sol = bump_state(32)
        returned, passed = [], []
        rhs = fv1d.rhs

        def spy(*args):
            returned.append(rhs(*args))
            return returned[-1]

        monkeypatch.setattr(fv1d, "rhs", spy)
        _, stats = fv1d.run(sol, p, t_final=0.05, callback=lambda s, d: passed.append(d))
        assert stats.n_steps > 1 and len(returned) == 3 * stats.n_steps
        for (rates, diag) in returned:
            assert len(rates) == 1 and rates[0].shape == sol.cells.shape
            assert isinstance(diag, fv1d.StepDiagnostics) and len(diag.max_speed) == 1
        stages = [d for _, d in returned]
        assert passed == [a.merge(b).merge(c) for a, b, c in
                          zip(stages[::3], stages[1::3], stages[2::3])]


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


class FirstStep(Exception):
    pass


def first_step(sol, p):
    """Time after the first step of a run from ``sol``."""
    def stop(s, d):
        raise FirstStep(s.time)
    with pytest.raises(FirstStep) as info:
        fv1d.run(sol, p, t_final=1.0, nu=0.45, callback=stop)
    return info.value.args[0]


def bump_state(n_cells):
    grid = Grid1D(-1.0, 1.0, n_cells)
    y = grid.centers()
    cells = np.zeros((n_cells, 9))
    cells[:, 0] = 1.0 + np.exp(3.0 * np.cos(np.pi * (y + 0.5)) - 4.0)
    cells[:, 2] = 0.25 * cells[:, 0]
    cells[:, 4] = 1.1
    cells[:, 8] = -0.25
    return Solution1D(grid, cells)


def zero_rates(state, t):
    return tuple(np.zeros_like(u) for u in state), fv1d.StepDiagnostics((0.0,))


class TestCfl:
    def test_magnetogravity_bound_value(self):
        p = make_params(0)
        grid = Grid1D(0.0, 0.16, 16)
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 1.1])
        dt = first_step(sol, p)
        assert dt == pytest.approx(0.45 * grid.dy / np.sqrt(2.21), rel=1e-8)

    def test_dy_linearity(self):
        p = make_params(0)
        s1 = uniform_solution(Grid1D(0.0, 1.0, 50), [1.0, 0.0, 0.0, 0.0, 1.1])
        s2 = uniform_solution(Grid1D(0.0, 1.0, 100), [1.0, 0.0, 0.0, 0.0, 1.1])
        assert first_step(s1, p) == pytest.approx(2.0 * first_step(s2, p), rel=1e-12)

    def test_nu_validated(self):
        p = make_params(0)
        sol = uniform_solution(Grid1D(0.0, 1.0, 8), [1.0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            fv1d.run(sol, p, t_final=0.1, nu=0.6)
        with pytest.raises(ValueError):
            fv1d.integrate((sol.cells,), 0.0, 0.1, zero_rates, (1.0,), 0.0, (None,))

    def test_all_zero_speeds_capped(self):
        # no physically valid state has zero speeds; the driver then steps
        # by DT_MAX, and the last step lands on t_final
        times = []
        fv1d.integrate((np.ones(3),), 0.0, 2.5, zero_rates, (0.1,), 0.45, (None,),
                       lambda u, t, d: times.append(t))
        assert times == [fv1d.DT_MAX, 2 * fv1d.DT_MAX, 2.5]

    def test_slowest_direction_sets_step(self):
        def rates(state, t):
            return ((np.zeros(1),) * 3,
                    fv1d.StepDiagnostics((2.0, 0.0, 8.0)))
        times = []
        fv1d.integrate((np.ones(1),) * 3, 0.0, 1.0, rates, (0.1, 1e-9, 0.2), 0.5,
                       (None,) * 3, lambda u, t, d: times.append(t))
        assert times[0] == 0.5 * 0.2 / 8.0


class TestTimeStepping:
    def test_zero_rhs_identity(self):
        state = (np.array([1.0, -2.0, 3.0]), np.array([[0.5], [4.0]]))
        (a, b), t, stats = fv1d.integrate(state, 0.0, 0.3, zero_rates, (1.0,),
                                          0.45, (None, None))
        assert a.tobytes() == state[0].tobytes()
        assert b.tobytes() == state[1].tobytes()
        assert t == 0.3 and stats.n_steps == 1

    def test_third_order_on_decay(self):
        # u' = -u to t = 1 in n steps of dt = nu dx / s = 1/n, on a tuple
        # state of two arrays: halving dt should cut the error ~8x
        errs = []
        for n in (16, 32, 64):
            def rates(state, t, n=n):
                return (tuple(-u for u in state),
                        fv1d.StepDiagnostics((0.5 * n,)))
            (u, w), t, stats = fv1d.integrate((np.array([1.0]), np.array([2.0])),
                                              0.0, 1.0, rates, (1.0,), 0.5,
                                              (None, None))
            assert stats.n_steps == n and t == 1.0
            assert w[0] == 2.0 * u[0]
            errs.append(abs(u[0] - np.exp(-1.0)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 2.9)

    def test_diagnostics_merged_by_max_over_stages(self):
        seen = []

        def rates(state, t):
            seen.append(t)
            return ((np.zeros(1),),
                    fv1d.StepDiagnostics((1.0 + t,), max_im_ratio=t, div_residual=-t))
        diags = []
        fv1d.integrate((np.ones(1),), 0.0, 0.1, rates, (0.2,), 0.5, (None,),
                       lambda u, t, d: diags.append(d))
        assert seen == [0.0, 0.1, 0.05]     # stage times t0, t0 + dt, t0 + dt/2
        assert diags == [fv1d.StepDiagnostics((1.1,), 0.1, 0.0)]

    def test_dead_stages_released(self):
        # each stage's derivative and state are dropped once no later stage
        # reads them: by the third stage k1, u1 and k2 are gone, and by the
        # next step's first stage u2 and k3 too
        states, rates_out, dead = [], [], []

        def rates(state, t):
            n = len(states)
            if n % 3 == 2:
                dead.append([rates_out[n - 2](), states[n - 1](), rates_out[n - 1]()])
            elif n and n % 3 == 0:
                dead.append([states[n - 1](), rates_out[n - 1]()])
            k = -0.5 * state[0]
            states.append(weakref.ref(state[0]))
            rates_out.append(weakref.ref(k))
            return (k,), fv1d.StepDiagnostics((1.0,))

        (u,), t, stats = fv1d.integrate((np.ones(4),), 0.0, 0.5, rates, (0.2,), 0.5,
                                        (None,))
        assert stats.n_steps == 5 and len(dead) == 2 * 5 - 1
        assert all(ref is None for refs in dead for ref in refs)

    def test_stage_check_names_time_cell_and_quantity(self):
        def rates(state, t):
            k = np.zeros((4, 5))
            k[2, 0] = -10.0        # drains the depth of cell 2
            return (k,), fv1d.StepDiagnostics((1.0,))
        def late_rates(state, t):
            (k,), diag = rates(state, t)
            return (10.0 * k * (t > 0.0),), diag   # drains at the second stage
        state = np.ones((4, 5))
        with pytest.raises(DryStateError, match=r"depth .* flat cell index 2 .* at t=0\.2"):
            fv1d.integrate((state,), 0.0, 1.0, rates, (1.0,), 0.2, (1e-10,))
        with pytest.raises(DryStateError, match=r"flat cell index 2 .* at t=0\.1$"):
            fv1d.integrate((state,), 0.0, 1.0, late_rates, (1.0,), 0.2, (1e-10,))
        def nan_rates(state, t):
            k = np.zeros((4, 5))
            k[1, 3] = np.nan if t == 0.0 else 0.0    # poisons the first stage
            return (k,), fv1d.StepDiagnostics((0.0,))
        with pytest.raises(DryStateError,
                           match="non-finite value nan in component 3 at flat cell index 1 at t=0.5"):
            fv1d.integrate((state,), 0.0, 0.5, nan_rates, (1.0,), 0.2, (1e-10,))

    @pytest.mark.parametrize("stage", [1, 2])
    def test_hyperbolicity_error_carries_stage_time(self, stage):
        calls = []

        def rates(state, t):
            calls.append(t)
            if len(calls) == stage:
                raise HyperbolicityError("complex eigenvalue ratio 1.000e+00 exceeds "
                                         "1.000e-01 in the left state of interface 3",
                                         ratio=1.0, location=(3, "left"))
            return (np.zeros(1),), fv1d.StepDiagnostics((1.0,))
        t0, dt = 0.25, 0.5 * 0.2 / 1.0
        with pytest.raises(HyperbolicityError) as info:
            fv1d.integrate((np.ones(1),), t0, 1.0, rates, (0.2,), 0.5, (None,))
        when = (t0, t0 + dt)[stage - 1]
        assert info.value.time == when
        assert str(info.value).endswith(f"interface 3 at t={when:.6g}")
        assert info.value.ratio == 1.0 and info.value.location == (3, "left")

    def test_initial_state_checked(self):
        # a dry cell in the initial state is named before any rhs runs
        p = make_params(1)
        sol = bump_state(20)
        sol.cells[10, 0] = 1e-12
        with pytest.raises(DryStateError,
                           match=r"depth 1\.000e-12 at flat cell index 10 .* at t=0$"):
            fv1d.run(sol, p, t_final=0.1)
        sol = bump_state(20)
        sol.cells[7, 2] = np.inf
        with pytest.raises(DryStateError,
                           match="non-finite value inf in component 2 at flat cell index 7 at t=0$"):
            fv1d.run(sol, p, t_final=0.1)

    def test_single_step_mass_conservation(self):
        p = make_params(1)
        sol = bump_state(64)
        dt = 0.45 * sol.grid.dy / fv1d.rhs(sol, p, 1.3)[1].max_speed[0]
        new, stats = fv1d.run(sol, p, t_final=dt, theta=1.3)
        assert stats.n_steps == 1
        m0 = sol.cells[:, 0].sum() * sol.grid.dy
        m1 = new.cells[:, 0].sum() * sol.grid.dy
        assert abs(m1 - m0) <= 1e-13 * abs(m0)

    def test_short_run_conserves_mass_and_hb(self):
        p = make_params(1)
        sol = bump_state(50)
        grid, cells = sol.grid, sol.cells
        final, stats = fv1d.run(sol, p, t_final=0.2, nu=0.45, theta=1.3)
        m0 = cells[:, 0].sum() * grid.dy
        m1 = final.cells[:, 0].sum() * grid.dy
        assert abs(m1 - m0) <= 1e-11 * abs(m0)
        assert np.abs(final.cells[:, 4] - 1.1).max() <= 1.1e-12
        assert stats.n_steps > 0


class TestMomentSelfConvergence:
    """Example 2, linear case, at M = 1: b != 0, so the path integrals of
    the nonconservative products are active.  Runs on 50, 100 and 200
    cells against 800 at t = 0.1 must converge with an observed order of
    at least 1.5, the floor for a second-order scheme, in h, hv_m,
    h beta_1 and h eta_1."""

    def test_order_one_example2_linear(self):
        cells = {}
        for n in (50, 100, 200, 800):
            spec = experiments.make_spec(2, "linear")
            spec.n_cells, spec.t_final = n, 0.1
            sol, _ = fv1d.run(experiments.initial_moment_solution(spec, 1),
                              experiments.model_params(spec, 1), spec.t_final,
                              nu=spec.nu, theta=spec.theta)
            assert sol.time == pytest.approx(0.1, abs=1e-14)
            cells[n] = sol.cells
        fields = [model1d.H, model1d.HV, model1d.moment_index(1, model1d.BETA),
                  model1d.moment_index(1, model1d.ETA)]
        errs = []
        for n in (50, 100, 200):
            restricted = cells[800].reshape(n, 800 // n, -1).mean(axis=1)
            errs.append(np.abs(cells[n] - restricted)[:, fields].sum(axis=0) * 2.0 / n)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.5), orders


class TestBlasPin:
    @pytest.fixture
    def get_threads(self):
        blas = fv1d._openblas()
        if blas is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        return blas[1]

    def test_one_thread_during_the_march_then_restored(self, get_threads):
        p = make_params(1)
        before = get_threads()
        during = []
        fv1d.run(bump_state(20), p, t_final=0.02,
                 callback=lambda s, d: during.append(get_threads()))
        assert during and set(during) == {1}
        assert get_threads() == before

    def test_restored_when_the_march_raises(self, get_threads):
        before = get_threads()
        assert first_step(bump_state(20), make_params(1)) > 0.0   # a callback raises
        assert get_threads() == before
        sol = bump_state(20)
        sol.cells[7, 2] = np.inf
        with pytest.raises(DryStateError):
            fv1d.run(sol, make_params(1), t_final=0.1)
        assert get_threads() == before
