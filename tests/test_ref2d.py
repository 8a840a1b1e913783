"""Reference-solver tests: fluxes, vertical transport operators, the
divergence-consistent reconstruction, and cross-checks against the 1-D
solver on vertically uniform data."""

import numpy as np
import pytest

from mrswm import fv1d, model1d, ref2d
from mrswm.ref2d import Grid2D, RefParams, Solution2D


def uniform_solution(grid, state):
    U = np.tile(np.asarray(state, dtype=float), (grid.n_y, grid.n_zeta, 1))
    return Solution2D(grid, U, np.zeros((grid.n_y, grid.n_zeta)))


class TestFluxes:
    def test_rest_state(self):
        U = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(ref2d.flux_y(U, 1.0), [0, 0, 0.5, 0, 0])
        np.testing.assert_allclose(ref2d.flux_zeta(U, 0.0, 0.0), 0.0)

    def test_last_horizontal_component_always_zero(self):
        rng = np.random.default_rng(0)
        U = np.abs(rng.normal(size=(20, 5))) + 0.2
        G = ref2d.flux_y(U, 1.0)
        np.testing.assert_allclose(G[:, 4], 0.0)

    def test_vertical_flux_with_only_coupling(self):
        U = np.array([2.0, 0.6, -0.8, 0.4, 1.0])
        C = 0.3
        Hf = ref2d.flux_zeta(U, 0.0, C)
        h = U[0]
        u, v, a, b = U[1:] / h
        np.testing.assert_allclose(
            Hf, [0.0, -a * C * h, -b * C * h, -u * C * h, -v * C * h], rtol=1e-14)

    def test_vertical_flux_pure_transport(self):
        U = np.array([2.0, 0.6, -0.8, 0.4, 1.0])
        np.testing.assert_allclose(ref2d.flux_zeta(U, 0.5, 0.0), 0.5 * U)


class TestCouplingOmega:
    def test_uniform_flow_gives_zero(self):
        n_y, n_z = 8, 6
        flux_h = np.full((n_y + 1, n_z), 0.37)
        h = np.ones((n_y, n_z))
        omega = ref2d.coupling_omega(h, h, flux_h, 0.1, 1.0 / n_z)
        np.testing.assert_allclose(omega, 0.0, atol=1e-15)

    def test_boundary_values_zero(self):
        rng = np.random.default_rng(1)
        flux_h = rng.normal(size=(9, 6))
        h = np.ones((8, 6)) + 0.1 * rng.random((8, 6))
        omega = ref2d.coupling_omega(h, h, flux_h, 0.1, 1.0 / 6)
        np.testing.assert_allclose(omega[:, 0], 0.0)
        np.testing.assert_allclose(omega[:, -1], 0.0)

    def test_telescoping_sum_vanishes_at_top(self):
        # the forced top value agrees with the running sum to round-off
        rng = np.random.default_rng(2)
        n_y, n_z = 6, 10
        dy, dz = 0.1, 1.0 / n_z
        flux_h = rng.normal(size=(n_y + 1, n_z))
        flux_div = (flux_h[1:] - flux_h[:-1]) / dy
        hvm_y = dz * flux_div.sum(axis=1)
        full_sum = (dz * (hvm_y[:, None] - flux_div)).sum(axis=1)
        np.testing.assert_allclose(full_sum, 0.0, atol=1e-14)

    def test_manufactured_profile_convergence(self):
        # v = V(y) phi_1(zeta), h = 1: omega -> -V'(y) (zeta - zeta^2)
        errs = []
        for n_z in (20, 40, 80):
            n_y = 64
            grid = Grid2D(-1.0, 1.0, n_y, n_z)
            y_f = grid.y_min + np.arange(n_y + 1) * grid.dy
            z_c = grid.zeta_centers()
            V = lambda yy: np.sin(np.pi * yy)
            flux_h = V(y_f)[:, None] * (1.0 - 2.0 * z_c)[None, :]
            h = np.ones((n_y, n_z))
            omega = ref2d.coupling_omega(h, h, flux_h, grid.dy, grid.dzeta)
            z_f = np.arange(n_z + 1) * grid.dzeta
            y_c = grid.y_centers()
            exact = -np.pi * np.cos(np.pi * y_c)[:, None] * (z_f - z_f ** 2)[None, :]
            errs.append(np.abs(omega - exact).max())
        # flux differencing is O(dy^2) here and the zeta sum is exact for
        # linear profiles, so the error must drop steadily
        assert errs[0] < 0.02
        assert errs[2] <= errs[0] + 1e-12


class TestCouplingC:
    def test_uniform_b_gives_zero(self):
        faces, centers = ref2d.coupling_c(np.zeros((5, 8)), 0.125)
        np.testing.assert_allclose(faces, 0.0)
        np.testing.assert_allclose(centers, 0.0)

    def test_single_cell_jump(self):
        sigma_b = np.zeros((1, 6))
        sigma_b[0, 2] = 3.0
        dz = 1.0 / 6
        faces, centers = ref2d.coupling_c(sigma_b, dz)
        assert faces[0, 3] - faces[0, 2] == pytest.approx(-3.0 * dz)
        # center is the face midpoint: half weight on the cell itself
        assert centers[0, 2] == pytest.approx(-0.5 * 3.0 * dz)

    def test_faces_telescope(self):
        rng = np.random.default_rng(3)
        sigma_b = rng.normal(size=(4, 9))
        dz = 1.0 / 9
        faces, centers = ref2d.coupling_c(sigma_b, dz)
        np.testing.assert_allclose(np.diff(faces, axis=1), -dz * sigma_b,
                                   atol=1e-15)
        np.testing.assert_allclose(centers, 0.5 * (faces[:, :-1] + faces[:, 1:]))

    def test_divergence_slopes_cancel(self):
        rng = np.random.default_rng(4)
        sigma_b = rng.normal(size=(4, 9))
        dz = 1.0 / 9
        faces, _ = ref2d.coupling_c(sigma_b, dz)
        slope_zeta = np.diff(faces, axis=1) / dz
        np.testing.assert_allclose(sigma_b + slope_zeta, 0.0, atol=1e-15)


class TestSigma:
    def test_matching_slope_full_weight(self):
        s = np.array([[2.0]])
        B = np.array([[2.0]])
        assert ref2d.sigma_factor(s, B)[0, 0] == 1.0

    def test_small_minmod_slope_caps(self):
        s = np.array([[1.0]])
        B = np.array([[4.0]])
        assert ref2d.sigma_factor(s, B)[0, 0] == pytest.approx(0.25)

    def test_opposite_signs_flatten(self):
        s = np.array([[-1.0]])
        B = np.array([[4.0]])
        assert ref2d.sigma_factor(s, B)[0, 0] == 0.0

    def test_zero_b_flattens(self):
        s = np.array([[1.0]])
        B = np.array([[0.0]])
        assert ref2d.sigma_factor(s, B)[0, 0] == 0.0


class TestEvolveB:
    def test_zero_b_stays_zero(self):
        grid = Grid2D(-1.0, 1.0, 8, 6)
        sol = uniform_solution(grid, [1.0, 0.1, 0.2, 0.05, 0.4])
        dbdt = ref2d.rhs2d(sol, RefParams(g=1.0), theta=1.3).dbdt
        np.testing.assert_allclose(dbdt, 0.0, atol=1e-14)

    def test_uniform_advection_transports_blob(self):
        v0 = 0.5
        grid = Grid2D(-1.0, 1.0, 64, 4)
        sol = uniform_solution(grid, [1.0, 0.0, v0, 0.0, 0.0])
        y = grid.y_centers()
        sol.B[:] = np.exp(-20.0 * y ** 2)[:, None]
        p = RefParams(g=1.0)
        dt = 0.2 * grid.dy
        t = 0.0
        for _ in range(80):
            sol.B = sol.B + dt * ref2d.rhs2d(sol, p, theta=1.3).dbdt
            t += dt
        peak = y[np.argmax(sol.B[:, 0])]
        assert peak == pytest.approx(v0 * t, abs=3 * grid.dy)

    def test_post_step_slope_consistency(self):
        # after one full step from consistent data, B still agrees with the
        # limited divided difference of the evolved hb to O(dy)
        diffs = []
        for n_y in (50, 100, 200):
            grid = Grid2D(-1.0, 1.0, n_y, 6)
            y = grid.y_centers()
            U = np.zeros((n_y, grid.n_zeta, 5))
            U[..., 0] = 1.0
            U[..., 2] = 0.2
            U[..., 4] = (1.1 + 0.1 * np.sin(np.pi * y))[:, None]
            B = ref2d.make_divergence_field(U, grid, 1.3)
            sol = Solution2D(grid, U, B)
            p = RefParams(g=1.0)
            dt = ref2d.cfl_dt_2d(sol, p, 0.45, 1.3)
            final, _ = ref2d.step_ssprk3_2d(sol, p, dt, 1.3)
            slope = ref2d.make_divergence_field(final.U, grid, 1.3)
            diffs.append(np.abs(final.B - slope).max())
        ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
        assert np.all(ratios > 1.4)
        assert diffs[0] < 0.05


class TestReconstruct2D:
    def test_constant_fields(self):
        grid = Grid2D(0.0, 1.0, 6, 5)
        sol = uniform_solution(grid, [1.5, 0.1, -0.2, 0.3, 0.7])
        rec = ref2d.reconstruct2d(sol, RefParams(g=1.0), theta=1.3)
        for face in (rec.north, rec.south, rec.up, rec.down):
            np.testing.assert_allclose(face[1:-1], sol.U, atol=1e-14)

    def test_depth_slope_clipped_at_floor(self):
        # the limited slope of cell 4 would put a face at 0.47, below the
        # floor 0.5, so that depth slope is dropped
        grid = Grid2D(0.0, 1.0, 8, 6, boundary_y="outflow")
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 0] = np.array([1.0, 1.0, 1.0, 0.8, 0.6, 0.1, 0.1, 0.1])[:, None]
        rec = ref2d.reconstruct2d(sol, RefParams(g=1.0, h_min=0.5), theta=1.3)
        assert np.all(rec.slope_y[5, :, 0] == 0.0)       # row 5 = cell 4
        np.testing.assert_array_equal(rec.south[5, :, 0], 0.6)
        assert np.all(rec.slope_y[4, :, 0] < 0.0)        # cell 3 keeps its slope


class TestRhs2D:
    def test_uniform_rest_state(self):
        grid = Grid2D(-1.0, 1.0, 8, 5)
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        r = ref2d.rhs2d(sol, RefParams(g=1.0), theta=1.3)
        np.testing.assert_allclose(r.dudt, 0.0, atol=1e-14)
        np.testing.assert_allclose(r.dbdt, 0.0, atol=1e-14)

    def test_mass_conserved_periodic(self):
        grid = Grid2D(-1.0, 1.0, 32, 8)
        y = grid.y_centers()
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 0] = (1.0 + 0.3 * np.exp(-4 * y ** 2))[:, None]
        sol.U[..., 2] = 0.2 * sol.U[..., 0]
        p = RefParams(g=1.0)
        m0 = sol.U[..., 0].sum()
        final, _ = ref2d.run2d(sol, p, t_final=0.2, theta=1.3)
        assert abs(final.U[..., 0].sum() - m0) <= 1e-11 * m0

    def test_zeta_independence_preserved_and_matches_1d(self):
        # b = 0, zeta-independent data: each zeta row must follow the 1-D
        # M = 0 run; lockstep time steps remove dt mismatch
        n_y = 48
        grid2 = Grid2D(-1.0, 1.0, n_y, 6)
        y = grid2.y_centers()
        h0 = 1.0 + 0.3 * np.exp(-4 * y ** 2)
        sol2 = uniform_solution(grid2, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol2.U[..., 0] = h0[:, None]
        sol2.U[..., 2] = (0.25 * h0)[:, None]
        p2 = RefParams(g=1.0)

        grid1 = fv1d.Grid1D(-1.0, 1.0, n_y)
        cells = np.zeros((n_y, 5))
        cells[:, 0] = h0
        cells[:, 2] = 0.25 * h0
        sol1 = fv1d.Solution1D(grid1, cells)
        p1 = model1d.ModelParams(g=1.0, order=0)

        t_final = 0.15
        while sol1.time < t_final - 1e-14:
            r1 = fv1d.rhs(sol1, p1, 1.3)
            dt1 = 0.45 * grid1.dy / r1.max_speed
            dt2 = ref2d.cfl_dt_2d(sol2, p2, 0.45, 1.3)
            dt = min(dt1, dt2, t_final - sol1.time)
            sol1, _ = fv1d.step_ssprk3(sol1, p1, dt, 1.3)
            sol2, _ = ref2d.step_ssprk3_2d(sol2, p2, dt, 1.3)

        spread = np.abs(sol2.U - sol2.U[:, :1, :]).max()
        assert spread <= 1e-12
        means = ref2d.depth_average(sol2)
        np.testing.assert_allclose(means[:, 0], sol1.cells[:, 0], atol=2e-8)
        v1 = sol1.cells[:, 2] / sol1.cells[:, 0]
        np.testing.assert_allclose(means[:, 2], v1, atol=2e-8)

    def test_divergence_residual_zero_by_construction(self):
        grid = Grid2D(-1.0, 1.0, 24, 8)
        y = grid.y_centers()
        z = grid.zeta_centers()
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 0] = (1.0 + 0.2 * np.exp(-4 * y ** 2))[:, None]
        sol.U[..., 2] = 0.25 * sol.U[..., 0]
        sol.U[..., 4] = 1.1 - 0.25 * (1.0 - 2.0 * z)[None, :]
        sol.B = ref2d.make_divergence_field(sol.U, grid, 1.3)
        residuals = []
        final, stats = ref2d.run2d(
            sol, RefParams(g=1.0), t_final=0.1, theta=1.3,
            callback=lambda s, d: residuals.append(d.div_residual))
        assert stats.max_div_residual <= 1e-12
        assert len(residuals) == stats.n_steps


class TestDiagnostics:
    def test_depth_average_uniform_column(self):
        grid = Grid2D(0.0, 1.0, 5, 7)
        sol = uniform_solution(grid, [2.0, 0.4, -0.6, 0.2, 0.8])
        means = ref2d.depth_average(sol)
        np.testing.assert_allclose(means[:, 0], 2.0)
        np.testing.assert_allclose(means[:, 1], 0.2)   # u = hu/h
        np.testing.assert_allclose(means[:, 2], -0.3)

    def test_depth_average_sine_profile(self):
        grid = Grid2D(0.0, 1.0, 4, 100)
        z = grid.zeta_centers()
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 2] = np.sin(2.0 * np.pi * z)[None, :]
        means = ref2d.depth_average(sol)
        np.testing.assert_allclose(means[:, 2], 0.0, atol=1e-3)

    def test_depth_average_linear_profile_exact(self):
        grid = Grid2D(0.0, 1.0, 4, 10)
        z = grid.zeta_centers()
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 2] = (0.5 * z)[None, :]
        means = ref2d.depth_average(sol)
        np.testing.assert_allclose(means[:, 2], 0.25, rtol=1e-13)

    def test_profile_slice_constant(self):
        grid = Grid2D(0.0, 1.0, 5, 7)
        sol = uniform_solution(grid, [2.0, 0.4, -0.6, 0.2, 0.8])
        j, z, prim = ref2d.profile_slice(sol, 0.5)
        np.testing.assert_allclose(prim[:, 0], 2.0)
        np.testing.assert_allclose(prim[:, 2], -0.3)
        assert len(z) == 7

    def test_profile_slice_boundary_tie_break(self):
        grid = Grid2D(0.0, 1.0, 5, 7)
        sol = uniform_solution(grid, [1.0, 0, 0, 0, 0])
        j, _, _ = ref2d.profile_slice(sol, 0.4)   # boundary between 1 and 2
        assert j == 1

    def test_profile_slice_outside_domain(self):
        grid = Grid2D(0.0, 1.0, 5, 7)
        sol = uniform_solution(grid, [1.0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            ref2d.profile_slice(sol, 1.5)
