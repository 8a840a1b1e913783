"""Reference-solver tests: fluxes, vertical transport operators, the
divergence-consistent reconstruction, and cross-checks against the 1-D
solver on vertically uniform data."""

import logging
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrswm import _strip, experiments, fv1d, model1d, ref2d
from mrswm.errors import DryStateError
from mrswm.ref2d import Grid2D, RefParams, Solution2D


def uniform_solution(grid, state):
    U = np.tile(np.asarray(state, dtype=float), (grid.n_y, grid.n_zeta, 1))
    return Solution2D(grid, U, np.zeros((grid.n_y, grid.n_zeta)))


def component_first(U):
    """Whether U is a view of a C-contiguous (5, n_y, n_zeta) buffer."""
    return np.moveaxis(U, -1, 0).flags.c_contiguous


def in_layout(U, layout):
    """A copy of U stored component-first ("first") or component-last ("last")."""
    if layout == "last":
        return np.ascontiguousarray(U)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(U, -1, 0)), 0, -1)


def with_layout(sol, layout):
    """A copy of ``sol`` whose U is stored in ``layout``; for "last" this
    bypasses the conversion that ``Solution2D`` applies on construction."""
    out = Solution2D(sol.grid, sol.U, sol.B.copy(), sol.time)
    out.U = in_layout(sol.U, layout)
    return out


def reconstruct(sol, params, theta):
    """``ref2d._reconstruct`` on the n_y + 2 rows of the strip with one
    ghost row per side."""
    grid = sol.grid
    return ref2d._reconstruct(fv1d.fill_ghosts(sol.U, grid.boundary_y),
                              fv1d.fill_ghosts(sol.B, grid.boundary_y, 1),
                              grid, params, theta)


def example3_like_solution():
    """Outflow state with Coriolis forcing whose u, v and hb vary in zeta."""
    grid = Grid2D(-4.0, 4.0, 32, 10, boundary_y="outflow")
    y = grid.y_centers()[:, None]
    z = grid.zeta_centers()[None, :]
    h = np.broadcast_to(1.0 + 0.2 * np.exp(-y ** 2), (grid.n_y, grid.n_zeta))
    U = np.zeros((grid.n_y, grid.n_zeta, 5))
    U[..., 0] = h
    U[..., 1] = h * 0.1 * np.exp(-y ** 2) * (1.0 + 0.5 * np.cos(np.pi * z))
    U[..., 2] = h * np.sin(2.0 * np.pi * z)
    U[..., 4] = 0.1 + 0.05 * (1.0 - 2.0 * z)
    sol = Solution2D(grid, U, ref2d.make_divergence_field(U, grid, 1.3))
    return sol, RefParams(g=1.0, coriolis=lambda y: np.ones_like(y))


def varied_solution(n_y=24, boundary="outflow"):
    """Outflow state with Coriolis forcing, a depth step that leaves some
    cells' depth slopes limited to zero and others sloped, and every
    component varying in y and zeta."""
    grid = Grid2D(-1.0, 1.0, n_y, 8, boundary_y=boundary)
    y = grid.y_centers()[:, None]
    z = grid.zeta_centers()[None, :]
    h = 1.0 + 0.3 * np.exp(-4.0 * y ** 2) + 0.2 * (y > 0.3)
    U = np.empty((grid.n_y, grid.n_zeta, 5))
    U[..., 0] = h
    U[..., 1] = h * (0.1 * np.sin(np.pi * z) + 0.05 * y)
    U[..., 2] = h * 0.25 * (1.0 - 2.0 * z) + 0.1 * y
    U[..., 3] = h * 0.1 * np.cos(np.pi * y) * z
    U[..., 4] = 1.1 - 0.25 * (1.0 - 2.0 * z) + 0.1 * np.sin(np.pi * y)
    B = ref2d.make_divergence_field(U, grid, 1.3)
    return Solution2D(grid, U, B), RefParams(g=1.0, coriolis=lambda y: np.ones_like(y))


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
            Hf, [-a * C * h, -b * C * h, -u * C * h, -v * C * h], rtol=1e-14)

    def test_vertical_flux_pure_transport(self):
        U = np.array([2.0, 0.6, -0.8, 0.4, 1.0])
        np.testing.assert_allclose(ref2d.flux_zeta(U, 0.5, 0.0), 0.5 * U[1:])


class TestCouplingOmega:
    def test_uniform_flow_gives_zero(self):
        n_y, n_z = 8, 6
        flux_h = np.full((n_y + 1, n_z), 0.37)
        omega, hvm_y = ref2d.coupling_omega(np.ones(n_y), flux_h, 0.1, 1.0 / n_z)
        np.testing.assert_allclose(omega, 0.0, atol=1e-15)
        np.testing.assert_allclose(hvm_y, 0.0, atol=1e-15)

    def test_boundary_values_zero(self):
        rng = np.random.default_rng(1)
        flux_h = rng.normal(size=(9, 6))
        h = np.ones(8) + 0.1 * rng.random(8)
        omega, _ = ref2d.coupling_omega(h, flux_h, 0.1, 1.0 / 6)
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
            omega, _ = ref2d.coupling_omega(np.ones(n_y), flux_h, grid.dy, grid.dzeta)
            z_f = np.arange(n_z + 1) * grid.dzeta
            y_c = grid.y_centers()
            exact = -np.pi * np.cos(np.pi * y_c)[:, None] * (z_f - z_f ** 2)[None, :]
            errs.append(np.abs(omega - exact).max())
        # flux differencing is O(dy^2) here and the zeta sum is exact for
        # linear profiles, so the error must drop steadily
        assert errs[0] < 0.02
        assert errs[2] <= errs[0] + 1e-12

    def test_zeta_transport_gives_the_depth_rate(self):
        # the zeta depth fluxes h omega turn every layer's own flux
        # divergence into the column mean hvm_y, the depth rate rhs2d sets
        rng = np.random.default_rng(6)
        n_y, n_z, dy = 7, 9, 0.1
        dz = 1.0 / n_z
        flux_h = rng.normal(size=(n_y + 1, n_z))
        h = 1.0 + rng.random(n_y)
        omega, hvm_y = ref2d.coupling_omega(h, flux_h, dy, dz)
        flux_div = (flux_h[1:] - flux_h[:-1]) / dy
        np.testing.assert_allclose(hvm_y, flux_div.mean(axis=1), rtol=1e-14)
        zeta_div = h[:, None] * (omega[:, 1:] - omega[:, :-1]) / dz
        np.testing.assert_allclose(flux_div + zeta_div,
                                   np.broadcast_to(hvm_y[:, None], flux_div.shape),
                                   rtol=0.0, atol=1e-12)


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
            r = ref2d.rhs2d(sol, p, 1.3)
            dt = 0.45 * min(grid.dy / r.max_speed_y, grid.dzeta / r.max_speed_z)
            final, stats = ref2d.run2d(sol, p, t_final=dt, theta=1.3)
            assert stats.n_steps == 1
            slope = ref2d.make_divergence_field(final.U, grid, 1.3)
            diffs.append(np.abs(final.B - slope).max())
        ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
        assert np.all(ratios > 1.4)
        assert diffs[0] < 0.05


class TestReconstruct2D:
    def test_constant_fields(self):
        grid = Grid2D(0.0, 1.0, 6, 5)
        sol = uniform_solution(grid, [1.5, 0.1, -0.2, 0.3, 0.7])
        rec, _ = reconstruct(sol, RefParams(g=1.0), theta=1.3)
        for face in (rec.north, rec.south, rec.up, rec.down):
            np.testing.assert_allclose(face[1:-1], sol.U, atol=1e-14)

    def test_depth_slope_clipped_at_floor(self):
        # the limited slope of cell 4 would put a face at 0.47, below the
        # floor 0.5, so that depth slope is dropped
        grid = Grid2D(0.0, 1.0, 8, 6, boundary_y="outflow")
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 0] = np.array([1.0, 1.0, 1.0, 0.8, 0.6, 0.1, 0.1, 0.1])[:, None]
        rec, clip_y = reconstruct(sol, RefParams(g=1.0, h_min=0.5), theta=1.3)
        assert np.all(rec.slope_y[5, :, 0] == 0.0)       # row 5 = cell 4
        assert np.all(clip_y[5])
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

        sol1, sol2 = experiments.lockstep(sol1, p1, sol2, p2, 0.15, 0.45, 1.3)

        spread = np.abs(sol2.U - sol2.U[:, :1, :]).max()
        assert spread <= 1e-12
        means = ref2d.depth_average(sol2)
        np.testing.assert_allclose(means[:, 0], sol1.cells[:, 0], atol=2e-8)
        v1 = sol1.cells[:, 2] / sol1.cells[:, 0]
        np.testing.assert_allclose(means[:, 2], v1, atol=2e-8)

    def test_depth_stays_uniform_in_zeta(self):
        # Example-3-like: outflow, Coriolis, u, v and hb varying in zeta;
        # every layer's depth rate is the column value, so h keeps one
        # value per column bit for bit
        sol, p = example3_like_solution()
        spreads = []

        def record(s, diag):
            h = s.U[..., 0]
            spreads.append(float((h.max(axis=1) - h.min(axis=1)).max()))

        final, stats = ref2d.run2d(sol, p, t_final=1.0, callback=record)
        assert stats.n_steps >= 10 and len(spreads) == stats.n_steps
        assert np.abs(final.U[..., 0] - sol.U[..., 0]).max() > 1e-3
        assert max(spreads) == 0.0

    def test_depth_stays_uniform_in_zeta_in_lockstep(self):
        sol, p = example3_like_solution()
        grid1 = fv1d.Grid1D(sol.grid.y_min, sol.grid.y_max, sol.grid.n_y,
                            boundary="outflow")
        cells = np.zeros((grid1.n_cells, 5))
        cells[:, 0] = sol.U[:, 0, 0]
        p1 = model1d.ModelParams(g=1.0, order=0, coriolis=p.coriolis)
        _, final = experiments.lockstep(fv1d.Solution1D(grid1, cells), p1, sol, p,
                                        1.0, 0.45, 1.3)
        h = final.U[..., 0]
        assert final.time == 1.0
        assert np.abs(h - sol.U[..., 0]).max() > 1e-3
        assert np.all(h == h[:, :1])

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

    def test_stage_check_names_time_cell_and_quantity(self):
        # a shallow layer whose Coriolis-driven flow leaves the outflow
        # edges dries in the second row from an edge
        grid = Grid2D(-1.0, 1.0, 40, 4, boundary_y="outflow")
        sol = uniform_solution(grid, [0.01, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 1] = (-0.05 * grid.y_centers())[:, None]
        p = RefParams(g=1.0, coriolis=lambda y: np.full_like(y, 10.0))
        with pytest.raises(DryStateError,
                           match=r"depth -1\.913e-01 at flat cell index \d+ .* at t=0\.225") as info:
            ref2d.run2d(sol, p, t_final=1.0)
        cell = int(str(info.value).split("flat cell index ")[1].split()[0])
        assert cell // grid.n_zeta in (1, grid.n_y - 2)

    def test_initial_state_checked(self):
        # a dry cell in the initial state is named before any rhs runs
        grid = Grid2D(-1.0, 1.0, 8, 6)
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[3, 2, 0] = 1e-12                  # flat cell index 3 * 6 + 2
        with pytest.raises(DryStateError,
                           match=r"depth 1\.000e-12 at flat cell index 20 .* at t=0$"):
            ref2d.run2d(sol, RefParams(g=1.0), t_final=0.1)


def rhs_in_windows(monkeypatch, sol, p, theta, rows):
    """rhs2d run in windows of ``rows`` rows, and the rows of each window.
    One share, so that every window runs in this process, where the spy
    sees it (a strip worker's windows would not be recorded)."""
    body, sizes = ref2d._rhs_rows, []

    def spy(*args):
        sizes.append(args[8].shape[0])                     # the window's dudt
        return body(*args)

    with monkeypatch.context() as m:
        m.setattr(model1d, "spectrum_shares", 1)
        m.setattr(ref2d, "WINDOW_CELLS", rows * sol.grid.n_zeta)
        m.setattr(ref2d, "_rhs_rows", spy)
        return ref2d.rhs2d(sol, p, theta), sizes


def assert_same_rhs(a, b):
    assert a.dudt.tobytes() == b.dudt.tobytes()
    assert a.dbdt.tobytes() == b.dbdt.tobytes()
    assert (a.max_speed_y, a.max_speed_z, a.div_residual) == \
        (b.max_speed_y, b.max_speed_z, b.div_residual)


class TestWindows:
    @pytest.mark.parametrize("n_y, boundary, rows, sizes", [
        (24, "outflow", 5, [5, 5, 5, 5, 4]),
        (23, "periodic", 5, [5, 5, 5, 5, 3]),
        (21, "outflow", 4, [4, 4, 4, 4, 4, 1]),
        (21, "periodic", 5, [5, 5, 5, 5, 1]),
    ])
    def test_windows_match_one_window_bitwise(self, monkeypatch, n_y, boundary,
                                              rows, sizes):
        sol, p = varied_solution(n_y, boundary)
        whole, one = rhs_in_windows(monkeypatch, sol, p, 1.3, n_y)
        tiled, many = rhs_in_windows(monkeypatch, sol, p, 1.3, rows)
        assert one == [n_y] and many == sizes
        assert_same_rhs(tiled, whole)
        assert component_first(tiled.dudt)
        assert np.abs(whole.dbdt).max() > 0.0 and whole.div_residual > 0.0

    def test_outflow_ghost_omega_copies_the_edge_row(self, monkeypatch):
        # beyond an outflow end the B update's y-slope of omega sees a copy
        # of the edge row's omega, so that slope vanishes in the edge rows;
        # an omega computed from the copied rows of U moves these values
        # by up to 0.024
        sol, p = varied_solution()
        first = [-2.0509137488387097, -2.382901713769716, -2.6784914180731416,
                 -2.9853424124231265, -3.3024178670058317, -3.628761823813484,
                 -3.963499620205749, -3.344287117525156]
        last = [-2.7914555980353493, -2.5465206803871734, -2.3798487176676453,
                -2.224927171830732, -2.0809636588582436, -1.9471924508247944,
                -1.8228810676617526, -2.4405771938559364]
        for rows in (sol.grid.n_y, 5):
            dbdt = rhs_in_windows(monkeypatch, sol, p, 1.3, rows)[0].dbdt
            np.testing.assert_allclose(dbdt[0], first, rtol=1e-12)
            np.testing.assert_allclose(dbdt[-1], last, rtol=1e-12)

    def test_clip_warnings_match_one_window(self, monkeypatch, caplog):
        # at theta = 2 the face of a cell between a deep neighbour and one a
        # float spacing above the floor lands on the floor by rounding, so
        # slopes are clipped although no cell is dry
        grid = Grid2D(-1.0, 1.0, 23, 8)
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 1.0])
        j = np.arange(grid.n_y)[:, None]
        sol.U[..., 0] = np.array([6.5, 2.0, np.nextafter(0.5, 1.0)])[j % 3]
        sol.U[..., 2] = 0.1 * sol.U[..., 0]
        sol.B = ref2d.make_divergence_field(sol.U, grid, 2.0)
        p = RefParams(g=1.0, h_min=0.5)
        results, logs = [], []
        for rows in (grid.n_y, 4):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="mrswm.fv1d"):
                results.append(rhs_in_windows(monkeypatch, sol, p, 2.0, rows)[0])
            logs.append([r.getMessage() for r in caplog.records])
        assert_same_rhs(*results)
        # one warning (the depth has no zeta slope), each stencil row counted once
        assert logs[0] == logs[1] == [
            "clipped depth slope in 56 cell(s) to keep h above floor"]

    def test_dry_cell_names_depth_cell_and_time(self, caplog):
        grid = Grid2D(0.0, 1.0, 8, 6, boundary_y="outflow")
        sol = uniform_solution(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        sol.U[..., 0] = np.array([1.0, 1.0, 1.0, 0.8, 0.6, 0.1, 0.1, 0.1])[:, None]
        sol.time = 0.25
        with caplog.at_level(logging.WARNING, logger="mrswm.fv1d"):
            with pytest.raises(DryStateError,
                               match=r"^depth 1\.000e-01 at flat cell index 30 is at "
                                     r"or below the floor 5\.0e-01 at t=0\.25$"):
                ref2d.rhs2d(sol, RefParams(g=1.0, h_min=0.5), 1.3)
        assert caplog.records == []


def rhs_in_processes(monkeypatch, sol, p, theta, rows, shares):
    """rhs2d in windows of ``rows`` rows with ``shares`` CPU shares, and
    the processes it ran them in."""
    with monkeypatch.context() as m:
        m.setattr(model1d, "spectrum_shares", shares)
        m.setattr(ref2d, "WINDOW_CELLS", rows * sol.grid.n_zeta)
        return ref2d.rhs2d(sol, p, theta), ref2d.strip_processes(sol.grid)


@pytest.fixture
def fresh_strip_worker():
    """Stop this process's strip worker before and after the test, so the
    test's worker is forked after its patches and none outlives them."""
    _strip.stop()
    yield
    _strip.stop()


class TestStripWorker:
    @pytest.mark.parametrize("n_y, boundary, rows", [
        (24, "outflow", 5),          # 5 windows: 2 here, 3 in the worker
        (23, "periodic", 5),
        (21, "outflow", 4),          # 6 windows
        (16, "periodic", 8),         # 2 windows
        (9, "outflow", 3),           # 3 windows
    ])
    def test_split_matches_one_process_bitwise(self, monkeypatch, n_y, boundary, rows):
        sol, p = varied_solution(n_y, boundary)
        one, n_one = rhs_in_processes(monkeypatch, sol, p, 1.3, rows, 1)
        split, n_split = rhs_in_processes(monkeypatch, sol, p, 1.3, rows, 2)
        assert (n_one, n_split) == (1, 2)
        assert _strip._worker is not None and _strip._worker.shape == (n_y, 8)
        assert_same_rhs(split, one)
        assert component_first(split.dudt)
        # the same numbers as one window over the whole strip
        assert_same_rhs(split, rhs_in_processes(monkeypatch, sol, p, 1.3, n_y, 2)[0])

    def test_worker_code_loaded_by_the_first_split_only(self):
        # a process that never splits a strip neither loads nor compiles it
        script = ("import sys\n"
                  "from mrswm import cli, experiments, ref2d\n"
                  "assert 'mrswm._strip' not in sys.modules\n"
                  "assert 'mmap' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=str(Path(ref2d.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_one_window_runs_in_one_process(self, monkeypatch):
        sol, p = varied_solution()
        assert rhs_in_processes(monkeypatch, sol, p, 1.3, sol.grid.n_y, 2)[1] == 1

    def test_worker_reads_settings_from_each_job(self, monkeypatch):
        # a worker forked at one window size, gravity and floor runs the
        # next call's: each job carries them
        sol, p = varied_solution(24, "outflow")
        rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)
        worker = _strip._worker
        p2 = RefParams(g=2.5, coriolis=lambda y: 1.0 + y, h_min=1e-6)
        for rows in (3, 7):
            split = rhs_in_processes(monkeypatch, sol, p2, 1.7, rows, 2)[0]
            assert _strip._worker is worker
            assert_same_rhs(split, rhs_in_processes(monkeypatch, sol, p2, 1.7, rows, 1)[0])

    @pytest.mark.parametrize("boundary", ["outflow", "periodic"])
    def test_run2d_split_matches_one_process(self, monkeypatch, boundary):
        sol, p = varied_solution(20, boundary)
        finals = []
        for shares in (1, 2):
            with monkeypatch.context() as m:
                m.setattr(model1d, "spectrum_shares", shares)
                m.setattr(ref2d, "WINDOW_CELLS", 6 * sol.grid.n_zeta)
                out, stats = ref2d.run2d(sol, p, 0.1)
            finals.append((out.U.tobytes(), out.B.tobytes(), out.time, stats.n_steps,
                           stats.max_div_residual))
        assert finals[0] == finals[1] and finals[0][3] > 1

    def test_error_in_a_worker_window_reaches_the_caller(self, monkeypatch,
                                                        fresh_strip_worker):
        body = ref2d._rhs_rows

        def fails_at_the_top(*args):
            if args[3][1]:                        # the window at the end of the strip
                raise DryStateError("no water in the top window")
            return body(*args)

        sol, p = varied_solution(24, "outflow")
        monkeypatch.setattr(ref2d, "_rhs_rows", fails_at_the_top)
        with pytest.raises(DryStateError, match="^no water in the top window$"):
            rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)
        # the worker answered, and serves the next call
        assert _strip._worker is not None
        monkeypatch.setattr(ref2d, "_rhs_rows", body)
        with pytest.raises(DryStateError, match="^no water in the top window$"):
            rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)

    def test_error_in_a_caller_window_keeps_the_worker_in_step(self, monkeypatch,
                                                              fresh_strip_worker):
        body = ref2d._rhs_rows

        def fails_at_the_bottom(*args):
            if args[3][0]:                        # the window at the start of the strip
                raise ValueError("bottom window")
            return body(*args)

        sol, p = varied_solution(24, "outflow")
        expected = rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 1)[0]
        with monkeypatch.context() as m:
            m.setattr(ref2d, "_rhs_rows", fails_at_the_bottom)
            with pytest.raises(ValueError, match="^bottom window$"):
                rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)
        worker = _strip._worker
        assert_same_rhs(rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)[0], expected)
        assert _strip._worker is worker

    def test_dead_worker_is_replaced(self, monkeypatch, fresh_strip_worker):
        sol, p = varied_solution(24, "outflow")
        expected = rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)[0]
        pid = _strip._worker.pid
        os.kill(pid, signal.SIGKILL)
        with pytest.raises((EOFError, BrokenPipeError)):
            rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)
        assert _strip._worker is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)       # reaped
        assert_same_rhs(rhs_in_processes(monkeypatch, sol, p, 1.3, 5, 2)[0], expected)


class TestLayout:
    def test_solution_stores_components_first(self):
        grid = Grid2D(-1.0, 1.0, 6, 4)
        U = np.arange(6 * 4 * 5, dtype=float).reshape(6, 4, 5)
        U[..., 0] = 1.0 + np.arange(6)[:, None]              # one depth per row
        sol = Solution2D(grid, U, np.zeros((6, 4)))
        assert sol.U.shape == (6, 4, 5) and component_first(sol.U)
        np.testing.assert_array_equal(sol.U, U)
        assert not np.shares_memory(sol.U, U)
        again = Solution2D(grid, sol.U, sol.B)
        assert component_first(again.U) and np.shares_memory(again.U, sol.U)

    def test_solution_rejects_depth_varying_in_zeta(self):
        grid = Grid2D(-1.0, 1.0, 6, 4)
        sol = uniform_solution(grid, [1.0, 0.2, 0.0, 0.0, 0.5])
        U = sol.U.copy()
        U[4, 2, 0] = np.nextafter(1.0, 2.0)
        with pytest.raises(ValueError, match=r"depth varies in zeta in column 4 "):
            Solution2D(grid, U, sol.B)
        U[4, 2, 0] = 1.0
        U[:, :, 1] = np.arange(4.0)                          # other components may vary
        assert Solution2D(grid, U, sol.B).U[..., 0].tobytes() == sol.U[..., 0].tobytes()

    def test_rhs2d_equal_in_both_layouts(self):
        sol, p = varied_solution()
        first = ref2d.rhs2d(with_layout(sol, "first"), p, 1.3)
        last = ref2d.rhs2d(with_layout(sol, "last"), p, 1.3)
        # tobytes() reads in index order, whatever the memory order
        assert first.dudt.tobytes() == last.dudt.tobytes()
        assert first.dbdt.tobytes() == last.dbdt.tobytes()
        assert (first.max_speed_y, first.max_speed_z, first.div_residual) == \
            (last.max_speed_y, last.max_speed_z, last.div_residual)
        assert np.abs(first.dudt).max() > 0.0 and np.abs(first.dbdt).max() > 0.0

    def test_rhs2d_zeta_fluxes_stored_components_first(self, monkeypatch):
        # the zeta fluxes Hf are written through cu_flux_from_values' out=;
        # like the state, that buffer keeps its component axis outermost
        outs = []

        def spy(*args, out=None):
            outs.append(out)
            return fv1d.cu_flux_from_values(*args, out=out)

        monkeypatch.setattr(ref2d, "cu_flux_from_values", spy)
        sol, p = varied_solution()
        ref2d.rhs2d(sol, p, 1.3)
        # one flux per component but the depth, (hu, hv, ha, hb)
        fluxes = [out for out in outs if out is not None and out.shape[-1] == 4]
        assert len(fluxes) == 1
        assert fluxes[0].strides[-1] == max(fluxes[0].strides)

    def test_run2d_and_lockstep_equal_in_both_layouts(self):
        sol, p = varied_solution()
        finals = [ref2d.run2d(with_layout(sol, layout), p, t_final=0.02)[0]
                  for layout in ("first", "last")]
        for f in finals:
            assert component_first(f.U)
        assert finals[0].U.tobytes() == finals[1].U.tobytes()
        assert finals[0].B.tobytes() == finals[1].B.tobytes()

        grid1 = fv1d.Grid1D(-1.0, 1.0, sol.grid.n_y, boundary="outflow")
        cells = np.zeros((grid1.n_cells, 5))
        cells[:, 0] = sol.U[:, 0, 0]
        cells[:, 2] = 0.2 * cells[:, 0]
        p1 = model1d.ModelParams(g=1.0, order=0)
        runs = [experiments.lockstep(fv1d.Solution1D(grid1, cells), p1,
                                     with_layout(sol, layout), p, 0.02, 0.45, 1.3)
                for layout in ("first", "last")]
        (c0, s0), (c1, s1) = runs
        assert c0.cells.tobytes() == c1.cells.tobytes()
        assert s0.U.tobytes() == s1.U.tobytes() and s0.B.tobytes() == s1.B.tobytes()
        assert s0.time == s1.time > 0.0

    def test_integrate_keeps_memory_order(self):
        first = in_layout(np.ones((6, 4, 5)), "first")
        last = np.ones((6, 4, 5))
        fortran = np.asfortranarray(np.ones((6, 3)))

        def rates(state, t):
            return tuple(-u for u in state), fv1d.StepDiagnostics((1.0,))

        out, _, _ = fv1d.integrate((first, last, fortran), 0.0, 0.3, rates, (1.0,),
                                   0.2, (None, None, None))
        assert component_first(out[0])
        assert out[1].flags.c_contiguous and out[2].flags.f_contiguous
        assert not any(np.shares_memory(a, b) for a, b in zip(out, (first, last, fortran)))
        np.testing.assert_allclose(out[1], np.exp(-0.3), rtol=1e-3)

    def test_path_weights_equal_in_both_layouts(self):
        rng = np.random.default_rng(5)
        shape = (30, 12, 5)
        U = rng.uniform(0.5, 1.5, shape)
        S = rng.normal(size=shape)
        S[::3, :, 0] = 0.0                     # flat cells among sloped ones
        R = U + 0.1 * rng.normal(size=shape)
        R[1::4, :, 0] = U[1::4, :, 0]          # flat jumps among sloped ones
        W = {}
        for layout in ("first", "last"):
            u, s, r = (in_layout(a, layout) for a in (U, S, R))
            W[layout] = (fv1d._cell_weights(u[..., 0], s[..., 0], u, s, 0.1),
                         fv1d._interface_weights(u[..., 0], r[..., 0], u, r))
        for a, b in zip(W["first"], W["last"]):
            assert component_first(a) and b.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
        # flat cells get the flat-depth value chi / h * dx, to rounding in
        # the last bit; sloped cells differ from it
        flat_cell = U / U[..., :1] * 0.1
        assert not np.allclose(W["last"][0], flat_cell)
        np.testing.assert_allclose(W["last"][0][::3], flat_cell[::3],
                                   rtol=2.0 * np.finfo(float).eps, atol=0.0)


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
