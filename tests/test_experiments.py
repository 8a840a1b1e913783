"""Benchmark definitions, error metric, and short-horizon invariants."""

import ctypes
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mrswm import cli, experiments as ex
from mrswm import fv1d, model1d, ref2d
from mrswm.errors import HyperbolicityError


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if unreadable."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return None


def build_example(example, case, order, n_cells, n_zeta):
    """Spec of the example at the given grid sizes, with its initial
    moment and reference states."""
    spec = replace(ex.make_spec(example, case), n_cells=n_cells, n_zeta=n_zeta)
    return (spec, ex.initial_moment_solution(spec, order),
            ex.initial_reference_solution(spec))


class TestBuildExample:
    def test_example1_height_value(self):
        spec, sol, ref = build_example(1, "constant", 0, n_cells=200, n_zeta=8)
        y = sol.grid.centers()
        j = np.argmin(np.abs(y - (-0.5 + 0.5 * sol.grid.dy)))  # midpoint sample
        expected = 1.0 + np.exp(3.0 * np.cos(np.pi * (y[j] + 0.5)) - 4.0)
        assert sol.cells[j, 0] == pytest.approx(expected, rel=1e-14)
        # the analytic value at y = -0.5 for reference
        assert ex.make_spec(1, "constant").height(-0.5) == pytest.approx(
            1.0 + np.exp(-1.0), rel=1e-12)

    def test_example1_profile_moments(self):
        for case, idx in [("linear", 1), ("quadratic", 2), ("cubic", 3)]:
            spec, sol, _ = build_example(1, case, 3, n_cells=16, n_zeta=8)
            h = sol.cells[:, 0]
            np.testing.assert_allclose(sol.cells[:, 2] / h, 0.25, atol=1e-13)
            for i in range(1, 4):
                beta_i = sol.cells[:, model1d.moment_index(i, model1d.BETA)] / h
                expected = -0.25 if i == idx else 0.0
                np.testing.assert_allclose(beta_i, expected, atol=1e-12)
            # no magnetic field anywhere in example 1
            np.testing.assert_allclose(sol.cells[:, 4], 0.0, atol=1e-15)

    def test_example2_magnetic_initialization(self):
        spec, sol, ref = build_example(2, "linear", 2, n_cells=16, n_zeta=12)
        np.testing.assert_allclose(sol.cells[:, 4], 1.1, atol=1e-14)
        eta1 = sol.cells[:, model1d.moment_index(1, model1d.ETA)]
        np.testing.assert_allclose(eta1, -0.25, atol=1e-13)
        # reference field: hb at midpoints equals 1.1 - phi_1/4
        z = ref.grid.zeta_centers()
        np.testing.assert_allclose(ref.U[0, :, 4], 1.1 - 0.25 * (1 - 2 * z),
                                   atol=1e-14)

    def test_example3_setup(self):
        spec, sol, ref = build_example(3, "sinusoid", 3, n_cells=64, n_zeta=8)
        assert spec.f_const == 1.0
        assert (spec.y_min, spec.y_max) == (-20.0, 20.0)
        assert spec.boundary == "outflow"
        h = sol.cells[:, 0]
        np.testing.assert_allclose(h, 1.0)
        beta = [sol.cells[:, model1d.moment_index(i, model1d.BETA)]
                for i in (1, 2, 3)]
        np.testing.assert_allclose(beta[0], 3.0 / (4.0 * np.pi), atol=1e-12)
        np.testing.assert_allclose(beta[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(
            beta[2], 7.0 * (np.pi ** 2 - 15.0) / (4.0 * np.pi ** 3), atol=1e-12)
        np.testing.assert_allclose(sol.cells[:, 4], 0.1, atol=1e-15)

    def test_example4_velocity_amplitude(self):
        spec = ex.make_spec(4, "sinusoid")
        u0 = spec.u_field(0.0, 0.0)
        assert u0 == pytest.approx(1.1, rel=1e-12)
        assert spec.hb_profile(0.3) == pytest.approx(1.1)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            ex.make_spec(1, "quartic")
        with pytest.raises(ValueError):
            ex.make_spec(5, "constant")


class TestL1Error:
    def test_identical_fields(self):
        a = np.linspace(0, 1, 11)
        assert ex.l1_error(a, a, 0.1) == 0.0

    def test_constant_offset(self):
        a = np.zeros(50)
        b = a + 0.3
        # 50 cells of width dy: error = 0.3 * 50 * dy = 0.3 * |domain|
        assert ex.l1_error(a, b, 0.04) == pytest.approx(0.3 * 2.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 30))
        e1 = ex.l1_error(a, b, 0.1)
        e2 = ex.l1_error(3.0 * a, 3.0 * b, 0.1)
        assert e2 == pytest.approx(3.0 * e1, rel=1e-13)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            ex.l1_error(np.zeros(4), np.zeros(5), 0.1)


class TestShortRunInvariants:
    def test_example1_constant_case_order_independent(self):
        # zero moments stay zero, so every order gives the same trajectory
        spec = ex.make_spec(1, "constant")
        spec.n_cells = 48
        t_final = 0.1
        results = {}
        for m in (0, 1, 2):
            p = ex.model_params(spec, m)
            s0 = ex.initial_moment_solution(spec, m)
            sol, _ = fv1d.run(s0, p, t_final, nu=spec.nu, theta=spec.theta)
            results[m] = sol.cells
        for m in (1, 2):
            np.testing.assert_allclose(results[m][:, :5], results[0],
                                       atol=1e-12)
            np.testing.assert_allclose(results[m][:, 5:], 0.0, atol=1e-13)

    def test_example1_magnetic_stays_zero(self):
        spec = ex.make_spec(1, "linear")
        spec.n_cells = 48
        p = ex.model_params(spec, 1)
        s0 = ex.initial_moment_solution(spec, 1)
        sol, _ = fv1d.run(s0, p, 0.15, nu=spec.nu, theta=spec.theta)
        mag = [3, 4, model1d.moment_index(1, model1d.GAMMA),
               model1d.moment_index(1, model1d.ETA)]
        assert np.abs(sol.cells[:, mag]).max() <= 1e-13

    def test_example2_quadratic_parity(self):
        # symmetric profile: odd moments remain zero for all time
        spec = ex.make_spec(2, "quadratic")
        spec.n_cells = 48
        p = ex.model_params(spec, 3)
        s0 = ex.initial_moment_solution(spec, 3)
        sol, _ = fv1d.run(s0, p, 0.15, nu=spec.nu, theta=spec.theta)
        odd = [model1d.moment_index(i, c) for i in (1, 3)
               for c in (model1d.ALPHA, model1d.BETA, model1d.GAMMA, model1d.ETA)]
        assert np.abs(sol.cells[:, odd]).max() <= 1e-12


class TestComparisonHarness:
    def test_small_comparison_outputs(self, tmp_path):
        spec = ex.make_spec(2, "linear")
        spec.n_cells = 24
        spec.n_zeta = 8
        spec.t_final = 0.05
        result = ex.run_comparison(spec, [0, 1])
        ex.write_comparison_outputs(result, tmp_path)
        base = tmp_path / "example2" / "linear"
        assert (base / "errors.csv").exists()
        assert (base / "M0" / "snapshot_t0.05.csv").exists()
        assert (base / "reference" / "profiles_y-0.4.csv").exists()
        for m in (0, 1):
            assert result.errors[m]["h"] >= 0.0

    def test_comparison_deterministic(self, tmp_path):
        from mrswm.io import file_sha256
        spec = ex.make_spec(2, "linear")
        spec.n_cells = 16
        spec.n_zeta = 8
        spec.t_final = 0.02
        files = {}
        for tag in ("a", "b"):
            ex.write_comparison_outputs(ex.run_comparison(spec, [0]), tmp_path / tag)
            root = tmp_path / tag
            files[tag] = {p.relative_to(root): file_sha256(p)
                          for p in sorted(root.rglob("*.csv"))}
        assert files["a"] == files["b"]

    def test_pool_matches_serial_runs(self):
        # the worker pool returns exactly what the solvers return in-process
        spec = replace(ex.make_spec(2, "linear"), n_cells=32, n_zeta=8, t_final=0.05)
        result = ex.run_comparison(spec, [0, 1, 2, 3])
        reference, ref_stats = ref2d.run2d(ex.initial_reference_solution(spec),
                                           ex.ref_params(spec), spec.t_final,
                                           nu=spec.nu, theta=spec.theta)
        assert np.moveaxis(result.reference.U, -1, 0).flags.c_contiguous
        np.testing.assert_array_equal(result.reference.U, reference.U)
        np.testing.assert_array_equal(result.reference.B, reference.B)
        assert result.reference.time == reference.time
        assert result.ref_stats.n_steps == ref_stats.n_steps
        ref_means = ex.reference_mean_fields(reference)
        assert list(result.errors) == list(result.moment_runs) == [0, 1, 2, 3]
        for m in range(4):
            sol, stats = fv1d.run(ex.initial_moment_solution(spec, m),
                                  ex.model_params(spec, m), spec.t_final,
                                  nu=spec.nu, theta=spec.theta)
            np.testing.assert_array_equal(result.moment_runs[m].cells, sol.cells)
            assert result.moment_runs[m].time == sol.time
            assert result.moment_stats[m].n_steps == stats.n_steps
            mean = ex.moment_mean_fields(sol)
            assert result.errors[m] == {
                var: ex.l1_error(mean[var], ref_means[var], sol.grid.dy)
                for var in ex.MEAN_FIELDS}

    def test_failing_order_raises_its_error(self, caplog):
        # the custom state of the CLI's hyperbolicity test, M = 1 aborts
        cfg = cli.parse_config("", "compare", [
            "ic_h=1.0", "ic_hb=2.0", "ic_v=4.47213595*(1.0-2.0*zeta)",
            "n_cells=16", "n_zeta=8", "final_time=0.2", "tol_im=1e-3"])
        spec = cli._spec_from_config(cfg)
        with pytest.raises(HyperbolicityError) as info:
            ex.run_comparison(spec, [0, 1])
        assert info.value.ratio > 1e-3
        iface, side = info.value.location
        assert 0 <= iface <= 16 and side in ("left", "right")
        assert info.value.time is not None
        assert "moment run failed at order M=1" in caplog.text

    def test_hyperbolicity_error_pickles_with_its_fields(self):
        exc = HyperbolicityError("ratio too large at t=0.1", 0.25, (3, "left"), 0.1)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is HyperbolicityError and str(back) == str(exc)
        assert (back.ratio, back.location, back.time) == (0.25, (3, "left"), 0.1)

    def test_blas_pin_stays_in_the_workers(self):
        spec = replace(ex.make_spec(2, "linear"), n_cells=16, n_zeta=4, t_final=0.01)
        before = blas_threads()
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                                   initializer=ex._init_worker, initargs=(spec,))
        with pool:
            assert pool.submit(blas_threads).result(timeout=60) in (None, 1)
        ex.run_comparison(spec, [0])
        assert blas_threads() == before

    def test_profile_column_rule_shared(self):
        # moment and reference profiles read the same column, a boundary
        # point goes to the lower cell, and both reject y0 off the domain
        spec, sol, ref = build_example(2, "constant", 0, n_cells=10, n_zeta=4)
        zeta = ref.grid.zeta_centers()
        sol.cells[:, model1d.HV] = np.arange(10.0) * sol.cells[:, model1d.H]
        for y0, j in ((-1.0, 0), (-0.6, 1), (-0.55, 2), (1.0, 9)):
            assert ref2d.profile_slice(ref, y0)[0] == j
            v, _ = ex.moment_profiles(sol, 0, y0, zeta)
            np.testing.assert_allclose(v - v.mean(), 0.0, atol=1e-12)
            assert v.mean() == pytest.approx(j, abs=1e-12)
        for y0 in (-1.5, 1.5):
            with pytest.raises(ValueError, match="outside"):
                ref2d.profile_slice(ref, y0)
            with pytest.raises(ValueError, match="outside"):
                ex.moment_profiles(sol, 0, y0, zeta)

    def test_spec_tol_im_reaches_model_params(self):
        spec = replace(ex.make_spec(2, "linear"), tol_im=1e-3)
        assert ex.model_params(spec, 1).tol_im == 1e-3
        assert ex.model_params(ex.make_spec(2, "linear"), 1).tol_im == 0.1

    def test_lockstep_cross_check_small(self):
        spec = ex.make_spec(1, "constant")
        errs = ex.lockstep_cross_check(spec, t_final=0.1, n_cells=32, n_zeta=8)
        assert errs["h"] <= 1e-8
        assert errs["v_m"] <= 1e-8


class TestGeostrophicCases:
    def test_example3_m2_initial_state_not_hyperbolic(self):
        # the sinusoidal profile puts the second-order closure outside the
        # hyperbolic region from the start; first and third order are clean
        spec = ex.make_spec(3, "sinusoid")
        ratios = {}
        for m in (1, 2, 3):
            p = ex.model_params(spec, m)
            s0 = ex.initial_moment_solution(spec, m)
            lam = model1d.eigenvalues(s0.cells, p)
            im = np.abs(lam.imag).max(-1)
            re = np.maximum(np.abs(lam.real).max(-1), 1e-14)
            ratios[m] = float((im / re).max())
        assert ratios[1] <= 1e-10
        assert ratios[3] <= 1e-10
        assert ratios[2] > 1e-3

    def test_example4_short_run_stable(self):
        spec = ex.make_spec(4, "sinusoid")
        spec.n_cells = 80
        p = ex.model_params(spec, 1)
        s0 = ex.initial_moment_solution(spec, 1)
        sol, stats = fv1d.run(s0, p, 0.3, nu=spec.nu, theta=spec.theta)
        assert np.all(np.isfinite(sol.cells))
        assert np.all(sol.cells[:, 0] > 0.5)
        # Coriolis coupling spins up cross-stream momentum
        assert np.abs(sol.cells[:, 2]).max() > 1e-3

    def test_example4_reference_short_run(self):
        spec = ex.make_spec(4, "sinusoid")
        sol0 = ex.initial_reference_solution(replace(spec, n_cells=64, n_zeta=12))
        sol, stats = ref2d.run2d(sol0, ex.ref_params(spec), 0.3,
                                 nu=spec.nu, theta=spec.theta)
        assert np.all(np.isfinite(sol.U))
        assert stats.max_div_residual <= 1e-12
