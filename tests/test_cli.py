"""Configuration validation, CLI subcommands, exit codes, determinism."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrswm import cli
from mrswm.errors import ConfigError
from mrswm.io import file_sha256

#: The ``environment`` every command's manifest records.
ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__}


def bundled_openblas():
    """File name of the OpenBLAS bundled with numpy, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return next((lib.name for lib in sorted(libs.glob("*openblas*"))), None)


#: What a solver run's manifest adds: the BLAS library and the thread
#: count a march runs it with.
SOLVER_ENVIRONMENT = {**ENVIRONMENT, "blas": bundled_openblas(),
                      "blas_threads": 1 if bundled_openblas() else None}

SRC = Path(cli.__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this tree's package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_no_scipy():
    # projection uses the closure's own Gauss rule: no scipy on import
    proc = run_python("-c", "import sys, mrswm, mrswm.cli, mrswm.experiments; "
                      "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestParseConfig:
    def test_defaults_for_compare(self):
        cfg = cli.parse_config("", mode="compare",
                               overrides=["example=2", "case=linear"])
        assert cfg.nu == 0.45
        assert cfg.theta == 1.3
        assert cfg.g == 1.0
        assert cfg.example == 2 and cfg.case == "linear"

    def test_cfl_bound_rejected(self):
        with pytest.raises(ConfigError, match="nu"):
            cli.parse_config("", mode="run-moment",
                             overrides=["example=1", "case=linear", "nu=0.6"])

    def test_negative_order_rejected(self):
        with pytest.raises(ConfigError, match="order"):
            cli.parse_config("", mode="run-moment",
                             overrides=["example=1", "case=linear", "order=-1"])

    def test_order_cap_rejected(self):
        with pytest.raises(ConfigError, match="order"):
            cli.parse_config("", mode="tensors", overrides=["order=13"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wibble"):
            cli.parse_config("", mode="tensors", overrides=["wibble=1"])

    def test_json_file_contents(self):
        text = json.dumps({"example": 2, "case": "quadratic",
                           "orders": [0, 1], "theta": 1.5})
        cfg = cli.parse_config(text, mode="compare")
        assert cfg.orders == [0, 1]
        assert cfg.theta == 1.5

    def test_orders_comma_list(self):
        cfg = cli.parse_config("", mode="compare",
                               overrides=["example=2", "case=linear",
                                          "orders=0,1,2,3"])
        assert cfg.orders == [0, 1, 2, 3]

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            cli.parse_config("{not json", mode="tensors")

    def test_missing_example_rejected(self):
        with pytest.raises(ConfigError, match="example"):
            cli.parse_config("", mode="run-moment")

    def test_theta_range(self):
        with pytest.raises(ConfigError, match="theta"):
            cli.parse_config("", mode="tensors", overrides=["theta=2.5"])

    @pytest.mark.parametrize("token", [
        "orders=0,x", "snapshot_times=abc", 'nu="fast"', "nu=true",
        "n_cells=2.5", "orders=[0.5]",
    ])
    def test_malformed_value_rejected(self, token, tmp_path, capsys):
        key = token.partition("=")[0]
        settings = ["example=1", "case=linear", token]
        with pytest.raises(ConfigError, match=key):
            cli.parse_config("", mode="compare", overrides=settings)
        rc = cli.main(["compare", *settings, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and key in err["message"]

    def test_json_values_coerced_to_field_types(self):
        text = json.dumps({"example": 2.0, "case": "linear", "orders": [0, 1.0],
                           "snapshot_times": [1], "final_time": 1, "n_cells": None})
        cfg = cli.parse_config(text, mode="compare")
        assert cfg.example == 2 and type(cfg.example) is int
        assert cfg.orders == [0, 1] and all(type(m) is int for m in cfg.orders)
        assert cfg.snapshot_times == [1.0] and type(cfg.snapshot_times[0]) is float
        assert cfg.final_time == 1.0 and type(cfg.final_time) is float
        assert cfg.n_cells is None
        with pytest.raises(ConfigError, match="case"):
            cli.parse_config(json.dumps({"example": 2, "case": 3}), mode="compare")


class TestTensorsCommand:
    def test_csv_output(self, tmp_path):
        rc = cli.main(["tensors", "--order", "3", "--format", "csv",
                       "--out", str(tmp_path)])
        assert rc == 0
        a = (tmp_path / "tensor_A.csv").read_text().strip().split("\n")
        assert a[0] == "i,l,n,value"
        assert len(a) == 1 + 27
        gamma = (tmp_path / "tensor_Gamma.csv").read_text().strip().split("\n")
        assert len(gamma) == 1 + 9
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["mode"] == "tensors"
        assert len(manifest["artifacts"]) == 4
        assert manifest["environment"] == ENVIRONMENT

    def test_json_output(self, tmp_path):
        rc = cli.main(["tensors", "order=2", "format=json", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "tensors.json").read_text())
        assert payload["order"] == 2
        assert float(payload["Gamma"][0][0]) == pytest.approx(1.0, abs=1e-14)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = cli.main(["tensors", "order=-2", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"


class TestRunCommands:
    def test_run_moment_and_determinism(self, tmp_path):
        argv = ["run-moment", "example=1", "case=linear", "order=1",
                "n_cells=32", "final_time=0.05"]
        rc = cli.main(argv + ["--out", str(tmp_path / "a")])
        assert rc == 0
        rc = cli.main(argv + ["--out", str(tmp_path / "b")])
        assert rc == 0
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["artifacts"] == mb["artifacts"]
        assert ma["n_steps"]["moment"] > 0

    def test_manifest_records_resolved_settings(self, tmp_path):
        # Example 1 runs at theta = 1 whatever the configuration asks
        rc = cli.main(["run-moment", "example=1", "case=linear", "order=0",
                       "n_cells=16", "final_time=0.01", "theta=1.5",
                       "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["theta"] == 1.5
        assert manifest["resolved"] == {"theta": 1.0, "n_cells": 16,
                                        "n_zeta": 100, "t_final": 0.01,
                                        "tol_im": 0.1}
        # 34 order-0 states are too few to split
        assert manifest["environment"] == {**SOLVER_ENVIRONMENT, "spectrum_shares": 1}

    def test_manifest_records_blas_and_spectrum_shares(self, tmp_path):
        # at M=3, 200 cells give 402 states per batch: one share per usable CPU
        rc = cli.main(["run-moment", "example=2", "case=linear", "order=3",
                       "final_time=0.002", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cpus = len(os.sched_getaffinity(0))
        assert manifest["environment"] == {**SOLVER_ENVIRONMENT, "spectrum_shares": cpus}

    def test_manifest_records_strip_processes(self, tmp_path):
        # a 200 x 100 strip is two windows: two processes given two CPUs
        rc = cli.main(["run-reference", "example=2", "case=linear",
                       "final_time=0.001", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cpus = len(os.sched_getaffinity(0))
        assert manifest["environment"] == {**SOLVER_ENVIRONMENT,
                                           "strip_processes": 2 if cpus > 1 else 1}

    def test_run_moment_snapshot_header(self, tmp_path):
        rc = cli.main(["run-moment", "example=2", "case=linear", "order=1",
                       "n_cells=16", "final_time=0.01", "--out", str(tmp_path)])
        assert rc == 0
        snap = next(tmp_path.glob("example2/linear/M1/snapshot_*.csv"))
        header = snap.read_text().split("\n", 1)[0]
        assert header == ("y,h,hu_m,hv_m,ha_m,hb_m,"
                          "h_alpha_1,h_beta_1,h_gamma_1,h_eta_1")

    def test_run_reference(self, tmp_path):
        rc = cli.main(["run-reference", "example=1", "case=constant",
                       "n_cells=16", "n_zeta=8", "final_time=0.01",
                       "--out", str(tmp_path)])
        assert rc == 0
        da = next(tmp_path.glob("example1/constant/reference/depth_averaged_*.csv"))
        assert da.read_text().split("\n", 1)[0] == "y,h,u_m,v_m,a_m,b_m"
        snap = next(tmp_path.glob("example1/constant/reference/snapshot_*.csv"))
        assert snap.read_text().split("\n", 1)[0] == "y,zeta,h,u,v,a,b"

    def test_compare_errors_csv(self, tmp_path):
        rc = cli.main(["compare", "example=2", "case=quadratic",
                       "orders=0,1", "n_cells=24", "n_zeta=8",
                       "final_time=0.02", "--out", str(tmp_path)])
        assert rc == 0
        errors = (tmp_path / "example2/quadratic/errors.csv").read_text().strip()
        lines = errors.split("\n")
        assert lines[0] == "M,var,l1"
        assert len(lines) == 1 + 2 * 5   # two orders, five mean fields
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cpus = len(os.sched_getaffinity(0))
        # every worker takes its spectra in one share and its reference
        # windows in one process
        assert manifest["environment"] == {**SOLVER_ENVIRONMENT, "usable_cpus": cpus,
                                           "workers": min(3, cpus),
                                           "spectrum_shares": 1, "strip_processes": 1}

    def test_compare_manifest_records_job_cost(self, tmp_path):
        rc = cli.main(["compare", "example=2", "case=linear", "orders=0,2",
                       "n_cells=24", "n_zeta=8", "final_time=0.05",
                       "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cost = dict(manifest["job_cost"])
        # the jobs ran at once in worker processes sharing the CPUs
        assert cost.pop("jobs_shared_cpus") is True
        assert set(cost) == {"reference", "M0", "M2"} == set(manifest["n_steps"])
        for job, entry in cost.items():
            assert set(entry) == {"solve_s", "steps", "ms_per_step"}
            assert entry["steps"] == manifest["n_steps"][job] > 0
            assert 0.0 < entry["solve_s"] < manifest["wall_time_s"]
            assert entry["ms_per_step"] == pytest.approx(
                1e3 * entry["solve_s"] / entry["steps"], rel=1e-12)

    def test_custom_initial_conditions(self, tmp_path):
        rc = cli.main(["run-moment", "ic_h=1.0+0.1*exp(-y**2)", "ic_v=0.25",
                       "order=0", "n_cells=16", "final_time=0.01",
                       "y_min=-2", "y_max=2", "--out", str(tmp_path)])
        assert rc == 0
        snap = next(tmp_path.glob("example0/custom/M0/snapshot_*.csv"))
        assert snap.exists()

    def test_hyperbolicity_abort_exit_code(self, tmp_path, capsys):
        # strong mean field with a strong velocity profile sits where the
        # Jacobian spectrum is genuinely complex -> exit 4, in both commands
        # that run the moment solver
        ic = ["ic_h=1.0", "ic_hb=2.0", "ic_v=4.47213595*(1.0-2.0*zeta)",
              "n_cells=16", "final_time=0.2", "tol_im=0.001"]
        for argv in (["run-moment", "order=1"], ["compare", "orders=1", "n_zeta=8"]):
            out = tmp_path / argv[0]
            rc = cli.main(argv + ic + ["--out", str(out)])
            assert rc == 4, argv[0]
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1, argv[0]    # one JSON line, workers or not
            err = json.loads(lines[0])
            assert err["error"] == "hyperbolicity"
            assert err["ratio"] > 1e-3, argv[0]
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("mode", ["run-moment", "run-reference", "compare"])
    def test_example_domain_rejected(self, mode, tmp_path, capsys):
        # an example runs on its own domain: y_min/y_max were ignored before
        rc = cli.main([mode, "example=2", "case=linear", "n_cells=16", "n_zeta=4",
                       "y_min=-3", "y_max=3", "final_time=0.01",
                       "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "y_min" in err["message"]
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    @pytest.mark.parametrize("mode", ["run-moment", "run-reference"])
    def test_snapshot_after_final_time_rejected(self, mode, tmp_path, capsys):
        # a later snapshot used to extend the run past the resolved t_final
        rc = cli.main([mode, "example=2", "case=linear", "n_cells=16", "n_zeta=4",
                       "snapshot_times=0.005,0.05", "final_time=0.01",
                       "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "snapshot_times" in err["message"]
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    @pytest.mark.parametrize("mode", ["run-moment", "run-reference", "compare"])
    def test_empty_domain_rejected(self, mode, tmp_path, capsys):
        rc = cli.main([mode, "ic_h=1.0", "y_min=1", "y_max=1", "n_cells=8",
                       "n_zeta=4", "final_time=0.01", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "y_min" in err["message"]
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_domain_without_profile_slice_rejected_before_run(self, tmp_path, capsys):
        # custom runs take their profile at y = 0: a domain without it is
        # a configuration error before any step, not a failure after the run
        domain = ["ic_h=1.0", "y_min=1", "y_max=3", "n_cells=8", "n_zeta=4",
                  "final_time=0.01"]
        for mode in ("run-reference", "compare"):
            rc = cli.main([mode, *domain, "--out", str(tmp_path / mode)])
            assert rc == 2, mode
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "config" and "y = 0" in err["message"]
            assert not (tmp_path / mode).exists()
        # the moment run writes no profile, so it runs there
        rc = cli.main(["run-moment", *domain, "--out", str(tmp_path / "moment")])
        assert rc == 0
        assert (tmp_path / "moment" / "manifest.json").exists()

    def test_one_writer_for_every_command(self, tmp_path):
        # run-reference and compare write the same reference artifacts, and
        # run-moment and compare the same moment snapshot, byte for byte
        case = ["example=2", "case=linear", "n_cells=16", "n_zeta=8",
                "final_time=0.01"]
        runs = {"run-reference": [], "run-moment": ["order=1"],
                "compare": ["orders=1"]}
        for mode, extra in runs.items():
            assert cli.main([mode, *case, *extra, "--out", str(tmp_path / mode)]) == 0
        tree = {mode: json.loads((tmp_path / mode / "manifest.json").read_text())
                ["artifacts"] for mode in runs}
        reference = {k: v for k, v in tree["compare"].items() if "/reference/" in k}
        assert sorted(reference) == [
            "example2/linear/reference/depth_averaged_t0.01.csv",
            "example2/linear/reference/profiles_y-0.4.csv",
            "example2/linear/reference/snapshot_t0.01.csv"]
        assert tree["run-reference"] == reference
        assert tree["run-moment"] == {
            "example2/linear/M1/snapshot_t0.01.csv":
                tree["compare"]["example2/linear/M1/snapshot_t0.01.csv"]}
        for mode in runs:
            for rel, digest in tree[mode].items():
                assert file_sha256(tmp_path / mode / rel) == digest
        manifest = json.loads((tmp_path / "run-reference" / "manifest.json").read_text())
        # a 16 x 8 strip is one window
        assert manifest["environment"] == {**SOLVER_ENVIRONMENT, "strip_processes": 1}

    def test_failing_order_is_one_json_line(self, tmp_path):
        # in a fresh process: pytest's logging plugin would take the
        # package's "moment run failed" record before stderr saw it
        proc = run_python("-m", "mrswm.cli", "compare", "orders=1", "ic_h=1.0",
                          "ic_hb=2.0", "ic_v=4.47213595*(1.0-2.0*zeta)",
                          "n_cells=16", "n_zeta=8", "final_time=0.2",
                          "tol_im=0.001", "--out", str(tmp_path))
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "hyperbolicity" and err["order"] == 1


    def test_dry_state_exit_code(self, tmp_path, capsys):
        # a shallow layer whose Coriolis-driven flow leaves the outflow
        # edges dries out -> exit 3, naming the depth, cell and time
        rc = cli.main(["run-moment", "ic_h=0.01", "ic_u=-5*y", "f=10",
                       "boundary=outflow", "order=0", "n_cells=40",
                       "final_time=1", "--out", str(tmp_path)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "solver"
        assert "depth" in err["message"] and "flat cell index" in err["message"]
        assert err["message"].endswith("at t=0.225")


#: Expressions of the CLI tests above, evaluated as Python evaluated them.
VALID_EXPRESSIONS = ("1.0+0.1*exp(-y**2)", "0.25", "2.0", "1.0",
                     "4.47213595*(1.0-2.0*zeta)")


class TestExpressions:
    @pytest.mark.parametrize("expr", VALID_EXPRESSIONS)
    def test_same_values_as_python(self, expr):
        y = np.linspace(-2.0, 2.0, 17)[:, None]
        zeta = np.linspace(0.0, 1.0, 5)[None, :]
        names = dict(cli._EXPR_NAMES, y=y, zeta=zeta)
        want = np.broadcast_to(eval(expr, {"__builtins__": {}}, names),
                               (17, 5))
        got = cli._expr_field(expr, "ic_h")(y, zeta)
        assert got.tobytes() == np.ascontiguousarray(want, dtype=float).tobytes()

    def test_functions_constants_and_comparisons(self):
        f = cli._expr_field("where(y > 0, maximum(y, pi), -abs(zeta) % 2)", "ic_u")
        np.testing.assert_array_equal(f(np.array([-1.0, 1.0, 4.0]), 0.5),
                                      [1.5, np.pi, 4.0])

    @pytest.mark.parametrize("expr", [
        "().__class__.__bases__[0].__subclasses__().__len__() + 0*y",
        "y.real",
        "__import__('os')",
        "sin(y, y)",
        "exp(y=1)",
        "[y]",
        "'y'",
        "open",
    ])
    def test_rejected(self, expr, tmp_path, capsys):
        with pytest.raises(ConfigError, match="ic_h"):
            cli.parse_config("", mode="run-moment", overrides=[f"ic_h={expr}"])
        rc = cli.main(["run-moment", f"ic_h={expr}", "n_cells=8",
                       "final_time=0.01", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_overflow_is_config_error(self, tmp_path, capsys):
        # numbers are floats, so a tower of powers overflows instead of
        # building an unbounded integer
        rc = cli.main(["run-moment", "ic_h=1.0", "ic_v=9**9**9", "n_cells=8",
                       "final_time=0.01", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "ic_v" in err["message"]


class TestScanCommand:
    def test_scan_writes_csv(self, tmp_path):
        rc = cli.main(["hyperbolicity-scan", "resolution=5",
                       "b_min=-2", "b_max=2", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "hyperbolicity_scan.csv").read_text().strip().split("\n")
        assert lines[0] == "b_m,beta_tilde,eta_tilde,hyperbolic,max_im_ratio"
        assert len(lines) == 1 + 125
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["environment"] == ENVIRONMENT
