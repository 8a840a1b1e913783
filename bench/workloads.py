"""The three benchmark workloads: set-up, timed solve and correctness checks.

Each workload is built from one of the paper's examples with its
deterministic initial data; nothing in it is random.  A workload's
``setup`` builds the parameters and initial states, ``solve`` is the
timed part, and ``inspect`` returns the cells x SSP-RK3 steps the solve
did together with a list of failed checks (empty when all pass).  The
checks use values the benchmark computes itself and properties the
method must have, never stored output.  ``warm_up`` runs the same code
over a few steps, untimed and unchecked, so that lazy imports and
first-call costs are paid before timing starts.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from mrswm import cli, experiments, fv1d, ref2d
from mrswm.model1d import H, HA, HB, HU, HV

#: Relative drift of conserved totals allowed; round-off is near 1e-14.
CONSERVATION_TOL = 1e-12
#: Normalised divergence residual allowed in the reference solver.
DIVERGENCE_TOL = 1e-12

#: Simulated intervals.  The moment run is the first 0.1 time units of
#: the acceptance-criterion-3 run (43 of its 665 steps); the reference
#: run takes 3 steps, long before the disturbance reaches the outflow
#: boundaries; the comparison runs to t = 0.2, where the error ordering
#: across orders is the one the paper reports.  Short solves give a run
#: many of them, so that its mean follows the machine's average speed.
MOMENT_T = 0.1
REFERENCE_T = 0.05
COMPARE_T = 0.2
COMPARE_ORDERS = (0, 1, 2, 3)
#: Simulated interval of the warm-up, a few steps of every solver.
WARM_UP_T = 0.01


def _relative(a: float, b: float, scale: float) -> float:
    return abs(a - b) / scale


class MomentEx2M3:
    """Example 2, linear case, M = 3, 200 periodic cells."""

    name = "moment-ex2-m3"
    why = "Example-2 moment run at M=3 behind criterion 3: model1d wave speeds dominate, ref2d does no work"

    def setup(self):
        spec = experiments.make_spec(2, "linear")
        spec.t_final = MOMENT_T
        return (spec, experiments.model_params(spec, 3),
                experiments.initial_moment_solution(spec, 3))

    def warm_up(self):
        state = self.setup()
        state[0].t_final = WARM_UP_T
        self.solve(state)

    def solve(self, state):
        spec, params, sol0 = state
        return fv1d.run(sol0, params, spec.t_final, nu=spec.nu, theta=spec.theta)

    def inspect(self, state, result):
        spec, _, sol0 = state
        sol, stats = result
        U0, U = sol0.cells, sol.cells
        problems = []
        if not np.all(np.isfinite(U)):
            problems.append("non-finite final state")
        scale = np.abs(U0[:, H]).sum()
        for k, label in ((H, "h"), (HU, "hu_m"), (HV, "hv_m"), (HA, "ha_m")):
            drift = _relative(U[:, k].sum(), U0[:, k].sum(), scale)
            if not drift <= CONSERVATION_TOL:
                problems.append(f"total of {label} drifted by {drift:.3e}")
        dev = float(np.abs(U[:, HB] - 1.1).max())
        if not dev <= CONSERVATION_TOL:
            problems.append(f"hb_m left 1.1 by {dev:.3e}")
        y = sol.grid.centers()
        bump = 1.0 + np.exp(3.0 * np.cos(np.pi * (y + 0.5)) - 4.0)
        mass_err = _relative(U[:, H].sum(), bump.sum(), bump.sum())
        if not mass_err <= CONSERVATION_TOL:
            problems.append(f"final mass differs from the bump's by {mass_err:.3e}")
        if abs(sol.time - spec.t_final) > 1e-12:
            problems.append(f"stopped at t={sol.time}, not {spec.t_final}")
        return sol.grid.n_cells * stats.n_steps, problems


class ReferenceEx3:
    """Example-3 vertically resolved reference, 800 x 100, outflow, Coriolis."""

    name = "reference-ex3"
    why = "Example-3 reference at 800x100 with outflow and Coriolis: ref2d and shared fv1d helpers, no model1d"

    def setup(self):
        spec = experiments.make_spec(3, "sinusoid")
        spec.t_final = REFERENCE_T
        return (spec, experiments.ref_params(spec),
                experiments.initial_reference_solution(spec))

    def warm_up(self):
        state = self.setup()
        state[0].t_final = WARM_UP_T
        self.solve(state)

    def solve(self, state):
        spec, params, sol0 = state
        return ref2d.run2d(sol0, params, spec.t_final, nu=spec.nu,
                           theta=spec.theta)

    def inspect(self, state, result):
        spec, _, sol0 = state
        sol, stats = result
        U0, U = sol0.U, sol.U
        problems = []
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(sol.B))):
            problems.append("non-finite final state")
        if not stats.max_div_residual <= DIVERGENCE_TOL:
            problems.append(f"divergence residual {stats.max_div_residual:.3e}")
        h = U[..., 0]
        spread = float((h.max(axis=1) - h.min(axis=1)).max())
        if not spread <= CONSERVATION_TOL:
            problems.append(f"h varies in zeta by {spread:.3e}")
        # mass is conserved only while no depth change has reached the
        # outflow edges (Coriolis turns hv into hu there from the start)
        edge = float(np.abs(h[[0, -1]] - U0[[0, -1], :, 0]).max())
        if not edge <= CONSERVATION_TOL:
            problems.append(f"depth changed at the outflow edges by {edge:.3e}")
        mass_err = _relative(h.sum(), U0[..., 0].sum(), U0[..., 0].sum())
        if not mass_err <= CONSERVATION_TOL:
            problems.append(f"mass drifted by {mass_err:.3e}")
        if abs(sol.time - spec.t_final) > 1e-12:
            problems.append(f"stopped at t={sol.time}, not {spec.t_final}")
        grid = sol.grid
        return grid.n_y * grid.n_zeta * stats.n_steps, problems


class CompareEx2:
    """``mrswm compare example=2 case=linear orders=0,1,2,3`` through cli.main."""

    name = "compare-ex2"
    why = "the paper's pipeline through mrswm.cli.main: 200x100 reference, orders 0..3, CSVs and manifest"

    def __init__(self, out_root: Path):
        self.out_root = out_root

    def setup(self):
        # what the CLI builds before its first step
        spec = experiments.make_spec(2, "linear")
        spec.t_final = COMPARE_T
        experiments.ref_params(spec)
        experiments.initial_reference_solution(spec)
        for m in COMPARE_ORDERS:
            experiments.model_params(spec, m)
            experiments.initial_moment_solution(spec, m)
        return spec

    def warm_up(self):
        spec = self.setup()
        spec.t_final = WARM_UP_T
        code, out = self.solve(spec)
        shutil.rmtree(out)
        if code != 0:
            raise RuntimeError(f"warm-up exit code {code}")

    def solve(self, spec):
        self.out_root.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="compare-", dir=self.out_root))
        argv = ["compare", f"example={spec.example}", f"case={spec.case}",
                "orders=" + ",".join(map(str, COMPARE_ORDERS)),
                f"final_time={spec.t_final!r}", "--out", str(out)]
        return cli.main(argv), out

    def inspect(self, spec, result):
        code, out = result
        try:
            if code != 0:
                return 0, [f"exit code {code}"]
            return self._inspect_outputs(spec, out)
        finally:
            shutil.rmtree(out)

    def _inspect_outputs(self, spec, out: Path):
        problems = []
        manifest = json.loads((out / "manifest.json").read_text())
        for rel, digest in manifest["artifacts"].items():
            actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            if actual != digest:
                problems.append(f"SHA-256 of {rel} does not match the manifest")

        base = out / f"example{spec.example}" / spec.case
        tag = f"{spec.t_final:g}"
        ref = np.loadtxt(base / "reference" / f"snapshot_t{tag}.csv",
                         delimiter=",", skiprows=1)
        ref = ref.reshape(spec.n_cells, spec.n_zeta, 7)   # y, zeta, h, u, v, a, b
        h = ref[..., 2]
        ref_mean = {"h": h.mean(axis=1)}
        for col, var in zip(range(3, 7), ("u_m", "v_m", "a_m", "b_m")):
            ref_mean[var] = (h * ref[..., col]).sum(axis=1) / h.sum(axis=1)

        reported = {}
        lines = (base / "errors.csv").read_text().splitlines()
        for line in lines[1:]:
            m, var, l1 = line.split(",")
            reported[(int(m), var)] = float(l1)

        dy = (spec.y_max - spec.y_min) / spec.n_cells
        for m in COMPARE_ORDERS:
            snap = np.loadtxt(base / f"M{m}" / f"snapshot_t{tag}.csv",
                              delimiter=",", skiprows=1)
            h_m = snap[:, 1]
            mean = {"h": h_m}
            for col, var in zip(range(2, 6), ("u_m", "v_m", "a_m", "b_m")):
                mean[var] = snap[:, col] / h_m
            for var in ref_mean:
                mine = float(np.abs(mean[var] - ref_mean[var]).sum() * dy)
                theirs = reported.get((m, var))
                if theirs is None or abs(mine - theirs) > 1e-16 + 1e-12 * abs(theirs):
                    problems.append(f"L1({var}) at M={m}: errors.csv has "
                                    f"{theirs}, recomputed {mine:.17g}")

        # the paper's property: M >= 1 far below M = 0, L1(h) not growing in M
        for var in ("h", "v_m", "b_m"):
            for m in COMPARE_ORDERS[1:]:
                if not reported[(m, var)] < 0.1 * reported[(0, var)]:
                    problems.append(f"L1({var}) at M={m} is not far below M=0")
        for m in COMPARE_ORDERS[1:-1]:
            if not reported[(m + 1, "h")] <= reported[(m, "h")]:
                problems.append(f"L1(h) grows from M={m} to M={m + 1}")

        steps = manifest["n_steps"]
        cell_steps = spec.n_cells * spec.n_zeta * steps["reference"] + sum(
            spec.n_cells * steps[f"M{m}"] for m in COMPARE_ORDERS)
        return cell_steps, problems


def make(name: str, out_root: Path):
    """The workload called ``name``; KeyError if there is none."""
    workloads = {w.name: w for w in (MomentEx2M3(), ReferenceEx3(),
                                     CompareEx2(out_root))}
    return workloads[name]
