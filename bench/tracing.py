"""Per-layer tracing: wrap mrswm's module functions where they are looked up.

Every traced function is replaced by a timing wrapper in each ``mrswm``
module whose globals bind it, so the by-name imports (``minmod3`` and
the weight helpers in ``ref2d``, ``write_csv`` in ``experiments`` and
``cli``, ``file_sha256`` in ``cli``, ``build_tensors`` in ``model1d``)
are counted as well as calls through the defining module.  A function's
self time is its wall time minus the time of the traced calls it made.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

#: Traced functions per layer (module of ``mrswm``).
LAYERS = {
    "model1d": ("interface_speeds", "eigenvalues", "jacobian", "flux_g",
                "source_s", "check_valid"),
    "fv1d": ("run", "rhs", "reconstruct", "cu_flux_from_values",
             "path_integral_cell", "path_integral_interface", "minmod3",
             "_cell_weights", "_interface_weights"),
    "ref2d": ("run2d", "rhs2d", "flux_y", "flux_zeta", "coupling_omega",
              "coupling_c", "sigma_factor", "depth_average"),
    "closure": ("build_tensors", "project_profile"),
    "experiments": ("model_params", "initial_moment_solution",
                    "initial_reference_solution", "run_comparison",
                    "write_comparison_outputs"),
    "io": ("write_csv", "file_sha256"),
    "cli": ("main",),
}

#: Layers whose call counts say nothing an optimisation would move.
SELF_TIME_ONLY = ("experiments", "cli")


def _states(args) -> int:
    """Number of states whose spectrum ``model1d.eigenvalues`` took."""
    return int(np.prod(np.shape(args[0])[:-1]))


def _bytes_written(args) -> int:
    return os.path.getsize(args[0])


#: Extra counters: (layer, function) -> (counter name, counter).
COUNTERS = {
    ("model1d", "eigenvalues"): ("states", _states),
    ("io", "write_csv"): ("bytes", _bytes_written),
}


def metric_specs() -> list[dict]:
    """The per-layer metrics, in the order the traced run reports them."""
    specs = []
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            specs.append({"name": f"{key}.self_s", "unit": "s", "better": "lower"})
            if layer not in SELF_TIME_ONLY:
                specs.append({"name": f"{key}.calls", "unit": "count",
                              "better": "lower"})
            if (layer, name) in COUNTERS:
                counter = COUNTERS[(layer, name)][0]
                specs.append({"name": f"{key}.{counter}",
                              "unit": "bytes" if counter == "bytes" else "count",
                              "better": "lower"})
    specs.append({"name": "tracing.overhead_s", "unit": "s", "better": "lower"})
    return specs


class Tracer:
    """Accumulates self time, calls and counters of the wrapped functions."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._child = [0.0]          # traced time of callees, per open call
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, counter):
        perf_counter = time.perf_counter
        child, totals = self._child, self.totals

        def traced(*args, **kwargs):
            child.append(0.0)
            tic = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - tic
                totals[key + ".self_s"] += elapsed - child.pop()
                child[-1] += elapsed
                totals[key + ".calls"] += 1
            if counter is not None:
                totals[f"{key}.{counter[0]}"] += counter[1](args)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mrswm" or name.startswith("mrswm."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"mrswm.{layer}"]
            for name in names:
                fn = getattr(home, name)
                traced = self._wrap(f"{layer}.{name}", fn,
                                    COUNTERS.get((layer, name)))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def per_solve(self, n_solves: int) -> dict[str, float]:
        """Every per-layer metric except the overhead, averaged per solve."""
        return {spec["name"]: self.totals.get(spec["name"], 0.0) / n_solves
                for spec in metric_specs()
                if not spec["name"].startswith("tracing.")}
