"""Keep ``bench/`` working against ``src/``.

The benchmark traces module functions by name and reads fields of the
run statistics.  A rename or a lost field then fails here, in Tier-1,
instead of in a traced benchmark run: the tracer must find every name
it lists and put the originals back, and each workload must pass its own
checks.  The single-solver workloads run over the warm-up interval;
the comparison runs over its own interval, because the error ordering
across orders that it checks is the one the paper reports at t = 0.2
and does not yet hold at the warm-up time.  The reference workload's
states must stay component-first: a stray C-order copy reverts the
layout without changing a value, and would show only as a slower run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from mrswm import ref2d

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
tracing = importlib.import_module("tracing")
workloads = importlib.import_module("workloads")


def test_tracer_installs_every_layer_and_restores_originals():
    modules = {layer: importlib.import_module(f"mrswm.{layer}")
               for layer in tracing.LAYERS}
    before = {(layer, name): getattr(modules[layer], name)
              for layer, names in tracing.LAYERS.items() for name in names}
    assert all(callable(fn) for fn in before.values())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (layer, name), fn in before.items():
            assert getattr(modules[layer], name) is not fn, f"{layer}.{name} not traced"
    finally:
        tracer.uninstall()
    for (layer, name), fn in before.items():
        assert getattr(modules[layer], name) is fn, f"{layer}.{name} not restored"


@pytest.mark.parametrize("name", ["moment-ex2-m3", "reference-ex3", "compare-ex2"])
def test_workload_passes_its_checks(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    state = workload.setup()
    if name != "compare-ex2":
        state[0].t_final = workloads.WARM_UP_T
    result = workload.solve(state)
    cell_steps, problems = workload.inspect(state, result)
    assert problems == []
    assert cell_steps > 0


def component_first(U):
    return U.shape[-1] == 5 and np.moveaxis(U, -1, 0).flags.c_contiguous


def test_reference_states_stay_component_first(tmp_path, monkeypatch):
    workload = workloads.make("reference-ex3", tmp_path)
    state = workload.setup()
    state[0].t_final = workloads.WARM_UP_T
    arrived = []     # layout of each U given to Solution2D during the solve

    class Recording(ref2d.Solution2D):
        def __post_init__(self):
            arrived.append(component_first(self.U))
            super().__post_init__()

    monkeypatch.setattr(ref2d, "Solution2D", Recording)
    solved, stats = workload.solve(state)
    assert stats.n_steps > 0 and len(arrived) == 3 * stats.n_steps + 1
    assert all(arrived), "a stage state reached Solution2D in another layout"
    assert component_first(state[2].U) and component_first(solved.U)
