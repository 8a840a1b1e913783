"""Solver benchmark of mrswm: one workload per invocation.

    python3 bench/run.py --workload moment-ex2-m3 --seed 0 --seconds 35 --trace 0

Runs from the root of a source tree and imports ``mrswm`` from its
``src/`` directory, nothing installed.  After an untimed warm-up, the
workload's solve is repeated for about ``--seconds`` (at least once);
every solve's output is checked.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh-process set-ups), ``solve_s`` (mean over the solves),
``cell_steps_per_s`` (all cell steps over all solve time) and
``peak_rss_mb``.  ``--trace 1`` reports the per-layer metrics of
``tracing.py``, per traced solve, plus the tracing overhead.  The inputs
are the paper's deterministic initial data: ``--seed`` is recorded and
changes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def import_package():
    """Import mrswm from this tree's src/, refusing any other copy."""
    package = SRC / "mrswm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no mrswm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mrswm
    if Path(mrswm.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported mrswm from {mrswm.__file__}, not {package}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be read."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    import scipy
    from mrswm import _alloc
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "tune_allocator": _alloc.tune_allocator()}


def setup_probe(name: str) -> float:
    """Fresh-process set-up: import mrswm, build parameters and initial states."""
    tic = time.perf_counter()
    import_package()
    import workloads
    workload = workloads.make(name, OUT)
    workload.setup()
    return time.perf_counter() - tic


def median_setup_s(name: str) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def attempt(workload, tracer=None):
    """One solve: (seconds, cell steps) if it ran and passed its checks, else None."""
    try:
        if tracer is not None:
            tracer.install()
        try:
            state = workload.setup()
            tic = time.perf_counter()
            result = workload.solve(state)
            elapsed = time.perf_counter() - tic
        finally:
            if tracer is not None:
                tracer.uninstall()
        cell_steps, problems = workload.inspect(state, result)
    except Exception as exc:    # a solve that raises counts as failed
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        print(f"bench: {workload.name} solve failed: " + "; ".join(problems),
              file=sys.stderr)
        return None
    print(f"bench: {workload.name} solve {elapsed:.4f} s, {cell_steps} cell steps"
          + (" (traced)" if tracer is not None else ""), file=sys.stderr)
    return elapsed, cell_steps


def rounds(seconds: float, do_round) -> int:
    """Call ``do_round`` at least once, and again while it would end no
    more than half a round past ``seconds`` from the start, judged by the
    last round's length; return the number of rounds."""
    deadline = time.perf_counter() + seconds
    count, last = 0, 0.0
    while count == 0 or time.perf_counter() + last / 2 < deadline:
        tic = time.perf_counter()
        do_round(count)
        last = time.perf_counter() - tic
        count += 1
    return count


def timed_run(workload, seconds: float) -> tuple[int, list]:
    """An untimed warm-up, then untraced solves for about ``seconds``."""
    workload.warm_up()
    outcomes = []
    rounds(seconds, lambda _: outcomes.append(attempt(workload)))
    return len(outcomes), [o for o in outcomes if o is not None]


def traced_run(workload, seconds: float, tracer):
    """An untimed warm-up, then rounds of one traced and one untraced
    solve, in alternating order, for about ``seconds``.

    Returns the solves attempted and failed and the passing untraced and
    traced ones.
    """
    workload.warm_up()
    outcomes = {False: [], True: []}

    def one_round(count):
        for with_trace in (True, False) if count % 2 == 0 else (False, True):
            outcomes[with_trace].append(
                attempt(workload, tracer if with_trace else None))

    attempted = 2 * rounds(seconds, one_round)
    plain = [o for o in outcomes[False] if o is not None]
    traced = [o for o in outcomes[True] if o is not None]
    return attempted, attempted - len(plain) - len(traced), plain, traced


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload)}))
        return 0

    import_package()
    import tracing
    import workloads
    try:
        workload = workloads.make(args.workload, OUT)
    except KeyError:
        raise SystemExit(f"bench: unknown workload {args.workload!r}") from None
    env = environment(args)
    print("bench: environment " + json.dumps(env), file=sys.stderr)

    if args.trace:
        tracer = tracing.Tracer()
        attempted, failed, plain, traced = traced_run(workload, args.seconds, tracer)
        metrics = {}
        if traced and plain:
            specs = {s["name"]: s["unit"] for s in tracing.metric_specs()}
            metrics = {name: metric(value, specs[name])
                       for name, value in tracer.per_solve(len(traced)).items()}
            overhead = (statistics.fmean(t for t, _ in traced)
                        - statistics.fmean(t for t, _ in plain))
            metrics["tracing.overhead_s"] = metric(overhead, "s")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"environment": env, "untraced_solve_s": [t for t, _ in plain],
             "traced_solve_s": [t for t, _ in traced], "metrics": metrics},
            indent=1) + "\n")
    else:
        setup_s = median_setup_s(args.workload)
        attempted, ok = timed_run(workload, args.seconds)
        failed = attempted - len(ok)
        metrics = {}
        if ok:
            # means, not medians: the machine's speed changes in phases of
            # 10-20 s, and a run's median solve jumps between phase levels
            solve_time = sum(t for t, _ in ok)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "solve_s": metric(solve_time / len(ok), "s"),
                "cell_steps_per_s": metric(
                    sum(n for _, n in ok) / solve_time, "1/s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
