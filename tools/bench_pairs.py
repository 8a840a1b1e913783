"""Alternating benchmark pairs of two git revisions.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --out BENCH_x.json \
        --work /tmp/pairs --run reference-ex3:61 --run compare-ex2:61

Exports each revision with ``git archive`` into its own fresh directory
under ``--work``, then runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` from each tree in turn: the parent first in odd
pairs, the change first in even ones.  Writes every run's metrics and
CPU time (user + sys of the run and its children) and, per workload and
metric, the quartiles of each side, the pairs the change won and the
median gap in units of the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` into the new directory ``dest``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``tree``: its JSON line's fields, metric
    values flattened, plus wall and CPU seconds."""
    cpu, tic = children_cpu(), time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=tree, capture_output=True, text=True)
    wall, cpu = time.perf_counter() - tic, children_cpu() - cpu
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    row = {k: result[k] for k in ("correct", "attempted", "failed")}
    row.update({name: m["value"] for name, m in result["metrics"].items()})
    row.update(run_wall_s=wall, run_cpu_s=cpu)
    return row


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q, 6) for q in (q1, q2, q3)]


def summary(pairs: list[dict], metrics: dict[str, str]) -> dict:
    out = {}
    for name, better in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq[2] - pq[0]
        out[name] = {
            "better": better,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "parent_min_max": [min(parent), max(parent)],
            "change_min_max": [min(change), max(change)],
            "change_better_in": f"{wins} of {len(pairs)}",
            "median_change_pct": round(100.0 * (cq[1] / pq[1] - 1.0), 1),
            "median_gap_over_parent_iqr":
                round(abs(cq[1] - pq[1]) / iqr, 2) if iqr > 0 else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--run", action="append", required=True,
                        help="WORKLOAD:SEED, repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--work", type=Path, required=True,
                        help="new directory for the two source trees")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        # the quartiles of the summary need two runs per side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    trees = {side: args.work / side for side in ("parent", "change")}
    shas = {side: export(rev, trees[side])
            for side, rev in (("parent", args.parent), ("change", args.change))}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    metrics.update(run_cpu_s="lower")
    report = {"parent": shas["parent"], "change": shas["change"],
              "command": f"python3 bench/run.py --workload W --seed S "
                         f"--seconds {args.seconds:g} --trace 0",
              "protocol": f"{args.pairs} alternating pairs per workload: odd pairs "
                          "run the parent first, even pairs the change first; each "
                          "side from a fresh git archive of its revision",
              "workloads": {}}
    for run in args.run:
        workload, seed = run.split(":")
        pairs = []
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            pair = {"pair": k, "first": order[0]}
            for side in order:
                pair[side] = bench(trees[side], workload, int(seed), args.seconds)
                print(f"{workload} pair {k} {side}: solve_s {pair[side]['solve_s']:.4f} "
                      f"peak_rss_mb {pair[side]['peak_rss_mb']:.2f}", file=sys.stderr)
            pairs.append(pair)
        report["workloads"][f"{workload} seed {seed}"] = {
            "pairs": pairs, "summary": summary(pairs, metrics)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
