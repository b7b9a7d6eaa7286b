#!/usr/bin/env python3
"""Compare benchmark result files of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds result files written by run.py (.perfbench_work/results/
of each checkout). Runs are grouped by workload and trace mode; for every
metric the table gives both sides' median and quartiles over runs, the
change's median as a share of the parent's, and, over runs paired by seed,
how often the change read better (several runs of one seed pair in the
order of their file names). A gain may be claimed only when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's quartile distance; a metric is worse than its bound
when the change's median is worse than the parent's by more than the bound
in BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {seed: [{metric: median}, one per run]}}"""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        env = result["environment"]
        key = (env["workload"], env["trace"])
        runs.setdefault(key, {}).setdefault(env["seed"], []).append(
            {k: v["median"] for k, v in result["metrics"].items()})
    return runs


def pairs(p_runs, c_runs):
    """(parent run, change run) pairs: same seed, in file-name order."""
    return [pair for seed in sorted(set(p_runs) & set(c_runs))
            for pair in zip(p_runs[seed], c_runs[seed])]


def describe(values):
    """(median, q1, q3) of run medians."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        p_all = [r for rs in p_runs.values() for r in rs]
        c_all = [r for rs in c_runs.values() for r in rs]
        paired = pairs(p_runs, c_runs)
        print(f"\n{key[0]} trace={key[1]}  parent runs={len(p_all)} "
              f"change runs={len(c_all)} pairs={len(paired)}")
        names = sorted({m for r in p_all + c_all for m in r})
        for metric in names:
            if metric not in better:
                print(f"  {metric:40s} not in BENCHMARK.json; not compared")
                continue
            p_vals = [r[metric] for r in p_all if metric in r]
            c_vals = [r[metric] for r in c_all if metric in r]
            if len(p_vals) < len(p_all) or len(c_vals) < len(c_all):
                print(f"  {metric:40s} missing from {len(p_all) - len(p_vals)} parent "
                      f"and {len(c_all) - len(c_vals)} change runs; not compared")
                continue
            p, c = describe(p_vals), describe(c_vals)
            sign = 1.0 if better[metric] == "higher" else -1.0
            wins = sum(sign * (cr[metric] - pr[metric]) > 0 for pr, cr in paired)
            ratio = c[0] / p[0] if p[0] else float("nan")
            verdict = ""
            if metric in bound and sign * (ratio - 1.0) < -bound[metric]:
                verdict = f"  WORSE than bound {bound[metric]}"
            elif paired and wins >= 0.9 * len(paired) and abs(c[0] - p[0]) > p[2] - p[1]:
                verdict = "  gain"
            print(f"  {metric:40s} parent {p[0]:.6g} [{p[1]:.6g}, {p[2]:.6g}]  "
                  f"change {c[0]:.6g} [{c[1]:.6g}, {c[2]:.6g}]  "
                  f"change/parent {ratio:.4f}  wins {wins}/{len(paired)}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
