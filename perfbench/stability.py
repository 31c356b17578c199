"""Stability mode: repeat each workload and report run-to-run spread.

    python3 perfbench/stability.py --runs 10

Runs run.py --trace 0 for BENCHMARK.json's run_seconds, once per seed, in
two sets of --runs runs (seeds 1, 2, ... across both sets). For each
workload and end-to-end metric it reports the first set's median and spread,
the quartile distance (statistics.quantiles, n=4) as a share of the median,
next to the bound BENCHMARK.json fixes for that metric, and how far the
second set's median moved from the first's in the worse direction. Both must
stay within the bound; a spread should also stay below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    args = p.parse_args()

    ok = True
    summary = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"# {workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run[name] for run in runs] for runs in sets]
            moved = statistics.median(values[1]) / statistics.median(values[0]) - 1.0
            row = {"median": statistics.median(values[0]),
                   "spread": spread(values[0]), "bound": bound,
                   "second_set_worse_by": moved if metric["better"] == "lower" else -moved}
            within = row["spread"] <= bound and row["second_set_worse_by"] <= bound
            row["verdict"] = ("steady" if within and row["spread"] < bound / 3
                              else "within bound" if within else "OUT OF BOUND")
            ok = ok and within
            summary[f"{workload}/{name}"] = row
            print(f"{workload:16s} {name:14s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {bound} "
                  f"second set worse by {row['second_set_worse_by']:+.4f}  "
                  f"{row['verdict']}", flush=True)
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
