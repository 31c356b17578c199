"""Paired benchmark recorder: this checkout (the change) against a parent.

    python3 tools/bench_record.py --label pr26 --parent ../parent --pairs 5 --seconds 10

For each workload of BENCHMARK.json it runs ``perfbench/run.py --trace 0``
in this checkout and in the --parent checkout, --pairs times on each side.
Both runs of pair i use seed i (from 1), and the side that runs first
alternates from pair to pair, so that drift of a shared machine falls on
both sides alike.  Then it runs each side's tier-1 tests once (once in all
when --parent is this checkout).

It writes BENCH_<label>.json at the root of this checkout:

- per workload, end-to-end metric and side: every run's value and their
  min, quartiles and median (statistics.quantiles, n=4), and in how many
  pairs the change did better in the metric's direction;
- per workload and side: failed and attempted ops over all runs, and the
  provenance line of each run.py run;
- per side: the git commit of the checkout and whether it had uncommitted
  changes, the tier-1 counts and wall time, and the lines of its src/
  Python files (as wc -l counts them).

It does not change how run.py measures, nor any bound of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
RUN_TIMEOUT_S = 900
TIER1_TIMEOUT_S = 1800


def run_command(cmd: list[str], cwd: Path, timeout: float) -> tuple[int, str]:
    """Run cmd in cwd with that checkout's src/ on PYTHONPATH; return its
    exit code and stdout."""
    path = os.pathsep.join(filter(None, [str(cwd / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    return done.returncode, done.stdout


def parse_run(stdout: str) -> tuple[dict, dict]:
    """run.py's provenance block and its last line, the JSON summary."""
    lines = stdout.strip().splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return prov, json.loads(lines[-1])


def parse_tier1(stdout: str) -> dict[str, int]:
    """The test counts of pytest's last line, e.g. {"passed": 744, "failed": 0}."""
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    counts = {"passed": 0, "failed": 0}
    for n, word in re.findall(r"(\d+) (passed|failed|skipped|xfailed|xpassed|errors?)\b",
                              summary):
        counts[word.rstrip("s") if word.startswith("error") else word] = int(n)
    return counts


def src_lines(checkout: Path) -> int:
    """The newlines of every .py file under checkout/src."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def spread(values: list[float]) -> dict:
    """Every value, and their min, quartiles and median."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else [values[0]] * 3)
    return {"values": values, "min": min(values), "q1": q1, "median": med, "q3": q3}


def record(label: str, parent: Path, pairs: int, seconds: float,
           run=run_command) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"change": ROOT, "parent": parent}
    doc = {"label": label, "pairs": pairs, "seconds": seconds,
           "seeds": [1 + i for i in range(pairs)], "sides": {}, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(doc["seeds"]):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                cmd = [sys.executable, str(sides[side] / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                code, out = run(cmd, sides[side], RUN_TIMEOUT_S)
                if code != 0:
                    raise RuntimeError(f"{side} {workload} seed {seed}: run.py exited {code}")
                runs[side].append(parse_run(out))
                print(f"# {workload} pair {i} {side}: {json.dumps(runs[side][-1][1])}",
                      file=sys.stderr, flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = {side: [result["metrics"][m["name"]]["value"] for _, result in runs[side]]
                      for side in sides}
            sign = 1.0 if m["better"] == "lower" else -1.0
            better = sum(sign * (c - p) < 0.0 for c, p in zip(values["change"], values["parent"]))
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                  **{side: spread(v) for side, v in values.items()},
                                  "change_better": better}
        doc["workloads"][workload] = {
            "metrics": metrics,
            "ops": {side: {"failed": sum(r["failed"] for _, r in runs[side]),
                           "attempted": sum(r["attempted"] for _, r in runs[side])}
                    for side in sides},
            "provenance": {side: [p for p, _ in runs[side]] for side in sides},
        }
    tier1 = {}
    for side, path in sides.items():
        if path.resolve() not in tier1:
            started = time.monotonic()
            _, out = run([sys.executable, *TIER1], path, TIER1_TIMEOUT_S)
            tier1[path.resolve()] = {**parse_tier1(out), "wall_s": time.monotonic() - started}
        prov = runs[side][0][0]  # every run of a side names the same commit
        doc["sides"][side] = {"git_sha": prov["git_sha"], "git_dirty": prov["git_dirty"],
                              "tier1": tier1[path.resolve()], "src_lines": src_lines(path)}
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=10.0, help="run.py's --seconds")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        p.error(f"--parent {args.parent} has no perfbench/run.py")
    doc = record(args.label, args.parent.resolve(), args.pairs, args.seconds)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
