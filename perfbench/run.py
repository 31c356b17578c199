"""tailspec benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload estimate_csv --seed 1 --seconds 30 --trace 0

Workloads (closed loops, one caller, serial): estimate_csv, r_sweep,
simulate_stable; see perfbench/README.md for why each was chosen and which
metrics each layer should move. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it reports the
per-layer metrics from spans around tailspec's public functions. The last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it give the provenance and a readable table.

Set-up is measured in fresh processes, SETUP_REPS times, from process start
to the point where the first op would begin; setup_s is their median.

Set-up and op times are reported normalized: each is divided by the median
time of the calibration kernel (calibrate.py) timed right before and right
after it, and multiplied by the kernel's reference time, so a normalized
second is about one wall second on the machine the benchmark was tuned on,
at its full speed. The raw medians are printed in the table as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from calibrate import calibrate, normalize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate_csv", "r_sweep", "simulate_stable")
SETUP_REPS = 5
WORKER_TIMEOUT_S = 170


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float) -> dict:
    """Where and on what the numbers were taken; git fields are null outside
    a git checkout of this repository."""
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
    }


def _worker(mode: str, args, workdir: Path, spans_path: Path | None = None) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (its start time, its JSON report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    started = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {done.returncode}")
    return started, json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], report: dict) -> dict:
    """The end-to-end metrics from normalized set-up times and one timed report.

    Op statistics use the ops that passed their check when any did.
    """
    ok = [op for op, err in zip(report["ops"], report["errors"]) if err is None]
    ops = ok or report["ops"]
    wall = [normalize(w, cal) for w, _, cal in ops]
    cpu = [normalize(c, cal, cpu=True) for _, c, cal in ops]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_norm_s.p50": (statistics.median(wall), "s"),
        "op_cpu_norm_s.p50": (statistics.median(cpu), "s"),
        "rows_per_norm_s": (report["rows_per_op"] * len(wall) / sum(wall), "rows/s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }


def raw_times(raw_setups: list[float], report: dict) -> dict:
    """Unnormalized medians for the readable table: set-up time, op wall and
    CPU time, and the calibration kernel's wall time around the ops."""
    ops = report["ops"]
    return {
        "raw setup_s": (statistics.median(raw_setups), "s"),
        "raw op_s.p50": (statistics.median(w for w, _, _ in ops), "s"),
        "raw op_cpu_s.p50": (statistics.median(c for _, c, _ in ops), "s"),
        "raw calibration_s.p50": (statistics.median(
            statistics.median(cw for cw, _ in cal) for _, _, cal in ops), "s"),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall time of the op loop; at least three ops always run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "tailspec" / "__init__.py").is_file():
        print(f"error: no tailspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        if args.trace:
            spans_path = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
            _, report = _worker("traced", args, workdir, spans_path)
            metrics = {name: (report["layers"][name], unit)
                       for name, unit in spans.layer_metric_names()}
        else:
            raw_setups, setups = [], []
            for mode in ["setup"] * (SETUP_REPS - 1) + ["timed"]:
                cal = calibrate()
                started, report = _worker(mode, args, workdir)
                # the kernel right after set-up: timed here once the set-up
                # process has ended, or by the timed process before its first op
                cal += calibrate() if mode == "setup" else report["ops"][0][2][:len(cal)]
                raw_setups.append(report["setup_done"] - started)
                setups.append(normalize(raw_setups[-1], cal))
            metrics = end_to_end(setups, report)
            table.update(raw_times(raw_setups, report))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(report["errors"])
    failed = sum(err is not None for err in report["errors"])
    prov = provenance(args.workload, args.seed, args.seconds)
    prov.update(numpy=report["numpy"], ops=len(report["ops"]),
                traced_ops=attempted - len(report["ops"]))
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in {**metrics, **table}.items():
        print(f"{args.workload:16s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:16s} {'fail_frac':48s} {failed / attempted:14.6g} 1"
          f"  ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
