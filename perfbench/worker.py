"""The measured process of one benchmark run (started by run.py).

Modes:
  setup   set the workload up, report when set-up ended, and exit;
  timed   set up, then run untraced ops for --seconds of wall time;
  traced  set up, then alternate an untraced and a traced op likewise.
Every op is checked against an independent reference right after it ends;
the loop's --seconds include the checks, the op timings do not. Right before
and right after every op the calibration kernel (calibrate.py) is timed.
The last stdout line is a JSON report for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import tailspec  # noqa: E402

if Path(tailspec.__file__).resolve().parent != ROOT / "src" / "tailspec":
    sys.exit(f"tailspec imported from {tailspec.__file__}, not from {ROOT / 'src'}")

import spans  # noqa: E402
from calibrate import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 3  # a median needs a few ops even when one op outlasts --seconds
MAX_LOOP_WALL_S = 120.0  # keeps a run, checks included, inside its time limit
def _run_op(workload, op_seed, context):
    """Time one op inside `context`, then check it outside.

    Returns (wall_s, cpu_s, calibration timings before and after the op,
    peak RSS in KiB after the op, error or None); the RSS high-water mark is
    read before the check can raise it.
    """
    cal = calibrate()
    with context:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out, error = workload.op(op_seed), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    cal += calibrate()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if error is None:
        try:
            error = workload.check(op_seed, out)
        except Exception:
            error = traceback.format_exc(limit=3)
    if error is not None:
        print(f"[{workload.name}] op seed {op_seed} failed: {error}", file=sys.stderr)
    return wall, cpu, cal, peak_kb, error


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--spans", type=Path, help="traced mode: write the spans here")
    args = p.parse_args()

    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    op_seeds = random.Random(args.seed)
    report = {"setup_done": time.monotonic(), "numpy": np.__version__,
              "rows_per_op": workload.rows_per_op}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    tracer = spans.Tracer() if args.mode == "traced" else None
    plain, traced, errors, peak_kb = [], [], [], 0
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if (elapsed >= args.seconds and len(plain) >= MIN_OPS) or elapsed >= MAX_LOOP_WALL_S:
            break
        seed = op_seeds.getrandbits(31)
        wall, cpu, cal, kb, err = _run_op(workload, seed, contextlib.nullcontext())
        if not plain:
            # the first op alone, read before any check has run
            peak_kb = kb
        plain.append((wall, cpu, cal))
        errors.append(err)
        if tracer is not None:
            seed = op_seeds.getrandbits(31)
            wall, cpu, _, _, err = _run_op(workload, seed,
                                           tracer.installed(len(traced)))
            traced.append(wall)
            errors.append(err)

    report.update(ops=plain, errors=errors, peak_rss_kb=peak_kb)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(traced, [op[0] for op in plain])
        if args.spans is not None:
            tracer.dump(args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
