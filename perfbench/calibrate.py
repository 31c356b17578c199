"""A fixed calibration kernel, timed around every op and every set-up.

The shared host the benchmark was tuned on changes speed by 20 to 60% within
a minute, in CPU time as much as in wall time, for tailspec and for any other
code alike. Timing a fixed kernel right before and right after each measured
stretch, and dividing the stretch's time by the kernel's, takes that drift
out. The kernel shares no code with tailspec and mixes the kinds of work the
ops do: a numpy sort, float parsing and float formatting in Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 4  # kernel calls per calibration
REF_S = 0.011  # one kernel call on a 2-vCPU Xeon VM at full speed

_ARRAY = np.random.default_rng(0).random(100_000)
_TEXT = [repr(x) for x in _ARRAY[:20_000].tolist()]


def _kernel() -> None:
    np.sort(_ARRAY)
    total = 0.0
    for text in _TEXT:
        total += float(text)
    "".join(map("%.17g\n".__mod__, _ARRAY[:10_000].tolist()))


def calibrate() -> list[list[float]]:
    """Time REPS kernel calls, about 12 ms each; returns [wall_s, cpu_s] pairs."""
    out = []
    for _ in range(REPS):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _kernel()
        out.append([time.perf_counter() - wall0, time.process_time() - cpu0])
    return out


def normalize(seconds: float, cal: list[list[float]], cpu: bool = False) -> float:
    """`seconds` scaled by REF_S over the median kernel time in `cal`: about
    what the stretch would take on the reference VM at full speed."""
    return seconds * REF_S / statistics.median(pair[int(cpu)] for pair in cal)
