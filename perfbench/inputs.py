"""Input and reference generator for the `estimate_csv` workload.

Runs as its own process during set-up, so that the memory it needs to build
a 2x10^5-row CSV stays out of the measured process's peak RSS:

    python3 perfbench/inputs.py --seed 7 --csv in.csv --ref ref.json

It draws the polar `abscos2t` sample with its own numpy sampler, writes it
at 17 significant digits with its own writer, and computes the expected
`estimate` outputs with a short block-maxima computation. It does not import
tailspec, so the reference shares no code with the program it checks.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np

ROWS = 2 * 10**5
ALPHA = 0.75
R = 0.9
ARC = (0.0, 1.5707963267948966)  # arc:0:1.5707963267948966
HALFSPACE = ((1.0, 0.0), 0.0)     # halfspace:1,0:0
ESTIMATE_FLAGS = [
    "--r", repr(R), "--alpha", repr(ALPHA),
    "--region", f"arc:0:{ARC[1]!r}", "--region", "halfspace:1,0:0",
]
_CHUNK = 100_000


def polar_abscos2t(seed: int, rows: int = ROWS, alpha: float = ALPHA) -> np.ndarray:
    """X = R * (cos T, sin T) with P(R > x) = x^-alpha (x >= 1, total mass 1)
    and T drawn from the angular density |cos 2t| / 4 on [0, 2*pi).

    On [0, pi/4] the density is proportional to cos 2t, whose cdf is sin 2t,
    so t0 = asin(U) / 2; a reflection t -> pi/2 - t and a quarter turn
    k * pi/2 then cover the rest of the circle, where |cos 2t| repeats.
    """
    g = np.random.Generator(np.random.PCG64(seed))
    radius = (1.0 - g.random(rows)) ** (-1.0 / alpha)
    t0 = 0.5 * np.arcsin(g.random(rows))
    flip = g.integers(0, 2, rows).astype(bool)
    quarter = g.integers(0, 4, rows)
    theta = quarter * (math.pi / 2.0) + np.where(flip, math.pi / 2.0 - t0, t0)
    return np.c_[radius * np.cos(theta), radius * np.sin(theta)]


def write_csv(path: str, values: np.ndarray) -> None:
    """Two-column CSV at 17 significant digits, written in chunks of rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, values.shape[0], _CHUNK):
            block = values[lo:lo + _CHUNK]
            fh.write("".join(map("%.17g,%.17g\n".__mod__,
                                 zip(block[:, 0].tolist(), block[:, 1].tolist()))))


def estimate_reference(x: np.ndarray, r: float = R, alpha: float = ALPHA) -> dict:
    """alpha.hat, mass.hat and the two region masses that `tailspec estimate
    --r R --alpha ALPHA` must report for the sample x.

    Groups are n = [N^r] contiguous blocks of m = [N/n] rows; the 1e-9 nudge
    matches the program's flooring of N^r. The mass exponent is the default
    t = min(alpha*r/4, 1) / 2.
    """
    N = x.shape[0]
    n = int(math.floor(N ** r + 1e-9))
    m = N // n
    blocks = x[: n * m].reshape(n, m, x.shape[1])
    norms = np.sqrt((blocks * blocks).sum(axis=2))
    j1 = norms.argmax(axis=1)
    m1 = norms[np.arange(n), j1]
    m2 = np.sort(norms, axis=1)[:, -2]
    s_n = float((m2 / m1).sum())
    t = 0.5 * min(alpha * r / 4.0, 1.0)
    mean_qt = float(((m1 / m ** (1.0 / alpha)) ** t).mean())
    theta = blocks[np.arange(n), j1] / m1[:, None]
    angle = np.mod(np.arctan2(theta[:, 1], theta[:, 0]), 2.0 * math.pi)
    (u, c) = HALFSPACE
    return {
        "alpha.hat": s_n / (n - s_n),
        "mass.hat": (mean_qt / math.gamma(1.0 - t / alpha)) ** (alpha / t),
        "region.arc": float(((angle >= ARC[0]) & (angle < ARC[1])).mean()),
        "region.halfspace": float((theta @ np.asarray(u) > c).mean()),
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--ref", required=True)
    args = p.parse_args()
    x = polar_abscos2t(args.seed)
    write_csv(args.csv, x)
    with open(args.ref, "w", encoding="utf-8") as fh:
        json.dump(estimate_reference(x), fh)


if __name__ == "__main__":
    main()
