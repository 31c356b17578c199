"""Seeded generators for exactly regularly varying samples.

Randomness contract: every generator consumes uniform doubles from a
counter-based Philox-4x64 bit generator keyed by (seed, stream), the only
primitive drawn.  Identical (seed, stream) therefore reproduces identical
samples across runs, platforms and process boundaries; replications use
distinct streams derived with splitmix64 (test vectors in the suite pin both
the mixer and the generator output).  One exception to "platforms": the
stable samplers transform the uniforms with numpy's float64 sin, cos, log1p
and power, which round differently under numpy's AVX-512 dispatch than in
its libm fallback, so their samples are bit-identical only between machines
on which numpy takes the same path.

`sample_stable_1d` and `sample_stable_vector` split their rows across up to
one thread per available CPU (one thread inside a process-pool worker), the
calling thread filling the first range.  Each thread reads the fixed
positions of the Philox stream that the serial draw order assigns to its
rows, by setting the generator's counter (`SeededRng.uniforms`), so the
output does not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidModel, UnsupportedAlpha
from .numerics import gamma_fn
from .types import DataMatrix, ModelSpec

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round (Vigna's reference constants)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SeededRng:
    """A (seed, stream) pair naming one reproducible random sequence."""

    seed: int
    stream: int = 0

    def _key(self) -> np.ndarray:
        return np.array([self.seed & _MASK64, self.stream & _MASK64],
                        dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))

    def uniforms(self, start: int, count: int) -> np.ndarray:
        """Doubles start .. start+count-1 of generator().random's sequence.

        Philox-4x64 yields four doubles per counter step, so the draw starts
        at counter start // 4 and drops the first start % 4 doubles.
        """
        bits = np.random.Philox(key=self._key(), counter=start // 4)
        return np.random.Generator(bits).random(start % 4 + count)[start % 4:]

    def split(self, *keys: int) -> "SeededRng":
        """Derive an independent stream from integer keys (e.g. experiment id,
        replication index)."""
        s = self.stream & _MASK64
        for k in keys:
            s = splitmix64(s ^ splitmix64(k & _MASK64))
        return SeededRng(seed=self.seed, stream=s)


def stable_tail_constant(alpha: float) -> float:
    """C_alpha with x^alpha * P(X > x) -> C_alpha (1+skew)/2 scale^alpha.

    C_alpha = (1 - alpha) / (Gamma(2 - alpha) * cos(pi*alpha/2)), alpha != 1.
    """
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise UnsupportedAlpha(f"alpha={alpha} outside (0,2)\\{{1}}")
    return (1.0 - alpha) / (gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))


def _cms(alpha: float, skew: float, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck variates, strictly stable, unit scale, alpha != 1.

    Tail: x^alpha P(X > x) -> C_alpha (1+skew)/2.  Consumes u1 and u2: the
    steps run in place in them and in one scratch array, and the variates
    are returned in u1.  Each step is the same operation on the same
    operands as the one-expression form
        sin(alpha*(phi+b)) / (cos(alpha*b)*cos(phi))**(1/alpha)
        * (cos(alpha*b + (alpha-1)*phi) / w)**((1-alpha)/alpha),
    so the result is bit-identical to it.
    """
    b = math.atan(skew * math.tan(math.pi * alpha / 2.0)) / alpha
    phi = u1
    phi -= 0.5
    phi *= math.pi
    w = u2
    np.negative(w, out=w)
    np.log1p(w, out=w)
    np.negative(w, out=w)
    np.fmax(w, 1e-300, out=w)  # Exp(1); floor avoids division by zero
    # t3 = (cos(alpha*b + (alpha-1)*phi) / w) ** ((1-alpha)/alpha), into w
    t = phi * (alpha - 1.0)
    t += alpha * b
    np.cos(t, out=t)
    np.divide(t, w, out=w)
    w **= (1.0 - alpha) / alpha
    # den = (cos(alpha*b) * cos(phi)) ** (1/alpha), into t
    np.cos(phi, out=t)
    t *= math.cos(alpha * b)
    t **= 1.0 / alpha
    # num = sin(alpha*(phi+b)), into phi; then num / den * t3
    phi += b
    phi *= alpha
    np.sin(phi, out=phi)
    phi /= t
    phi *= w
    return phi


# a tiny alpha overflows float64 in the draws: the samplers draw without
# float warnings and check their output with _finite_sample.  errstate holds
# per thread, so each row filler sets its own, as a decorator: one errstate
# entered as a context manager by two threads at once cannot be left.
_overflow_checked_below = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _finite_sample(x: np.ndarray, alpha: float) -> DataMatrix:
    """x as a DataMatrix, or UnsupportedAlpha if a draw left it non-finite."""
    if not np.isfinite(x).all():
        raise UnsupportedAlpha(f"alpha={alpha} is too small: the sample overflows float64")
    return DataMatrix(x)


def _tail_scale(w: float, c: float, alpha: float) -> float:
    """(w/c)^(1/alpha), the scale whose variates put tail weight w on their
    direction when c is their tail constant (C_alpha; 1 for a polar radius).
    Past float64 it raises OverflowError naming w, c and alpha."""
    try:
        scale = (w / c) ** (1.0 / alpha)
    except OverflowError:  # the bare one names no operand
        scale = math.inf
    if math.isinf(scale):
        raise OverflowError(f"scale (w/C)^(1/alpha) overflows float64 at w={w}, C={c}, "
                            f"alpha={alpha}")
    return scale


# grid resolution for inverse-cdf sampling from an angular density
_DENSITY_SAMPLING_GRID = 4096


@_overflow_checked_below
def sample_polar(model: ModelSpec, N: int, rng: SeededRng) -> DataMatrix:
    """Radius-direction sample with an exact power tail.

    X = R * Theta with P(R > x) = sigma(S) x^(-alpha) for x >= sigma(S)^(1/alpha)
    and Theta ~ normalized spectral measure, independent of R.  The regular
    variation limit holds with zero remainder (no second-order term).

    Draw order: N radius uniforms, then N direction uniforms.
    """
    if N < 1:
        raise InvalidModel("N must be positive")
    g = rng.generator()
    u_radius = g.random(N)
    u_dir = g.random(N)
    x0 = _tail_scale(model.total_mass, 1.0, model.alpha)
    radius = x0 * (1.0 - u_radius) ** (-1.0 / model.alpha)
    if model.atoms is not None:
        cum = np.cumsum(model.weights) / model.total_mass
        cum[-1] = 1.0
        theta = model.atoms[np.searchsorted(cum, u_dir, side="right")]
    else:
        edges = np.linspace(0.0, 2.0 * math.pi, _DENSITY_SAMPLING_GRID + 1)
        mids = (edges[:-1] + edges[1:]) / 2.0
        with np.errstate(over="ignore"):
            cdf = np.concatenate([[0.0], np.cumsum(model.density_at(mids))])
        if not np.isfinite(cdf[-1]):
            raise InvalidModel(f"total_mass={model.total_mass} is too large: the density's "
                               f"cdf overflows float64")
        cdf /= cdf[-1]
        angles = np.interp(u_dir, cdf, edges)
        theta = np.c_[np.cos(angles), np.sin(angles)]
    return _finite_sample(radius[:, None] * theta, model.alpha)


# rows a thread needs before splitting pays, in both stable samplers (2-CPU
# x86 VM).  sample_stable_vector, 100 atoms: 2 threads on 16384 rows took
# 0.13-0.14 s against 0.18-0.23 s serial, on 8192 rows 0.079-0.098 s against
# 0.075-0.094 s.  sample_stable_1d, medians: 1.04 against 1.01 ms serial on
# 16384 rows, 4.1 against 6.5 ms on 10^5 rows (7.2 against 6.5 ms of CPU).
_ROWS_PER_THREAD = 8192


def _available_cpus() -> int:
    """CPUs the stable samplers may fill with threads, the most processes a
    replication pool starts, and the most ranges read_plain_csv parses a
    file in, each in its own process.

    One inside a multiprocessing child, e.g. a run_r_sweep or
    run_ci_coverage pool worker: its sibling workers already use the other
    CPUs.  Such a child always has multiprocessing imported, so looking it up
    costs other processes no import.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_rows(fill, N: int) -> None:
    """Call fill(lo, hi) on row ranges that cover [0, N) exactly once.

    [0, N) is cut into one range per available CPU, with at least
    _ROWS_PER_THREAD rows each.  The calling thread fills the first range
    and a pool of this call fills the others; every thread has ended when
    this returns, so none outlives it into a later fork (read_plain_csv
    forks only while one thread runs).  The first range's exception, else
    the first failed range's, propagates.
    """
    parts = max(1, min(_available_cpus(), N // _ROWS_PER_THREAD))
    if parts == 1:
        fill(0, N)
        return
    cuts = [N * i // parts for i in range(parts + 1)]
    # imported here: concurrent.futures loads multiprocessing, socket and
    # logging, which a serial run never uses
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        rest = [pool.submit(fill, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        fill(0, cuts[1])
    for f in rest:
        f.result()


def sample_stable_1d(alpha: float, rho: float, total_mass: float, N: int,
                     rng: SeededRng) -> DataMatrix:
    """Strictly stable scalars whose tails realize the spectral weights.

    P(X > x) ~ sigma(+1) x^(-alpha) with sigma(+1) = total_mass*(1+rho)/2,
    achieved by CMS with skewness rho and scale (total_mass/C_alpha)^(1/alpha).
    alpha = 1 is out of scope.

    Draw order: N uniforms u1, then N uniforms u2.  Threads fill row ranges
    from their rows' positions of that order, so the result does not depend
    on the thread count.
    """
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise UnsupportedAlpha(f"alpha={alpha} outside (0,2)\\{{1}}")
    if not (-1.0 <= rho <= 1.0):
        raise InvalidModel(f"rho={rho} outside [-1,1]")
    if total_mass <= 0.0:
        raise InvalidModel("total_mass must be positive")
    scale = _tail_scale(total_mass, stable_tail_constant(alpha), alpha)
    # the one array the caller keeps, allocated before the ranges' kernel
    # buffers, which their fills free on return (an r-sweep replication,
    # N=1e5, takes 689 minor page faults on a 2-CPU x86 VM)
    out = np.empty(N)
    _fill_rows(partial(_fill_stable_1d, out, alpha, rho, scale, rng), N)
    return _finite_sample(out, alpha)


@_overflow_checked_below
def _fill_stable_1d(out: np.ndarray, alpha: float, rho: float, scale: float,
                    rng: SeededRng, lo: int, hi: int) -> None:
    """Fill rows [lo, hi) of out: row lo's u1 sits at lo of the serial draw
    order and its u2 at N + lo."""
    u1 = rng.uniforms(lo, hi - lo)
    u2 = rng.uniforms(out.shape[0] + lo, hi - lo)
    np.multiply(_cms(alpha, rho, u1, u2), scale, out=out[lo:hi])


@_overflow_checked_below
def _add_atom_terms(out: np.ndarray, alpha: float, atoms: np.ndarray, scales,
                    rng: SeededRng, lo: int, hi: int) -> None:
    """Add every atom's term, in atom order, to rows [lo, hi) of out.

    The serial draw order is u1 then u2 for each atom in turn, N doubles
    each, so atom k's u1 for row lo sits at 2*N*k + lo and its u2 at
    2*N*k + N + lo.
    """
    N = out.shape[0]
    for k, (v, scale) in enumerate(zip(atoms, scales)):
        u1 = rng.uniforms(2 * N * k + lo, hi - lo)
        u2 = rng.uniforms(2 * N * k + N + lo, hi - lo)
        # z stays bound until the next atom's z exists; freeing it at once
        # lets malloc trim the heap every atom and fault the pages back in
        # (about 60x the minor page faults, 20% slower at N=5e4)
        z = _cms(alpha, 1.0, u1, u2)
        z *= scale
        # one column at a time: a (n, 1) * (1, d) broadcast with d = 2
        # costs more than the log1p and both powers of _cms
        for j in range(out.shape[1]):
            out[lo:hi, j] += z * v[j]


def sample_stable_vector(alpha: float, atoms, weights, N: int,
                         rng: SeededRng) -> DataMatrix:
    """Strictly stable vectors with spectral measure sum_j w_j delta_{s_j}.

    X = sum_j s_j Z_j with Z_j independent positive (totally skewed) stable
    scalars scaled so each term contributes tail weight w_j along s_j.
    ``atoms`` is the (K, d) array of directions s_j, ``weights`` the (K,)
    array of w_j.  Needs 0 < alpha < 1 so the summands are positive.

    Draw order: for each atom, N uniforms u1 then N uniforms u2.  Threads
    fill row ranges from their rows' positions of that order, so the result
    does not depend on the thread count.
    """
    if not (0.0 < alpha < 1.0):
        raise UnsupportedAlpha(f"need 0 < alpha < 1, got {alpha}")
    atoms = np.asarray(atoms, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if atoms.ndim != 2 or atoms.shape[0] == 0 or weights.shape != atoms.shape[:1]:
        raise InvalidModel("need a (K, d) atom array, K >= 1, and K weights")
    if not (weights > 0.0).all():
        raise InvalidModel("atom weights must be positive")
    c_alpha = stable_tail_constant(alpha)
    # scalar ** per atom: np.power's AVX-512 kernel rounds some scales differently
    scales = [_tail_scale(w, c_alpha, alpha) for w in weights.tolist()]
    out = np.zeros((N, atoms.shape[1]))
    _fill_rows(partial(_add_atom_terms, out, alpha, atoms, scales, rng), N)
    return _finite_sample(out, alpha)


def discretize_angular_density(model: ModelSpec,
                               K: int) -> tuple[np.ndarray, np.ndarray]:
    """K atoms at cell midpoints carrying the cell masses of a density model,
    as a (K, 2) direction array and a (K,) weight array.

    Cell masses come from a 128-point midpoint rule, one density call on the
    (K, 128) grid, and are rescaled to sum exactly to the model's total_mass.
    A total_mass whose cell masses overflow float64 raises InvalidModel.
    """
    if K < 4:
        raise InvalidModel(f"need K >= 4 cells, got {K}")
    width = 2.0 * math.pi / K
    sub = (np.arange(128) + 0.5) / 128.0
    with np.errstate(over="ignore", invalid="ignore"):
        vals = model.density_at(np.arange(K)[:, None] * width + sub * width)
        weights = vals.mean(axis=1) * width
        weights *= model.total_mass / weights.sum()
    if not np.isfinite(weights).all():
        raise InvalidModel(f"total_mass={model.total_mass} is too large: the density's "
                           f"cell weights overflow float64")
    mids = (np.arange(K) + 0.5) * width
    return np.c_[np.cos(mids), np.sin(mids)], weights
