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

`sample_stable_vector` splits its rows across up to one thread per available
CPU (one thread inside a process-pool worker).  Each thread reads the fixed positions of the Philox stream that the
serial draw order assigns to its rows, by setting the generator's counter
(`SeededRng.uniforms`), so the output does not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidDensity, InvalidModel, UnsupportedAlpha
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


def _atom_arrays(model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    dirs = np.stack([v for v, _ in model.atoms])
    w = np.array([wt for _, wt in model.atoms])
    return dirs, w


# grid resolution for inverse-cdf sampling from an angular density
_DENSITY_SAMPLING_GRID = 4096


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
    x0 = model.total_mass ** (1.0 / model.alpha)
    radius = x0 * (1.0 - u_radius) ** (-1.0 / model.alpha)
    if model.atoms is not None:
        dirs, w = _atom_arrays(model)
        cum = np.cumsum(w) / model.total_mass
        cum[-1] = 1.0
        theta = dirs[np.searchsorted(cum, u_dir, side="right")]
    else:
        edges = np.linspace(0.0, 2.0 * math.pi, _DENSITY_SAMPLING_GRID + 1)
        mids = (edges[:-1] + edges[1:]) / 2.0
        masses = np.asarray(model.density(mids), dtype=np.float64)
        if (masses < 0).any():
            raise InvalidDensity("density takes negative values")
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        cdf /= cdf[-1]
        angles = np.interp(u_dir, cdf, edges)
        theta = np.c_[np.cos(angles), np.sin(angles)]
    return DataMatrix(radius[:, None] * theta)


def sample_stable_1d(alpha: float, rho: float, total_mass: float, N: int,
                     rng: SeededRng) -> DataMatrix:
    """Strictly stable scalars whose tails realize the spectral weights.

    P(X > x) ~ sigma(+1) x^(-alpha) with sigma(+1) = total_mass*(1+rho)/2,
    achieved by CMS with skewness rho and scale (total_mass/C_alpha)^(1/alpha).
    alpha = 1 is out of scope.
    """
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise UnsupportedAlpha(f"alpha={alpha} outside (0,2)\\{{1}}")
    if not (-1.0 <= rho <= 1.0):
        raise InvalidModel(f"rho={rho} outside [-1,1]")
    if total_mass <= 0.0:
        raise InvalidModel("total_mass must be positive")
    g = rng.generator()
    u1 = g.random(N)
    u2 = g.random(N)
    scale = (total_mass / stable_tail_constant(alpha)) ** (1.0 / alpha)
    # not in place: a result allocated after the kernel's buffers leaves them
    # as a hole for the caller's next arrays.  Returning u1 lets malloc trim
    # the freed u2 and scratch off the heap top, and an r-sweep replication
    # (N=1e5) takes about 1830 minor page faults instead of 1210, refaulting
    # them for the row norms and group statistics (8000 and 1.4x the time
    # while summarize_groups recomputed the norms at every r).
    return DataMatrix(scale * _cms(alpha, rho, u1, u2))


# rows a thread needs before splitting pays: 2 threads on 16384 rows took
# 0.13-0.14 s against 0.18-0.23 s serial, on 8192 rows 0.079-0.098 s against
# 0.075-0.094 s (100 atoms, 2-CPU x86 VM)
_ROWS_PER_THREAD = 8192


def _available_cpus() -> int:
    """CPUs the sampler may fill with threads.

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


def _add_atom_terms(out: np.ndarray, alpha: float, terms, rng: SeededRng,
                    lo: int, hi: int) -> None:
    """Add every atom's term, in atom order, to rows [lo, hi) of out.

    The serial draw order is u1 then u2 for each atom in turn, N doubles
    each, so atom k's u1 for row lo sits at 2*N*k + lo and its u2 at
    2*N*k + N + lo.
    """
    N = out.shape[0]
    for k, (v, scale) in enumerate(terms):
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


def sample_stable_vector(alpha: float, atoms, N: int, rng: SeededRng) -> DataMatrix:
    """Strictly stable vectors with spectral measure sum_j w_j delta_{s_j}.

    X = sum_j s_j Z_j with Z_j independent positive (totally skewed) stable
    scalars scaled so each term contributes tail weight w_j along s_j.
    Needs 0 < alpha < 1 so the summands are positive.

    Draw order: for each atom, N uniforms u1 then N uniforms u2.  Threads
    fill row ranges from their rows' positions of that order, so the result
    does not depend on the thread count.
    """
    if not (0.0 < alpha < 1.0):
        raise UnsupportedAlpha(f"need 0 < alpha < 1, got {alpha}")
    atoms = list(atoms)
    if not atoms:
        raise InvalidModel("need at least one atom")
    c_alpha = stable_tail_constant(alpha)
    dim = np.atleast_1d(np.asarray(atoms[0][0])).shape[0]
    terms = []
    for vec, weight in atoms:
        if weight <= 0.0:
            raise InvalidModel("atom weights must be positive")
        terms.append((np.atleast_1d(np.asarray(vec, dtype=np.float64)),
                      (weight / c_alpha) ** (1.0 / alpha)))
    out = np.zeros((N, dim))
    parts = max(1, min(_available_cpus(), N // _ROWS_PER_THREAD))
    if parts == 1:
        _add_atom_terms(out, alpha, terms, rng, 0, N)
    else:
        cuts = [N * i // parts for i in range(parts + 1)]
        # a pool per call, so no thread outlives it into a later fork;
        # imported here, as concurrent.futures loads multiprocessing,
        # socket and logging, which a serial run never uses
        from concurrent.futures import ThreadPoolExecutor
        fill = partial(_add_atom_terms, out, alpha, terms, rng)
        with ThreadPoolExecutor(max_workers=parts) as pool:
            list(pool.map(fill, cuts[:-1], cuts[1:]))
    return DataMatrix(out)


def discretize_angular_density(f, total_mass: float, K: int):
    """K atoms at cell midpoints carrying the cell masses of the density.

    Cell masses come from a 128-point midpoint rule and are rescaled to sum
    exactly to total_mass.
    """
    if K < 4:
        raise InvalidModel(f"need K >= 4 cells, got {K}")
    width = 2.0 * math.pi / K
    sub = (np.arange(128) + 0.5) / 128.0
    weights = np.empty(K)
    for k in range(K):
        xs = k * width + sub * width
        vals = np.asarray(f(xs), dtype=np.float64)
        if (vals < 0).any():
            raise InvalidDensity("density takes negative values")
        weights[k] = vals.mean() * width
    total = weights.sum()
    if total <= 0.0:
        raise InvalidDensity("density integrates to zero")
    weights *= total_mass / total
    mids = (np.arange(K) + 0.5) * width
    dirs = np.c_[np.cos(mids), np.sin(mids)]
    return [(dirs[k], float(weights[k])) for k in range(K)]


def sample_polar_block_maxima(model: ModelSpec, m: int, n_groups: int,
                              rng: SeededRng) -> np.ndarray:
    """Largest norms of n_groups polar-model groups of size m, drawn directly.

    The group maximum of m exact-Pareto radii is x0 * U^(-1/alpha) with
    U ~ Beta(1, m), so one uniform per group reproduces the law of M1 without
    materializing the m underlying vectors.  Used by large-m bias experiments;
    equivalence with the full pipeline is asserted in the test suite.
    """
    if m < 1 or n_groups < 1:
        raise InvalidModel("m and n_groups must be positive")
    g = rng.generator()
    u = g.random(n_groups)
    # min of m uniforms via inverse cdf, computed in log space for large m
    u_min = -np.expm1(np.log1p(-u) / m)
    u_min = np.fmax(u_min, 1e-300)
    x0 = model.total_mass ** (1.0 / model.alpha)
    return x0 * u_min ** (-1.0 / model.alpha)
