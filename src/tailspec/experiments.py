"""Monte Carlo harness: r-sweeps, cdf comparison, CI coverage, limit-law checks.

Replications are keyed by (experiment id, replication index) into independent
RNG streams and aggregated in replication order, so results are bit-identical
whether they run serially or on a process pool.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import estimators, grouping, tuning
from .errors import (
    DimensionMismatch,
    EmptyExperiment,
    EstimationWarning,
    GroupTooSmall,
    InvalidModel,
)
from .numerics import gamma_fn, ks_distance
from .simulation import (
    SeededRng,
    _available_cpus,
    discretize_angular_density,
    sample_polar,
    sample_polar_block_maxima,
    sample_stable_1d,
    sample_stable_vector,
)
from .types import DataMatrix, GroupScheme, ModelSpec, Region

# experiment ids feeding SeededRng.split
_EXP_SWEEP = 1
_EXP_ECDF = 2
_EXP_COVERAGE = 3
_EXP_FRECHET = 4
_EXP_BIAS = 5

_COVERAGE_KIND_IDS = {"alpha": 1, "spectral": 2, "mass": 3}

DEFAULT_STABLE_ATOMS = 100  # cells when a density model feeds the stable sampler


def draw_sample(model: ModelSpec, N: int, rng: SeededRng, sampler: str = "polar",
                n_atoms: int = DEFAULT_STABLE_ATOMS) -> DataMatrix:
    """One sample from the model using the requested generator.

    ``polar`` gives the exact-power-tail radius-direction construction;
    ``stable`` gives strictly stable data (CMS for d=1, positive-stable atom
    sums for d >= 2, discretizing a density model into ``n_atoms`` cells).
    """
    if sampler == "polar":
        return sample_polar(model, N, rng)
    if sampler == "stable":
        if model.dim == 1:
            return sample_stable_1d(model.alpha, model.rho, model.total_mass, N, rng)
        atoms = model.atoms
        if atoms is None:
            atoms = discretize_angular_density(model.density, model.total_mass,
                                               n_atoms)
        return sample_stable_vector(model.alpha, atoms, N, rng)
    raise InvalidModel(f"unknown sampler {sampler!r}")


@dataclass(frozen=True)
class SweepResult:
    """Mean and spread of one estimator across an r grid."""

    target: str
    one_minus_r: np.ndarray
    mean: np.ndarray
    stddev: np.ndarray
    reps: int

    def rows(self) -> list[tuple[float, float, float, int]]:
        return [
            (float(o), float(m), float(s), self.reps)
            for o, m, s in zip(self.one_minus_r, self.mean, self.stddev)
        ]

    def at(self, one_minus_r: float, tol: float = 1e-9) -> float:
        """Mean estimate at a grid point (exact lookup)."""
        idx = np.nonzero(np.abs(self.one_minus_r - one_minus_r) <= tol)[0]
        if idx.size != 1:
            raise KeyError(f"1-r={one_minus_r} not on the grid")
        return float(self.mean[idx[0]])


def default_r_grid(N: int, target: str) -> list[float]:
    """r values with 1-r in {0.05, ..., 0.95}, filtered by feasibility.

    The rho target keeps singleton-group points (only the maximum direction is
    needed); other targets require m >= 2.
    """
    min_group = 1 if target == "rho" else 2
    out = []
    for k in range(1, 20):
        r = 1.0 - 0.05 * k
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EstimationWarning)
                grouping.plan_grouping(N, r, min_group=min_group)
        except GroupTooSmall:
            continue
        out.append(r)
    return out


def _estimate_target(data: DataMatrix, r: float, target: str,
                     alpha_true: float | None) -> float:
    min_group = 1 if target == "rho" else 2
    with warnings.catch_warnings():
        # grid extremes (n = 1 or t past the consistency bound) are explored
        # deliberately in sweeps; per-point warnings would only repeat
        warnings.simplefilter("ignore", EstimationWarning)
        scheme = grouping.plan_grouping(data.rows, r, min_group=min_group)
        stats = grouping.summarize_groups(data, scheme)
        if target == "alpha":
            return estimators.estimate_alpha(stats).alpha_hat
        if target == "rho":
            return estimators.rho_1d(estimators.estimate_spectral(stats))
        if target == "mass":
            t = tuning.default_t(alpha_true, r)
            return estimators.estimate_total_mass(stats, scheme.m,
                                                  alpha_true, t).mass_hat
    raise ValueError(f"unknown target {target!r}")


def _run_reps(rep: Callable, rngs: Sequence[SeededRng], workers: int) -> list:
    """``[rep(rng) for rng in rngs]``, in order, serially or on a pool of at
    most one process per available CPU and per replication."""
    workers = min(workers, len(rngs), _available_cpus())
    if workers <= 1:
        return [rep(rng) for rng in rngs]
    # imported where a pool starts: it loads multiprocessing, socket and
    # logging, which serial runs never use
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(rep, rngs))


def _sweep_rep(model, N, r_grid, target, sampler, n_atoms, rep_rng) -> np.ndarray:
    data = draw_sample(model, N, rep_rng, sampler, n_atoms)
    alpha_true = model.alpha
    return np.array(
        [_estimate_target(data, r, target, alpha_true) for r in r_grid]
    )


def run_r_sweep(model: ModelSpec, N: int, r_grid: Sequence[float], reps: int,
                target: str, rng: SeededRng, sampler: str = "stable",
                n_atoms: int = DEFAULT_STABLE_ATOMS, workers: int = 1) -> SweepResult:
    """Mean estimate per grid point over seeded replications.

    Each replication draws one sample and evaluates the whole grid on it
    (the grid shares samples, mirroring a per-sample estimator-vs-r curve).
    ``target`` is one of alpha, rho, mass; mass uses the model's alpha and the
    default t at each r.
    """
    if reps < 1:
        raise EmptyExperiment("reps must be >= 1")
    r_grid = list(r_grid)
    if not r_grid:
        raise ValueError("empty r grid")
    per_rep = _run_reps(partial(_sweep_rep, model, N, r_grid, target, sampler, n_atoms),
                        [rng.split(_EXP_SWEEP, rep) for rep in range(reps)], workers)
    table = np.stack(per_rep)  # (reps, n_r), replication order
    one_minus_r = 1.0 - np.asarray(r_grid, dtype=np.float64)
    order = np.argsort(one_minus_r, kind="stable")
    mean = table.mean(axis=0)[order]
    std = (table.std(axis=0, ddof=1) if reps > 1
           else np.zeros(table.shape[1]))[order]
    return SweepResult(target=target, one_minus_r=one_minus_r[order], mean=mean,
                       stddev=std, reps=reps)


@dataclass(frozen=True)
class EcdfComparison:
    """Estimated vs exact normalized spectral cdf on an angle grid."""

    angles: np.ndarray
    estimated: np.ndarray
    exact: np.ndarray
    sup_distance: float  # sup over the grid rows
    n_atoms_estimate: int

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(a), float(e), float(x))
            for a, e, x in zip(self.angles, self.estimated, self.exact)
        ]


def run_ecdf_compare(model: ModelSpec, N: int, r: float, grid_size: int,
                     rng: SeededRng, sampler: str = "stable",
                     n_atoms: int = DEFAULT_STABLE_ATOMS) -> EcdfComparison:
    """Estimate the d=2 spectral cdf from one sample and compare to the model.

    The grid is grid_size equally spaced angles ending at 2*pi; the reported
    sup-distance is taken over those rows.
    """
    if model.dim != 2:
        raise DimensionMismatch("ecdf comparison needs a d=2 model")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    data = draw_sample(model, N, rng.split(_EXP_ECDF, 0), sampler, n_atoms)
    scheme = grouping.plan_grouping(N, r)
    est = estimators.estimate_spectral(grouping.summarize_groups(data, scheme))
    angles = np.linspace(0.0, 2.0 * math.pi, grid_size + 1)[1:]
    est_cdf = np.array([v for _, v in estimators.spectral_cdf_2d(est, angles)])
    exact_cdf = model.spectral_cdf(angles)
    sup = float(np.abs(est_cdf - exact_cdf).max())
    return EcdfComparison(angles=angles, estimated=est_cdf, exact=exact_cdf,
                          sup_distance=sup, n_atoms_estimate=est.n)


@dataclass(frozen=True)
class CoverageResult:
    kind: str
    level: float
    reps: int
    hits: int
    truth: float

    @property
    def coverage(self) -> float:
        return self.hits / self.reps


def _coverage_rep(model, N, r, kind, level, sampler, n_atoms, region, truth,
                  alpha_mode, rep_rng) -> bool:
    data = draw_sample(model, N, rep_rng, sampler, n_atoms)
    scheme = grouping.plan_grouping(N, r)
    stats = grouping.summarize_groups(data, scheme)
    if kind == "alpha":
        ci = estimators.alpha_ci(estimators.estimate_alpha(stats), level)
    elif kind == "spectral":
        est = estimators.estimate_spectral(stats)
        ci = estimators.spectral_ci(est, region, level)
    else:
        alpha_used = (model.alpha if alpha_mode == "true"
                      else estimators.estimate_alpha(stats).alpha_hat)
        t = tuning.default_t(alpha_used, r)
        tm = estimators.estimate_total_mass(stats, scheme.m, alpha_used, t)
        ci = estimators.total_mass_ci(tm, level)
    return ci.contains(truth)


def run_ci_coverage(model: ModelSpec, N: int, r: float | None, kind: str,
                    level: float, reps: int, rng: SeededRng,
                    sampler: str = "polar", region: Region | None = None,
                    alpha_mode: str = "true",
                    n_atoms: int = DEFAULT_STABLE_ATOMS,
                    workers: int = 1) -> CoverageResult:
    """Fraction of replications whose CI contains the model truth.

    kind is alpha, spectral (needs a region) or mass.  r=None selects the
    kind's exponent from the model's alpha and beta (tuning.auto_r).  The
    mass CI uses the model's alpha unless alpha_mode="plugin".  With
    workers > 1 the model and the region are pickled into the workers: an
    Arc, a Halfspace, a NamedDensity or a module-level function works, a
    lambda does not.
    """
    if reps < 1:
        raise EmptyExperiment("reps must be >= 1")
    if kind not in _COVERAGE_KIND_IDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if kind == "spectral":
        if region is None:
            raise ValueError("spectral coverage needs a region")
        truth = model.normalized_mass(region)
    elif kind == "alpha":
        truth = model.alpha
    else:
        truth = model.total_mass
    if r is None:
        r = tuning.auto_r(kind, model.alpha, model.beta)
    kind_id = _COVERAGE_KIND_IDS[kind]
    flags = _run_reps(partial(_coverage_rep, model, N, r, kind, level, sampler, n_atoms,
                              region, truth, alpha_mode),
                      [rng.split(_EXP_COVERAGE, kind_id, rep) for rep in range(reps)],
                      workers)
    return CoverageResult(kind=kind, level=level, reps=reps,
                          hits=int(sum(flags)), truth=truth)


def run_frechet_check(model: ModelSpec, m: int, n_groups: int,
                      rng: SeededRng) -> float:
    """KS distance of scaled group maxima to their limiting heavy-tail law.

    Draws n_groups polar groups of size m through the full grouping pipeline,
    forms q = M1 / m^(1/alpha) with the model's alpha, and returns the KS
    distance to F(x) = exp(-sigma(S) x^(-alpha)).
    """
    if m < 2:
        raise GroupTooSmall("frechet check needs m >= 2")
    if n_groups < 1:
        raise EmptyExperiment("n_groups must be >= 1")
    N = m * n_groups
    data = sample_polar(model, N, rng.split(_EXP_FRECHET, 0))
    # record the implied exponent; the scheme is built explicitly from (n, m)
    r = min(max(math.log(max(n_groups, 2)) / math.log(N), 1e-6), 1.0 - 1e-6)
    scheme = GroupScheme(r=r, n=n_groups, m=m, discarded=0)
    q = grouping.summarize_groups(data, scheme).m1 / m ** (1.0 / model.alpha)
    sigma = model.total_mass
    alpha = model.alpha

    def limit_cdf(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-sigma * x[pos] ** (-alpha))
        return out

    return ks_distance(q, limit_cdf)


@dataclass(frozen=True)
class BiasDecayResult:
    m: int
    groups: int
    abs_bias: float  # |grand mean of q^t - Gamma(1-t/alpha) sigma^(t/alpha)|


def run_bias_decay(model: ModelSpec, t: float, m_values: Sequence[int],
                   groups_per_rep: int, reps: int,
                   rng: SeededRng) -> list[BiasDecayResult]:
    """Absolute bias of the mean of q^t against its limit, per group size.

    The bias is an expectation, so it is estimated by averaging the signed
    deviation over reps x groups_per_rep group maxima and then taking the
    absolute value.  Group maxima are drawn directly from their exact polar
    law (see sample_polar_block_maxima), which makes group sizes like 10^4
    affordable.
    """
    if reps < 1:
        raise EmptyExperiment("reps must be >= 1")
    alpha, sigma = model.alpha, model.total_mass
    target = gamma_fn(1.0 - t / alpha) * sigma ** (t / alpha)
    out = []
    for mi, m in enumerate(m_values):
        acc = 0.0
        for rep in range(reps):
            m1 = sample_polar_block_maxima(model, m, groups_per_rep,
                                           rng.split(_EXP_BIAS, mi, rep))
            q = m1 / m ** (1.0 / alpha)
            acc += float(np.mean(q ** t))
        out.append(BiasDecayResult(m=m, groups=reps * groups_per_rep,
                                   abs_bias=abs(acc / reps - target)))
    return out
