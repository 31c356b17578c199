"""Monte Carlo harness: r-sweeps, spectral-cdf comparison and CI coverage.

Replications are keyed by (experiment id, replication index) into independent
RNG streams and aggregated in replication order, so results are bit-identical
whether they run serially or on a process pool.
"""

from __future__ import annotations

import math
import sys
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
    recorded_warnings,
)
from .simulation import (
    SeededRng,
    _available_cpus,
    discretize_angular_density,
    sample_polar,
    sample_stable_1d,
    sample_stable_vector,
)
from .types import DataMatrix, GroupScheme, ModelSpec, Region

# experiment ids feeding SeededRng.split
_EXP_SWEEP = 1
_EXP_ECDF = 2
_EXP_COVERAGE = 3

_COVERAGE_KIND_IDS = {"alpha": 1, "spectral": 2, "mass": 3}

DEFAULT_STABLE_ATOMS = 100  # cells when a density model feeds the stable sampler


def _refuse_past_address_space(*shape: int) -> None:
    """MemoryError naming the shape if a float64 array of it would pass
    sys.maxsize bytes: numpy raises a bare ValueError or IndexError there."""
    if math.prod(shape) * 8 > sys.maxsize:
        raise MemoryError(f"Unable to allocate an array with shape {shape} and data type "
                          f"float64: more than {sys.maxsize} bytes")


def draw_sample(model: ModelSpec, N: int, rng: SeededRng, sampler: str = "polar",
                n_atoms: int = DEFAULT_STABLE_ATOMS) -> DataMatrix:
    """One sample from the model using the requested generator.

    ``polar`` gives the exact-power-tail radius-direction construction;
    ``stable`` gives strictly stable data (CMS for d=1, positive-stable atom
    sums for d >= 2, discretizing a density model into ``n_atoms`` cells).
    """
    _refuse_past_address_space(N, model.dim)
    if sampler == "polar":
        return sample_polar(model, N, rng)
    if sampler == "stable":
        if model.dim == 1:
            return sample_stable_1d(model.alpha, model.rho, model.total_mass, N, rng)
        atoms, weights = model.atoms, model.weights
        if atoms is None:
            atoms, weights = discretize_angular_density(model, n_atoms)
        return sample_stable_vector(model.alpha, atoms, weights, N, rng)
    raise InvalidModel(f"unknown sampler {sampler!r}")


@dataclass(frozen=True)
class SweepResult:
    """Mean and spread of one estimator across an r grid."""

    one_minus_r: np.ndarray
    mean: np.ndarray
    stddev: np.ndarray
    reps: int

    def rows(self) -> list[tuple[float, float, float, int]]:
        return [
            (float(o), float(m), float(s), self.reps)
            for o, m, s in zip(self.one_minus_r, self.mean, self.stddev)
        ]


def _plan(N: int, r: float, target: str) -> GroupScheme:
    """The grouping a sweep point or the ecdf comparison uses: the rho target
    needs only each group's maximum, so it keeps m = 1; the others need
    m >= 2.  n = 1 is not warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EstimationWarning)
        return grouping.plan_grouping(N, r, min_group=1 if target == "rho" else 2)


def default_r_grid(N: int, target: str) -> list[float]:
    """r values with 1-r in {0.05, ..., 0.95} that ``_plan`` accepts."""
    out = []
    for k in range(1, 20):
        r = 1.0 - 0.05 * k
        try:
            _plan(N, r, target)
        except GroupTooSmall:
            continue
        out.append(r)
    return out


def _estimate_target(data: DataMatrix, scheme: GroupScheme, target: str,
                     model: ModelSpec) -> float:
    stats = grouping.summarize_groups(data, scheme)
    if target == "alpha":
        return estimators.estimate_alpha(stats).alpha_hat
    if target == "rho":
        return estimators.rho_1d(estimators.estimate_spectral(stats))
    t = tuning.auto_t(model.alpha, scheme.r, model.beta)  # the mass target
    return estimators.estimate_total_mass(stats, model.alpha, t).mass_hat


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


def _sweep_rep(model, N, schemes, target, sampler, n_atoms, rep_rng) -> np.ndarray:
    data = draw_sample(model, N, rep_rng, sampler, n_atoms)
    with warnings.catch_warnings():
        # grid extremes (n = 1, t past the consistency or normality bound) are
        # explored deliberately; per-point warnings would only repeat
        warnings.simplefilter("ignore", EstimationWarning)
        return np.array([_estimate_target(data, s, target, model) for s in schemes])


def run_r_sweep(model: ModelSpec, N: int, r_grid: Sequence[float], reps: int,
                target: str, rng: SeededRng, sampler: str = "stable",
                n_atoms: int = DEFAULT_STABLE_ATOMS, workers: int = 1) -> SweepResult:
    """Mean estimate per grid point over seeded replications.

    Each replication draws one sample and evaluates the whole grid on it
    (the grid shares samples, mirroring a per-sample estimator-vs-r curve).
    ``target`` is one of alpha, rho, mass; mass uses the model's alpha and,
    at each r, the t of tuning.auto_t.
    """
    if reps < 1:
        raise EmptyExperiment("reps must be >= 1")
    r_grid = list(r_grid)
    if not r_grid:
        raise ValueError("empty r grid")
    schemes = [_plan(N, r, target) for r in r_grid]
    if target not in ("alpha", "rho", "mass"):
        raise ValueError(f"unknown target {target!r}")
    per_rep = _run_reps(partial(_sweep_rep, model, N, schemes, target, sampler, n_atoms),
                        [rng.split(_EXP_SWEEP, rep) for rep in range(reps)], workers)
    table = np.stack(per_rep)  # (reps, n_r), replication order
    one_minus_r = 1.0 - np.asarray(r_grid, dtype=np.float64)
    order = np.argsort(one_minus_r, kind="stable")
    mean = table.mean(axis=0)[order]
    std = (table.std(axis=0, ddof=1) if reps > 1
           else np.zeros(table.shape[1]))[order]
    return SweepResult(one_minus_r=one_minus_r[order], mean=mean, stddev=std, reps=reps)


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
    _refuse_past_address_space(grid_size + 1)  # np.linspace's array
    scheme = _plan(N, r, "spectral")
    data = draw_sample(model, N, rng.split(_EXP_ECDF, 0), sampler, n_atoms)
    est = estimators.estimate_spectral(grouping.summarize_groups(data, scheme))
    angles = np.linspace(0.0, 2.0 * math.pi, grid_size + 1)[1:]
    est_cdf = estimators.spectral_cdf_2d(est, angles)[:, 1]
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
    warnings: tuple[str, ...] = ()  # each EstimationWarning text, once

    @property
    def coverage(self) -> float:
        return self.hits / self.reps


def _coverage_rep(model, N, r, kind, level, sampler, n_atoms, region, truth, t,
                  rep_rng) -> tuple[bool, list[str]]:
    """Whether the interval that the ``estimate`` document of one
    replication's sample reports contains the truth (an undefined interval
    misses), and that document's warnings."""
    data = draw_sample(model, N, rep_rng, sampler, n_atoms)
    regions = [("", region)] if kind == "spectral" else ()
    doc = estimators.estimate_report(data, r, model.alpha, t, model.beta, regions, level)
    ci = doc["spectral"]["regions"][0].get("ci") if kind == "spectral" else doc[kind]["ci"]
    return ci is not None and ci["lo"] <= truth <= ci["hi"], doc["warnings"]


def run_ci_coverage(model: ModelSpec, N: int, r: float, kind: str,
                    level: float, reps: int, rng: SeededRng,
                    sampler: str = "polar", region: Region | None = None,
                    n_atoms: int = DEFAULT_STABLE_ATOMS,
                    workers: int = 1) -> CoverageResult:
    """Fraction of replications whose CI contains the model truth.

    kind is alpha, spectral (needs a region) or mass, at grouping exponent
    r.  Each replication reads its interval from estimators.estimate_report,
    with the model's alpha and beta and the t of tuning.auto_t; a
    replication whose interval is undefined counts as a miss.  The
    warnings of the replications' reports, about every entry and not only
    the one measured, are not raised: the result lists each text once, in
    the order first seen.  With workers > 1 the model and the
    region, an Arc or a Halfspace, are pickled into the workers.
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
    # t depends on alpha, r and beta only: tuned once, its note kept once and
    # only where the interval reads t
    with recorded_warnings() as t_notes:
        t = tuning.auto_t(model.alpha, r, model.beta)
    notes = t_notes if kind == "mass" else []
    rngs = [rng.split(_EXP_COVERAGE, _COVERAGE_KIND_IDS[kind], rep) for rep in range(reps)]
    results = _run_reps(partial(_coverage_rep, model, N, r, kind, level, sampler, n_atoms,
                                region, truth, t), rngs, workers)
    for _, rep_notes in results:
        notes.extend(rep_notes)
    return CoverageResult(kind=kind, level=level, reps=reps,
                          hits=int(sum(hit for hit, _ in results)), truth=truth,
                          warnings=tuple(dict.fromkeys(notes)))
