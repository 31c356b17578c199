"""Monte Carlo helpers shared by the tests.

The limit-law and bias-decay checks of the group maxima, the direct
block-maxima sampler behind the bias check, the acceptance suite's models
and cached runs, and the key of the golden digests.  Only tests read them, so they live here and not in the
package; the tests import this module (pytest puts tests/ on sys.path).
"""

import functools
import math
import platform
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.stats

from tailspec import estimators, grouping
from tailspec.errors import EmptyExperiment, GroupTooSmall, InvalidModel
from tailspec.experiments import (EcdfComparison, SweepResult, draw_sample, run_ecdf_compare,
                                  run_r_sweep)
from tailspec.simulation import SeededRng, sample_polar
from tailspec.types import GroupScheme, Interval, ModelSpec

def digest_key() -> tuple[str, str, bool]:
    """(numpy version, machine, AVX-512 dispatch), the key of a golden digest:
    numpy's float64 kernels round differently across each of them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return np.__version__, platform.machine(), bool(__cpu_features__.get("AVX512_SKX"))


# experiment ids feeding SeededRng.split, after tailspec.experiments' 1-3
_EXP_FRECHET = 4
_EXP_BIAS = 5


def sample_polar_block_maxima(model: ModelSpec, m: int, n_groups: int,
                              rng: SeededRng) -> np.ndarray:
    """Largest norms of n_groups polar-model groups of size m, drawn directly.

    The group maximum of m exact-Pareto radii is x0 * U^(-1/alpha) with
    U ~ Beta(1, m), so one uniform per group reproduces the law of M1 without
    materializing the m underlying vectors.
    """
    if m < 1 or n_groups < 1:
        raise InvalidModel("m and n_groups must be positive")
    u = rng.generator().random(n_groups)
    # min of m uniforms via inverse cdf, computed in log space for large m
    u_min = np.fmax(-np.expm1(np.log1p(-u) / m), 1e-300)
    x0 = model.total_mass ** (1.0 / model.alpha)
    return x0 * u_min ** (-1.0 / model.alpha)


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
    def limit_cdf(x):  # q > 0: every radius is at least sigma(S)^(1/alpha)
        return np.exp(-model.total_mass * x ** (-model.alpha))

    return float(scipy.stats.kstest(q, limit_cdf).statistic)


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
    absolute value.  Group maxima come from sample_polar_block_maxima, which
    makes group sizes like 10^4 affordable.
    """
    if reps < 1:
        raise EmptyExperiment("reps must be >= 1")
    alpha, sigma = model.alpha, model.total_mass
    target = math.gamma(1.0 - t / alpha) * sigma ** (t / alpha)
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


def example2_model() -> ModelSpec:
    return ModelSpec(alpha=0.75, total_mass=1.0, beta=1.5, density="abscos2t")


def polar_ground_truth_model() -> ModelSpec:
    return ModelSpec(alpha=1.0, total_mass=2.0,
                     atoms=[[1.0, 0.0], [0.0, 1.0]], weights=[1.2, 0.8])


def coverage_model() -> ModelSpec:
    # atoms placed inside quadrant interiors so the quadrant arc is a
    # continuity set of the spectral measure
    s = math.sqrt(0.5)
    return ModelSpec(alpha=1.0, total_mass=2.0,
                     atoms=[[s, s], [-s, s]], weights=[1.2, 0.8])


def example2_replication(seed: int, rep: int):
    """One Example-2 style run: alpha, mass (known alpha) and both CI
    halfwidths as the ``estimate`` document reports them, and the plug-in
    mass reported alongside (not part of the tolerance checks)."""
    model = example2_model()
    data = draw_sample(model, 50000, SeededRng(seed).split(100, rep),
                       "stable", n_atoms=100)
    doc = estimators.estimate_report(data, 0.5, model.alpha, beta=model.beta)
    return (doc["alpha"]["hat"], Interval(**doc["alpha"]["ci"]).halfwidth,
            doc["mass"]["hat"], Interval(**doc["mass"]["ci"]).halfwidth,
            estimators.estimate_report(data, 0.5)["mass"]["hat"])


@functools.lru_cache(maxsize=None)
def example2_runs(seed: int) -> tuple:
    """The 20 Example-2 replications of a master seed: criterion 1 and its
    oracle read the same runs."""
    return tuple(example2_replication(seed, rep) for rep in range(20))


@functools.lru_cache(maxsize=None)
def ecdf_runs(seed: int) -> tuple[EcdfComparison, ...]:
    """Criterion 2's 20 spectral-cdf comparisons of a master seed: the
    criterion and its oracle read the same runs."""
    return tuple(run_ecdf_compare(example2_model(), 50000, 0.5, 256,
                                  SeededRng(seed).split(rep),
                                  sampler="stable", n_atoms=100)
                 for rep in range(20))


@functools.lru_cache(maxsize=None)
def example1_sweep(seed: int) -> SweepResult:
    """Criterion 3's Example-1 rho sweep (stable scalars, alpha 1.75, rho
    0.5) over 1-r in {0.05, ..., 0.95}, 50 reps: the criterion and its oracle
    read the same sweep."""
    model = ModelSpec(alpha=1.75, total_mass=1.0, beta=3.5,
                      atoms=[[1.0], [-1.0]], weights=[0.75, 0.25])
    grid = [1.0 - 0.05 * k for k in range(1, 20)]
    return run_r_sweep(model, 100000, grid, reps=50, target="rho",
                       rng=SeededRng(seed), sampler="stable")
