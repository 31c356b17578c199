"""Tail index, spectral measure and total mass estimation for heavy-tailed
multivariate data via the group-maxima method, with rate-optimal tuning,
normal confidence intervals, seeded simulators and a Monte Carlo harness.
"""

__version__ = "0.1.0"

from .errors import TailspecError, EstimationWarning
from .estimators import (
    AlphaEstimate,
    TotalMassEstimate,
    alpha_ci,
    estimate_alpha,
    estimate_spectral,
    estimate_total_mass,
    rho_1d,
    spectral_cdf_2d,
    spectral_ci,
    spectral_mass,
    total_mass_ci,
)
from .grouping import plan_grouping, summarize_groups
from .numerics import gamma_fn, ks_distance, normal_cdf, normal_quantile
from .simulation import (
    SeededRng,
    discretize_angular_density,
    sample_polar,
    sample_polar_block_maxima,
    sample_stable_1d,
    sample_stable_vector,
    splitmix64,
    stable_tail_constant,
)
from .tuning import (
    AdmissibleT,
    TuningPlan,
    admissible_t,
    default_t,
    optimal_r_alpha,
    optimal_r_mass,
    optimal_r_spectral,
    plan_tuning,
)
from .types import (
    Arc,
    DataMatrix,
    GroupScheme,
    GroupStats,
    Halfspace,
    Interval,
    ModelSpec,
    NormalizedStat,
    SpectralEstimate,
    validate_data,
)

__all__ = [
    "AdmissibleT",
    "AlphaEstimate",
    "Arc",
    "DataMatrix",
    "EstimationWarning",
    "GroupScheme",
    "GroupStats",
    "Halfspace",
    "Interval",
    "ModelSpec",
    "NormalizedStat",
    "SeededRng",
    "SpectralEstimate",
    "TailspecError",
    "TotalMassEstimate",
    "TuningPlan",
    "admissible_t",
    "alpha_ci",
    "default_t",
    "discretize_angular_density",
    "estimate_alpha",
    "estimate_spectral",
    "estimate_total_mass",
    "gamma_fn",
    "ks_distance",
    "normal_cdf",
    "normal_quantile",
    "optimal_r_alpha",
    "optimal_r_mass",
    "optimal_r_spectral",
    "plan_grouping",
    "plan_tuning",
    "rho_1d",
    "sample_polar",
    "sample_polar_block_maxima",
    "sample_stable_1d",
    "sample_stable_vector",
    "spectral_cdf_2d",
    "spectral_ci",
    "spectral_mass",
    "splitmix64",
    "stable_tail_constant",
    "summarize_groups",
    "total_mass_ci",
    "validate_data",
]
