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
    estimate_report,
    estimate_spectral,
    estimate_total_mass,
    rho_1d,
    spectral_cdf_2d,
    spectral_ci,
    spectral_mass,
    total_mass_ci,
)
from .grouping import plan_grouping, summarize_groups
from .numerics import gamma_fn, normal_quantile
from .simulation import (
    SeededRng,
    discretize_angular_density,
    sample_polar,
    sample_stable_1d,
    sample_stable_vector,
    splitmix64,
    stable_tail_constant,
)
from .tuning import (
    auto_t,
    default_t,
    optimal_r_alpha,
    optimal_r_mass,
    optimal_r_spectral,
)
from .types import (
    Arc,
    DataMatrix,
    GroupScheme,
    GroupStats,
    Halfspace,
    Interval,
    ModelSpec,
    SpectralEstimate,
    validate_data,
)

__all__ = [
    "AlphaEstimate",
    "Arc",
    "DataMatrix",
    "EstimationWarning",
    "GroupScheme",
    "GroupStats",
    "Halfspace",
    "Interval",
    "ModelSpec",
    "SeededRng",
    "SpectralEstimate",
    "TailspecError",
    "TotalMassEstimate",
    "alpha_ci",
    "auto_t",
    "default_t",
    "discretize_angular_density",
    "estimate_alpha",
    "estimate_report",
    "estimate_spectral",
    "estimate_total_mass",
    "gamma_fn",
    "normal_quantile",
    "optimal_r_alpha",
    "optimal_r_mass",
    "optimal_r_spectral",
    "plan_grouping",
    "rho_1d",
    "sample_polar",
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
