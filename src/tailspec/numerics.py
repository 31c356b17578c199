"""Special functions needed by the estimators.

Gamma and the normal quantile come from the standard library; the wrappers
here add the domain checks the estimators rely on.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import DomainError


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if not (x > 0.0):
        raise DomainError(f"gamma_fn needs x > 0, got {x}")
    return math.gamma(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal cdf for 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"normal_quantile needs 0 < p < 1, got {p}")
    return NormalDist().inv_cdf(p)
