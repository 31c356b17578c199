"""Special functions needed by the estimators and their test oracles.

Gamma and the normal quantile come from the standard library; the wrappers
here add the domain checks the estimators rely on.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EmptyInput


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if not (x > 0.0) or math.isnan(x):
        raise DomainError(f"gamma_fn needs x > 0, got {x}")
    return math.gamma(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal cdf for 0 < p < 1."""
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise DomainError(f"normal_quantile needs 0 < p < 1, got {p}")
    return NormalDist().inv_cdf(p)


def ks_distance(samples: Sequence[float] | np.ndarray,
                cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference cdf.

    ``cdf`` must accept a sorted numpy array (vectorized) or a scalar.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if xs.size == 0:
        raise EmptyInput("ks_distance needs at least one sample")
    try:
        f = np.asarray(cdf(xs), dtype=np.float64)
        if f.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.array([float(cdf(x)) for x in xs])
    n = xs.size
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max(), 0.0))
