"""Rate-optimal choices of the grouping exponent r and the mass exponent t.

One rule per tuned exponent: ``auto_r`` picks r for an estimator kind and
``auto_t`` picks t; ``--r auto``, ``--t auto`` and the Monte Carlo harness
all go through them.  Both take the tail index alpha and a second-order
exponent beta > alpha (beta = 2*alpha is the right default for strictly
stable data); the r rules add a slack epsilon > 0.  Rules whose hypotheses
fail raise InvalidSecondOrder rather than clamping.
"""

from __future__ import annotations

import math
import warnings

from .errors import EstimationWarning, InvalidSecondOrder

DEFAULT_EPSILON = 0.05
DEFAULT_BETA_FACTOR = 2.0  # beta = 2*alpha when the user gives no beta


def _check_eps(epsilon: float) -> None:
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon={epsilon} outside (0, 1/2)")
    if 1.0 - epsilon == 1.0:  # the cap 1 - epsilon of the r rules
        raise ValueError(f"epsilon={epsilon} too small: 1 - epsilon rounds to 1")


def _check_beta(alpha: float, beta: float) -> None:
    if not (alpha > 0.0 and beta > alpha):  # NaN fails too
        raise InvalidSecondOrder(f"need beta > alpha > 0, got alpha={alpha}, beta={beta}")


def _rate_r(alpha: float, beta: float, epsilon: float, zeta_cap: float) -> float:
    """r = 2*zeta/(1+2*zeta) - epsilon, at most 1 - epsilon, with
    zeta = min((beta-alpha)/alpha, zeta_cap); beta = inf gives zeta_cap."""
    _check_eps(epsilon)
    _check_beta(alpha, beta)
    zeta = min((beta - alpha) / alpha, zeta_cap)
    if math.isinf(2.0 * zeta):
        return 1.0 - epsilon  # the limit zeta -> inf, where inf/inf would give NaN
    r = min(2.0 * zeta / (1.0 + 2.0 * zeta) - epsilon, 1.0 - epsilon)
    if r <= 0.0:
        raise InvalidSecondOrder(
            f"beta={beta} too close to alpha={alpha}: no admissible r at epsilon={epsilon}"
        )
    return r


def optimal_r_alpha(alpha: float, beta: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Group-count exponent minimizing the tail-index estimator's error.

    r = 2*zeta/(1+2*zeta) - epsilon with zeta = (beta-alpha)/alpha; beta=inf
    gives the cap 1 - epsilon.
    """
    return _rate_r(alpha, beta, epsilon, math.inf)


def optimal_r_spectral(alpha: float, beta: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Same rule as optimal_r_alpha but with zeta capped at 1."""
    return _rate_r(alpha, beta, epsilon, 1.0)


def optimal_r_mass(alpha: float, beta: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Group-count exponent for the total-mass normality regime.

    Requires beta > alpha + 1.  Returns 1/2 - epsilon for
    beta > (11/8)alpha + 1 and the radical formula below that threshold; the
    two branches agree at the threshold.
    """
    if epsilon != 0.0:
        _check_eps(epsilon)
    if not (alpha > 0.0 and beta > alpha + 1.0):
        raise InvalidSecondOrder(
            f"mass tuning needs beta > alpha + 1, got alpha={alpha}, beta={beta}"
        )
    if beta > 11.0 / 8.0 * alpha + 1.0:
        r = 0.5 - epsilon
    else:
        u = beta - 1.0
        disc = 16.0 * u * u - 8.0 * alpha * u - 7.0 * alpha * alpha
        # positive whenever beta > alpha + 1; a negative radicand is a bug
        assert disc >= 0.0, f"negative discriminant for alpha={alpha}, beta={beta}"
        r = (3.0 * alpha - 4.0 * u + math.sqrt(disc)) / (2.0 * alpha) - epsilon
    if r <= 0.0:
        raise InvalidSecondOrder(
            f"beta={beta} too close to alpha+1: no admissible r at epsilon={epsilon}"
        )
    return r


def auto_r(kind: str, alpha: float, beta: float | None = None,
           epsilon: float = DEFAULT_EPSILON) -> float:
    """The ``--r auto`` exponent for estimator kind alpha, spectral or mass.

    beta=None means 2*alpha.  The mass rule needs beta > alpha + 1; below
    that the tail-index rule gives the grouping (same grouping, still
    consistent).
    """
    if beta is None:
        beta = DEFAULT_BETA_FACTOR * alpha
    if kind == "alpha" or (kind == "mass" and beta <= alpha + 1.0):
        return optimal_r_alpha(alpha, beta, epsilon)
    if kind == "spectral":
        return optimal_r_spectral(alpha, beta, epsilon)
    if kind == "mass":
        return optimal_r_mass(alpha, beta, epsilon)
    raise ValueError(f"unknown estimator kind {kind!r}")


def default_t(alpha: float, r: float) -> float:
    """Default mass exponent: half of min(alpha*r/4, 1).

    Sits strictly inside both the consistency range t < alpha*r/2 and the
    case-a normality range t < alpha*r/4.
    """
    if not alpha > 0.0:
        raise InvalidSecondOrder(f"alpha={alpha} must be positive")
    if not (0.0 < r < 1.0):
        raise ValueError(f"r={r} outside (0,1)")
    return 0.5 * min(alpha * r / 4.0, 1.0)


def auto_t(alpha: float, r: float, beta: float | None = None) -> float:
    """The ``--t auto`` mass exponent, default_t(alpha, r).

    beta=None means 2*alpha; a given beta must exceed alpha, as for the r
    rules, or InvalidSecondOrder is raised.  In the paper's case b,
    (11/8)alpha + 1 < beta < (3/2)alpha + 1, the mass estimator is
    asymptotically normal only for t < min((3*alpha + 2 - 2*beta)/2, 1); a
    t at or past that bound is kept and an EstimationWarning coded
    ``t-outside-normality`` says so.
    """
    t = default_t(alpha, r)
    if beta is None:
        beta = DEFAULT_BETA_FACTOR * alpha
    else:
        _check_beta(alpha, beta)
    if 11.0 / 8.0 * alpha + 1.0 < beta < 1.5 * alpha + 1.0:
        t_max = min((3.0 * alpha + 2.0 - 2.0 * beta) / 2.0, 1.0)
        if t >= t_max:
            warnings.warn(
                f"t-outside-normality: t={t:.6g} is not below the case-b normality "
                f"bound min((3*alpha+2-2*beta)/2, 1) = {t_max:.6g} "
                f"(alpha={alpha:.6g}, beta={beta:.6g})",
                EstimationWarning, stacklevel=2)
    return t
