"""Rate-optimal choices of the grouping exponent r and the mass exponent t.

All rules take the tail index alpha and a second-order exponent beta > alpha
(beta = 2*alpha is the right default for strictly stable data) plus a slack
epsilon > 0.  Rules whose hypotheses fail raise InvalidSecondOrder rather
than clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSecondOrder

DEFAULT_EPSILON = 0.05
DEFAULT_BETA_FACTOR = 2.0  # beta = 2*alpha when the user gives no beta

CASE_SMALL_BETA = "a-small-beta"   # alpha+1 < beta <= (11/8)alpha + 1
CASE_LARGE_BETA = "a-large-beta"   # beta >= (3/2)alpha + 1
CASE_MIDDLE_BETA = "b-middle-beta"  # (11/8)alpha + 1 < beta < (3/2)alpha + 1


def _check_eps(epsilon: float) -> None:
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon={epsilon} outside (0, 1/2)")


def optimal_r_alpha(alpha: float, beta: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Group-count exponent minimizing the tail-index estimator's error.

    r = 2*zeta/(1+2*zeta) - epsilon with zeta = (beta-alpha)/alpha; beta=inf
    gives the cap 1 - epsilon.
    """
    _check_eps(epsilon)
    if alpha <= 0.0 or beta <= alpha:
        raise InvalidSecondOrder(f"need beta > alpha > 0, got alpha={alpha}, beta={beta}")
    if math.isinf(beta):
        return 1.0 - epsilon
    zeta = (beta - alpha) / alpha
    r = min(2.0 * zeta / (1.0 + 2.0 * zeta) - epsilon, 1.0 - epsilon)
    if r <= 0.0:
        raise InvalidSecondOrder(
            f"beta={beta} too close to alpha={alpha}: no admissible r at epsilon={epsilon}"
        )
    return r


def optimal_r_spectral(alpha: float, beta: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Same rule as optimal_r_alpha but with zeta capped at 1."""
    _check_eps(epsilon)
    if alpha <= 0.0 or beta <= alpha:
        raise InvalidSecondOrder(f"need beta > alpha > 0, got alpha={alpha}, beta={beta}")
    zeta = 1.0 if math.isinf(beta) else min((beta - alpha) / alpha, 1.0)
    r = 2.0 * zeta / (1.0 + 2.0 * zeta) - epsilon
    if r <= 0.0:
        raise InvalidSecondOrder(
            f"beta={beta} too close to alpha={alpha}: no admissible r at epsilon={epsilon}"
        )
    return r


def optimal_r_mass(alpha: float, beta: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Group-count exponent for the total-mass normality regime.

    Requires beta > alpha + 1.  Returns 1/2 - epsilon for
    beta > (11/8)alpha + 1 and the radical formula below that threshold; the
    two branches agree at the threshold.
    """
    if epsilon != 0.0:
        _check_eps(epsilon)
    if alpha <= 0.0 or beta <= alpha + 1.0:
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


@dataclass(frozen=True)
class AdmissibleT:
    t_max: float
    case_label: str
    t_max_consistency: float  # alpha*r/2, the strong-consistency range


def admissible_t(alpha: float, beta: float, r: float) -> AdmissibleT:
    """Upper bound on the mass exponent t for asymptotic normality.

    Case a (beta in (alpha+1, (11/8)alpha+1] or beta >= (3/2)alpha+1):
    t < min(alpha*r/4, 1).  Case b (between): t < min((3alpha+2-2beta)/2, 1).
    Also carries the consistency bound alpha*r/2.
    """
    if alpha <= 0.0 or beta <= alpha + 1.0:
        raise InvalidSecondOrder(
            f"admissible_t needs beta > alpha + 1, got alpha={alpha}, beta={beta}"
        )
    if not (0.0 < r < 1.0):
        raise ValueError(f"r={r} outside (0,1)")
    lo_thresh = 11.0 / 8.0 * alpha + 1.0
    hi_thresh = 1.5 * alpha + 1.0
    if beta <= lo_thresh:
        label, t_max = CASE_SMALL_BETA, min(alpha * r / 4.0, 1.0)
    elif beta >= hi_thresh:
        label, t_max = CASE_LARGE_BETA, min(alpha * r / 4.0, 1.0)
    else:
        label, t_max = CASE_MIDDLE_BETA, min((3.0 * alpha + 2.0 - 2.0 * beta) / 2.0, 1.0)
    return AdmissibleT(t_max=t_max, case_label=label, t_max_consistency=alpha * r / 2.0)


def default_t(alpha: float, r: float) -> float:
    """Default mass exponent: half of min(alpha*r/4, 1).

    Sits strictly inside both the consistency range t < alpha*r/2 and the
    case-a normality range t < alpha*r/4.
    """
    if alpha <= 0.0:
        raise InvalidSecondOrder(f"alpha={alpha} must be positive")
    if not (0.0 < r < 1.0):
        raise ValueError(f"r={r} outside (0,1)")
    return 0.5 * min(alpha * r / 4.0, 1.0)


@dataclass(frozen=True)
class TuningPlan:
    """All tuning outputs for one (alpha, beta, epsilon) triple.

    ``r_mass`` and ``t_max_normality`` are None when beta <= alpha + 1, where
    the mass-normality rule has no admissible exponent.
    """

    alpha: float
    beta: float
    epsilon: float
    zeta: float
    r_alpha: float
    r_spectral: float
    r_mass: float | None
    t_max_consistency: float
    t_max_normality: float | None
    t_default: float


def plan_tuning(alpha: float, beta: float | None = None,
                epsilon: float = DEFAULT_EPSILON) -> TuningPlan:
    """Bundle every tuning rule; beta defaults to 2*alpha (stable-tail case).

    t bounds and the default t are evaluated at the grouping exponent actually
    recommended for estimation, which is r_alpha.
    """
    if beta is None:
        beta = DEFAULT_BETA_FACTOR * alpha
    r_a = optimal_r_alpha(alpha, beta, epsilon)
    r_s = optimal_r_spectral(alpha, beta, epsilon)
    if beta > alpha + 1.0:
        r_m = optimal_r_mass(alpha, beta, epsilon)
        t_norm = admissible_t(alpha, beta, r_m).t_max
    else:
        r_m = t_norm = None
    zeta = math.inf if math.isinf(beta) else (beta - alpha) / alpha
    return TuningPlan(
        alpha=alpha,
        beta=beta,
        epsilon=epsilon,
        zeta=zeta,
        r_alpha=r_a,
        r_spectral=r_s,
        r_mass=r_m,
        t_max_consistency=alpha * r_a / 2.0,
        t_max_normality=t_norm,
        t_default=default_t(alpha, r_a),
    )
