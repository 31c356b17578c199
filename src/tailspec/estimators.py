"""Tail-index, spectral-measure and total-mass estimators with normal CIs.

Each estimator consumes the per-group statistics produced by
``grouping.summarize_groups``, one GroupStats of columns.  Confidence
intervals are built by studentizing the underlying mean statistic (ratio of
maxima, indicator mean, or mean of q^t) and mapping the resulting interval
endpoint-wise through the monotone transform that defines the estimator, so
interval order and coverage survive the mapping.  estimate_report runs them
all on one sample and returns the body of the ``estimate`` document.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import grouping, tuning
from .errors import (
    AllKappaOne,
    DegenerateProportion,
    DimensionMismatch,
    EmptySample,
    EstimationWarning,
    GroupTooSmall,
    InvalidAlpha,
    InvalidT,
    ZeroVariance,
    recorded_warnings,
)
from .numerics import gamma_fn, normal_quantile
from .types import DataMatrix, GroupStats, Interval, Region, SpectralEstimate

_CDF_GRID = 128  # angles of the d=2 cdf in an estimate report
_PLUGIN_REASON = ("alpha is the plug-in alpha_hat, and an interval that treats it "
                  "as known does not hold its level")


def _wald(point: float, variance: float, n: int, level: float) -> tuple[float, float]:
    """Normal interval for a mean ``point`` of n values with plug-in variance."""
    h = normal_quantile(0.5 + level / 2.0) * math.sqrt(variance / n)
    return point - h, point + h


@dataclass(frozen=True)
class AlphaEstimate:
    """Tail-index estimate from the ratio statistics of n groups."""

    s_n: float
    alpha_hat: float
    kappa_var: float
    n: int


def estimate_alpha(stats: GroupStats) -> AlphaEstimate:
    """alpha_hat = S_n / (n - S_n) with S_n the sum of per-group ratios.

    S_n == n (every ratio equal to one) raises AllKappaOne; S_n == 0 returns
    alpha_hat = 0 with an EstimationWarning.
    """
    kap = stats.kappa
    if kap is None:
        raise GroupTooSmall("kappa undefined: statistics come from m=1 groups")
    n = kap.size
    s_n = float(kap.sum())
    # same quantity as mean(k^2) - mean(k)^2, computed mean-centered
    kappa_var = float(np.var(kap))
    if s_n >= n:
        raise AllKappaOne(
            f"S_n = n = {n}: ratio statistic degenerate (m too small or heavy ties)"
        )
    if s_n == 0.0:
        warnings.warn(
            "all group ratios are zero; returning alpha_hat = 0",
            EstimationWarning,
            stacklevel=2,
        )
    return AlphaEstimate(s_n=s_n, alpha_hat=s_n / (n - s_n), kappa_var=kappa_var, n=n)


def alpha_ci(est: AlphaEstimate, level: float = 0.95) -> Interval:
    """CI for alpha: normal interval for p = alpha/(1+alpha), mapped by p/(1-p).

    The p-interval is clamped to [0, 1); an upper endpoint touching 1 maps
    to +inf.
    """
    if est.n < 2:
        raise EmptySample("need n >= 2 groups for an interval")
    if est.kappa_var <= 0.0:
        raise ZeroVariance("all group ratios identical; interval undefined")
    # the mean ratio S_n/n has the limit p = alpha/(1+alpha)
    p_lo, p_hi = _wald(est.s_n / est.n, est.kappa_var, est.n, level)
    p_lo = max(p_lo, 0.0)
    lo = p_lo / (1.0 - p_lo)
    hi = math.inf if p_hi >= 1.0 else p_hi / (1.0 - p_hi)
    return Interval(lo=lo, hi=hi, level=level)


def estimate_spectral(stats: GroupStats) -> SpectralEstimate:
    """Atomic measure putting weight 1/n on each group-maximum direction."""
    return SpectralEstimate._of_unit_rows(stats.theta)  # GroupStats checked theta


def spectral_mass(est: SpectralEstimate, region: Region) -> float:
    """Fraction of atoms inside the region, an Arc or a Halfspace."""
    return int(np.count_nonzero(region.mask(est.atoms))) / est.n


def spectral_cdf_2d(est: SpectralEstimate, angles: Sequence[float]) -> np.ndarray:
    """Normalized cdf of the planar angle at the given ascending grid, as a
    (k, 2) float64 array of (angle, cdf) rows.

    An atom at exactly the query angle is counted (closed interval [0, a]).
    """
    grid = np.asarray(angles, dtype=np.float64)
    if grid.size and (np.diff(grid) < 0).any():
        raise ValueError("angle grid must be sorted ascending")
    atom_angles = est.angles_2d()
    atom_angles.sort()
    cdf = np.searchsorted(atom_angles, grid, side="right") / est.n
    return np.column_stack((grid, cdf))


def spectral_ci(est: SpectralEstimate, mass: float, level: float = 0.95) -> Interval:
    """CI for the normalized spectral mass of a region, given its empirical
    mass ``spectral_mass(est, region)``.

    Uses the binomial plug-in variance p(1-p), which is exactly the empirical
    variance of the 0/1 atom indicators; degenerate proportions (0 or 1) have
    no studentized statistic and raise.
    """
    if est.n < 2:
        raise EmptySample("need n >= 2 atoms for an interval")
    if mass <= 0.0 or mass >= 1.0:
        raise DegenerateProportion(f"empirical mass {mass} admits no interval")
    lo, hi = _wald(mass, mass * (1.0 - mass), est.n, level)
    return Interval(lo=max(lo, 0.0), hi=min(hi, 1.0), level=level)


def rho_1d(est: SpectralEstimate) -> float:
    """Signed-mass asymmetry sigma~({+1}) - sigma~({-1}) for d=1 estimates."""
    if est.dim != 1:
        raise DimensionMismatch(f"rho needs d=1, have d={est.dim}")
    # atoms are exactly +-1, so their mean is the mass difference
    return float(est.atoms[:, 0].mean())


@dataclass(frozen=True)
class TotalMassEstimate:
    """Total spectral mass estimate built from scaled group maxima q = M1/m^(1/a)."""

    t: float
    alpha_used: float
    mean_qt: float
    mean_q2t: float
    mass_hat: float
    n: int


def estimate_total_mass(stats: GroupStats, alpha: float, t: float) -> TotalMassEstimate:
    """mass_hat = (mean of q^t / Gamma(1 - t/alpha)) ^ (alpha/t).

    The group size m in q = M1/m^(1/alpha) is the width of stats.norms.
    Requires 0 < t < alpha/2 so both Gamma(1 - t/alpha) and the variance term
    Gamma(1 - 2t/alpha) are finite, and 1 - t/alpha < 1 in float64: for a
    smaller t, q^t and the Gamma factor round to 1 and say nothing of the
    mass.  When t falls outside the strong consistency range t < alpha*r/2
    (r inferred from n and m), the estimate is still returned, with an
    EstimationWarning; so is a mass past the float64 range, as inf.
    """
    if not 0.0 < alpha < math.inf:
        raise InvalidAlpha(f"alpha={alpha} must be positive and finite")
    if not (0.0 < t < alpha / 2.0):
        raise InvalidT(f"t={t} outside (0, alpha/2) = (0, {alpha / 2.0})")
    if 1.0 - t / alpha == 1.0:  # Gamma(1 - t/alpha) would be exactly 1
        raise InvalidT(f"t={t} is too small: 1 - t/alpha rounds to 1 (alpha={alpha})")
    n, m = stats.norms.shape
    if m < 2:
        raise GroupTooSmall(f"total mass needs m >= 2, got {m}")
    try:
        scale = m ** (1.0 / alpha)
    except OverflowError:  # the bare one names no operand
        raise OverflowError(f"m^(1/alpha) overflows float64 at m={m}, alpha={alpha}") from None
    qt = stats.m1 / scale  # q, raised to the power t in place
    qt **= t
    mean_qt = float(qt.mean())
    if not math.isfinite(mean_qt):
        raise InvalidT(f"q^t overflows at t={t}")
    mean_q2t = float(np.multiply(qt, qt, out=qt).mean())
    try:
        mass_hat = (mean_qt / gamma_fn(1.0 - t / alpha)) ** (alpha / t)
    except OverflowError:
        mass_hat = math.inf
        warnings.warn(f"mass hat is inf: the estimate exceeds the float64 range "
                      f"(alpha={alpha}, t={t})", EstimationWarning, stacklevel=2)

    r_implied = math.log(n) / math.log(n * m)
    if t >= alpha * r_implied / 2.0:
        warnings.warn(f"t={t} is outside the consistency range t < alpha*r/2 = "
                      f"{alpha * r_implied / 2.0:.6g} (r inferred from n, m)",
                      EstimationWarning, stacklevel=2)
    return TotalMassEstimate(t=t, alpha_used=alpha, mean_qt=mean_qt,
                             mean_q2t=mean_q2t, mass_hat=mass_hat, n=n)


def total_mass_ci(est: TotalMassEstimate, level: float = 0.95) -> Interval:
    """CI for the total mass, mapped from the normal interval of mean q^t.

    The q^t interval uses the plug-in variance mean(q^2t) - mean(q^t)^2; its
    endpoints pass through the increasing map x -> (x / Gamma(1-t/alpha)) ^
    (alpha/t), with the lower endpoint floored at zero.
    """
    if est.n < 2:
        raise EmptySample("need n >= 2 groups for an interval")
    v = est.mean_q2t - est.mean_qt ** 2
    # constant inputs leave a few ulps of rounding residue, not exact zero
    if v <= 1e-15 * est.mean_qt ** 2:
        raise ZeroVariance("q^t values are numerically constant")
    a_lo, a_hi = _wald(est.mean_qt, v, est.n, level)
    g = gamma_fn(1.0 - est.t / est.alpha_used)
    expo = est.alpha_used / est.t
    lo = 0.0 if a_lo <= 0.0 else (a_lo / g) ** expo
    hi = (a_hi / g) ** expo
    return Interval(lo=lo, hi=hi, level=level)


def _interval(name: str, fn, est, level: float, reason: str | None = None) -> dict | None:
    """``asdict(fn(est, level))``, or None with the EstimationWarning
    ``"<name> ci is null: <reason>"``.  The reason is the undefined interval's
    own message, else the one passed, else an end past the float64 range."""
    try:
        ci = asdict(fn(est, level))
    except (ZeroVariance, EmptySample) as e:
        reason = str(e)
    except OverflowError:
        reason = reason or "an end exceeds the float64 range"
    if reason is None:
        return ci
    warnings.warn(f"{name} ci is null: {reason}", EstimationWarning, stacklevel=2)
    return None


def estimate_report(data: DataMatrix, r: float, alpha: float | None = None,
                    t: float | None = None, beta: float | None = None,
                    regions: Sequence[tuple[str, Region]] = (),
                    level: float = 0.95) -> dict:
    """The ``scheme``, ``alpha``, ``mass``, ``spectral`` and ``warnings``
    entries of the ``estimate`` document for a sample grouped at exponent r.

    alpha=None plugs in alpha_hat, t=None takes tuning.auto_t(alpha, r,
    beta), and regions are (spec text, Arc or Halfspace) pairs.  An
    undefined interval, one with an end past the float64 range, and the
    mass interval with a plug-in alpha, is None, with a warning
    ``"<alpha|mass> ci is null: <reason>"``.  A mass past float64 is inf.
    """
    with recorded_warnings() as notes:
        scheme = grouping.plan_grouping(data.rows, r)
        stats = grouping.summarize_groups(data, scheme)
        alpha_est = estimate_alpha(stats)
        spectral = estimate_spectral(stats)
        alpha_used = alpha_est.alpha_hat if alpha is None else alpha
        if t is None:
            t = tuning.auto_t(alpha_used, r, beta)
        mass_est = estimate_total_mass(stats, alpha_used, t)
        alpha_ci_doc = _interval("alpha", alpha_ci, alpha_est, level)
        mass_ci = _interval("mass", total_mass_ci, mass_est, level,
                            _PLUGIN_REASON if alpha is None else None)
        if alpha is None:
            warnings.warn("mass estimate uses plug-in alpha_hat", EstimationWarning)

    entries = []
    for spec, region in regions:
        entry = {"spec": spec, "mass": spectral_mass(spectral, region)}
        if 0.0 < entry["mass"] < 1.0:
            entry["ci"] = asdict(spectral_ci(spectral, entry["mass"], level))
        entries.append(entry)
    spectral_doc = {"regions": entries}
    if data.dim == 1:
        spectral_doc["rho"] = rho_1d(spectral)
    if data.dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, _CDF_GRID + 1)[1:]
        spectral_doc["cdf"] = spectral_cdf_2d(spectral, angles).tolist()
    return {
        "scheme": {"r": r, "n": scheme.n, "m": scheme.m, "discarded": scheme.discarded},
        "alpha": {"hat": alpha_est.alpha_hat, "s_n": alpha_est.s_n,
                  "kappa_var": alpha_est.kappa_var, "ci": alpha_ci_doc},
        "mass": {"hat": mass_est.mass_hat, "t": t, "alpha_used": alpha_used,
                 "alpha_mode": "plugin" if alpha is None else "fixed",
                 "mean_qt": mass_est.mean_qt, "ci": mass_ci},
        "spectral": spectral_doc,
        "warnings": notes,
    }
