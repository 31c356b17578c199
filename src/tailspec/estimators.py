"""Tail-index, spectral-measure and total-mass estimators with normal CIs.

Everything here consumes the per-group statistics produced by
``grouping.summarize_groups``, one GroupStats of columns.  Confidence
intervals are built by studentizing the underlying mean statistic (ratio of
maxima, indicator mean, or mean of q^t) and mapping the resulting interval
endpoint-wise through the monotone transform that defines the estimator, so
interval order and coverage survive the mapping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
)
from .numerics import gamma_fn, normal_quantile
from .types import (GroupStats, Interval, NormalizedStat, Region, SpectralEstimate,
                    region_mask)


def _wald(stat: NormalizedStat, level: float) -> tuple[float, float]:
    z = normal_quantile(0.5 + level / 2.0)
    h = z * stat.stderr
    return stat.point - h, stat.point + h


@dataclass(frozen=True)
class AlphaEstimate:
    """Tail-index estimate from the ratio statistics of n groups."""

    s_n: float
    alpha_hat: float
    kappa_var: float
    n: int

    @property
    def p_stat(self) -> NormalizedStat:
        """The mean-ratio statistic S_n/n whose limit is alpha/(1+alpha)."""
        return NormalizedStat(self.s_n / self.n, self.kappa_var, self.n)


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
        return AlphaEstimate(s_n=0.0, alpha_hat=0.0, kappa_var=kappa_var, n=n)
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
    p_lo, p_hi = _wald(est.p_stat, level)
    p_lo = max(p_lo, 0.0)
    lo = p_lo / (1.0 - p_lo)
    hi = math.inf if p_hi >= 1.0 else p_hi / (1.0 - p_hi)
    return Interval(lo=lo, hi=hi, level=level)


def estimate_spectral(stats: GroupStats) -> SpectralEstimate:
    """Atomic measure putting weight 1/n on each group-maximum direction."""
    return SpectralEstimate._of_unit_rows(stats.theta)  # GroupStats checked theta


def spectral_mass(est: SpectralEstimate, region: Region) -> float:
    """Fraction of atoms inside the region (a total membership predicate;
    an Arc or Halfspace tests all atoms at once)."""
    return int(np.count_nonzero(region_mask(region, est.atoms))) / est.n


def spectral_cdf_2d(est: SpectralEstimate,
                    angles: Sequence[float]) -> list[tuple[float, float]]:
    """Normalized cdf of the planar angle at the given ascending grid.

    An atom at exactly the query angle is counted (closed interval [0, a]).
    """
    grid = np.asarray(angles, dtype=np.float64)
    if grid.size and (np.diff(grid) < 0).any():
        raise ValueError("angle grid must be sorted ascending")
    atom_angles = est.angles_2d()
    atom_angles.sort()
    cdf = np.searchsorted(atom_angles, grid, side="right") / est.n
    return list(zip(grid.tolist(), cdf.tolist()))


def spectral_ci(est: SpectralEstimate, region: Region, level: float = 0.95) -> Interval:
    """CI for the normalized spectral mass of a region.

    Uses the binomial plug-in variance p(1-p), which is exactly the empirical
    variance of the 0/1 atom indicators; degenerate proportions (0 or 1) have
    no studentized statistic and raise.
    """
    if est.n < 2:
        raise EmptySample("need n >= 2 atoms for an interval")
    return _proportion_ci(spectral_mass(est, region), est.n, level)


def _proportion_ci(p: float, n: int, level: float) -> Interval:
    if p <= 0.0 or p >= 1.0:
        raise DegenerateProportion(f"empirical mass {p} admits no interval")
    lo, hi = _wald(NormalizedStat(p, p * (1.0 - p), n), level)
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
    m: int
    warnings: tuple[str, ...] = ()


def estimate_total_mass(stats: GroupStats, m: int, alpha: float,
                        t: float) -> TotalMassEstimate:
    """mass_hat = (mean of q^t / Gamma(1 - t/alpha)) ^ (alpha/t).

    Requires 0 < t < alpha/2 so both Gamma(1 - t/alpha) and the variance term
    Gamma(1 - 2t/alpha) are finite.  When t falls outside the strong
    consistency range t < alpha*r/2 (r inferred from n and m), the estimate is
    still returned, carrying a warning.
    """
    if not 0.0 < alpha < math.inf:
        raise InvalidAlpha(f"alpha={alpha} must be positive and finite")
    if not (0.0 < t < alpha / 2.0):
        raise InvalidT(f"t={t} outside (0, alpha/2) = (0, {alpha / 2.0})")
    if m < 2:
        raise GroupTooSmall(f"total mass needs m >= 2, got {m}")
    m1 = stats.m1
    n = m1.size
    qt = m1 / m ** (1.0 / alpha)  # q, raised to the power t in place
    qt **= t
    mean_qt = float(qt.mean())
    if not math.isfinite(mean_qt):
        raise InvalidT(f"q^t overflows at t={t}")
    mean_q2t = float(np.multiply(qt, qt, out=qt).mean())
    mass_hat = (mean_qt / gamma_fn(1.0 - t / alpha)) ** (alpha / t)

    notes: tuple[str, ...] = ()
    r_implied = math.log(n) / math.log(n * m) if n * m > 1 else 0.0
    if t >= alpha * r_implied / 2.0:
        msg = (f"t={t} is outside the consistency range t < alpha*r/2 = "
               f"{alpha * r_implied / 2.0:.6g} (r inferred from n, m)")
        notes = (msg,)
        warnings.warn(msg, EstimationWarning, stacklevel=2)
    return TotalMassEstimate(t=t, alpha_used=alpha, mean_qt=mean_qt,
                             mean_q2t=mean_q2t, mass_hat=mass_hat, n=n, m=m,
                             warnings=notes)


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
    a_lo, a_hi = _wald(NormalizedStat(est.mean_qt, v, est.n), level)
    g = gamma_fn(1.0 - est.t / est.alpha_used)
    expo = est.alpha_used / est.t
    lo = 0.0 if a_lo <= 0.0 else (a_lo / g) ** expo
    hi = (a_hi / g) ** expo
    return Interval(lo=lo, hi=hi, level=level)
