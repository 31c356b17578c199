"""estimate_report against a reference written from the paper's formulas.

The reference uses plain numpy, math and statistics.NormalDist and shares no
code with tailspec, as perfbench/inputs.py's estimate_reference does, so a
mistake that tailspec's functions share with each other does not pass here.
"""

import math
from functools import partial
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailspec import Arc, DataMatrix, Halfspace, estimate_report, tuning
from tailspec import errors

TWO_PI = 2.0 * math.pi


def wald(point, variance, n, level):
    h = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(variance / n)
    return point - h, point + h


def power(base, expo):
    """base ** expo, or inf where that is past float64."""
    try:
        return base ** expo
    except OverflowError:
        return math.inf


def reference(x, r, alpha, t, level, halfspace, arc):
    """The scheme, alpha, mass and spectral entries for the sample x, or the
    name of the error the sample must raise.

    n = [N^r] contiguous groups of m = [N/n] rows (N^r nudged up by 1e-9
    before flooring); M1 and M2 are a group's largest and second-largest
    norm, its direction theta the first row reaching M1.  alpha_hat =
    S_n/(n - S_n) with S_n the sum of M2/M1; mass_hat = (mean q^t /
    Gamma(1 - t/alpha))^(alpha/t) with q = M1/m^(1/alpha), where t=None
    means 0.5*min(alpha*r/4, 1), and is inf past float64.  Each interval is
    a Wald interval of a mean, mapped through the estimator's monotone
    transform, and None where an end is past float64.
    """
    N, d = x.shape
    n = int(math.floor(N ** r + 1e-9))
    m = N // n
    blocks = x[: n * m].reshape(n, m, d)
    norms = np.sqrt((blocks * blocks).sum(axis=2))
    j1 = norms.argmax(axis=1)
    m1 = norms[np.arange(n), j1]
    if (m1 == 0.0).any():
        return "DegenerateGroup"
    kappa = np.sort(norms, axis=1)[:, -2] / m1
    s_n = float(kappa.sum())
    if s_n >= n:
        return "AllKappaOne"
    if s_n == 0.0 and alpha is None:  # a plug-in alpha_hat of 0 tunes no t
        return "InvalidSecondOrder"
    kappa_var = float(((kappa - kappa.mean()) ** 2).mean())
    alpha_ci = None
    if n >= 2 and kappa_var > 0.0:
        p_lo, p_hi = wald(s_n / n, kappa_var, n, level)
        p_lo = max(p_lo, 0.0)
        alpha_ci = {"lo": p_lo / (1.0 - p_lo),
                    "hi": math.inf if p_hi >= 1.0 else p_hi / (1.0 - p_hi), "level": level}
    alpha_hat = s_n / (n - s_n)

    a = alpha_hat if alpha is None else alpha
    if t is None:
        t = 0.5 * min(a * r / 4.0, 1.0)
    qt = (m1 / m ** (1.0 / a)) ** t
    mean_qt = float(qt.mean())
    gam = math.gamma(1.0 - t / a)
    v = float((qt * qt).mean()) - mean_qt ** 2
    mass_ci = None
    # a plug-in alpha gives no interval: one that treats alpha_hat as known
    # does not hold its level
    if alpha is not None and n >= 2 and v > 1e-15 * mean_qt ** 2:
        lo, hi = wald(mean_qt, v, n, level)
        lo, hi = 0.0 if lo <= 0.0 else power(lo / gam, a / t), power(hi / gam, a / t)
        if hi < math.inf:
            mass_ci = {"lo": lo, "hi": hi, "level": level}

    theta = blocks[np.arange(n), j1] / m1[:, None]
    regions = []
    u, c = halfspace
    dots = theta[:, 0] * u[0]
    for k in range(1, d):
        dots = dots + theta[:, k] * u[k]
    inside = [("halfspace", dots > c)]
    spectral = {"regions": regions}
    if d == 1:
        spectral["rho"] = (np.count_nonzero(theta > 0) - np.count_nonzero(theta < 0)) / n
    if d == 2:
        angle = np.mod(np.arctan2(theta[:, 1], theta[:, 0]), TWO_PI)
        start, end = arc[0] % TWO_PI, arc[1] % TWO_PI
        if start <= end:
            inside.append(("arc", (angle >= start) & (angle < end)))
        else:
            inside.append(("arc", (angle >= start) | (angle < end)))
        grid = np.linspace(0.0, TWO_PI, 129)[1:]
        spectral["cdf"] = [[float(b), np.count_nonzero(angle <= b) / n] for b in grid]
    for spec, mask in inside:
        p = np.count_nonzero(mask) / n
        entry = {"spec": spec, "mass": p}
        if 0.0 < p < 1.0:
            lo, hi = wald(p, p * (1.0 - p), n, level)
            entry["ci"] = {"lo": max(lo, 0.0), "hi": min(hi, 1.0), "level": level}
        regions.append(entry)
    return {
        "scheme": {"r": r, "n": n, "m": m, "discarded": N - n * m},
        "alpha": {"hat": alpha_hat, "s_n": s_n, "kappa_var": kappa_var, "ci": alpha_ci},
        "mass": {"hat": power(mean_qt / gam, a / t), "t": t, "alpha_used": a,
                 "alpha_mode": "plugin" if alpha is None else "fixed",
                 "mean_qt": mean_qt, "ci": mass_ci},
        "spectral": spectral,
    }


def assert_close(got, want, path="doc"):
    """got equals want, floats within a relative 1e-9, same keys in order."""
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), path
    else:
        assert got == want, path


@st.composite
def cases(draw):
    d = draw(st.integers(1, 3))
    N = draw(st.integers(50, 3000))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Pareto radii of tail index 0.2-4 (small kappas to kappas near one)
    # times Gaussian rows
    x = g.standard_normal((N, d)) * g.random((N, 1)) ** (-1.0 / draw(st.floats(0.2, 4.0)))
    # tied rows: copies of a row 1-3 rows back, often in the same group, some
    # negated (equal norm, other direction)
    k = int(draw(st.floats(0.0, 0.5)) * N)
    dst = g.choice(np.arange(3, N), k, replace=False)
    x[dst] = g.choice([-1.0, 1.0], (k, 1)) * x[dst - g.integers(1, 4, k)]
    # zero rows: a group of them has no direction
    x[g.choice(N, int(draw(st.floats(0.0, 0.3)) * N), replace=False)] = 0.0
    alpha = draw(st.none() | st.floats(0.3, 3.0))
    beta = None
    if alpha is not None:
        beta = draw(st.none() | st.floats(1.2, 3.0).map(lambda f: f * alpha))
    # any r that leaves m >= 2, and often one that leaves a few groups
    r = st.floats(0.05, 0.35) | st.floats(0.05, 1.0 - math.log(2.0) / math.log(N))
    r = draw(r if alpha is None else st.none() | r)
    unit = st.floats(-1.0, 1.0)
    halfspace = (tuple(draw(st.lists(unit, min_size=d, max_size=d))), draw(unit))
    arc = (draw(st.floats(0.0, 7.0)), draw(st.floats(0.0, 7.0)))
    # a number for t, as a fraction of alpha/2, only with a fixed alpha
    return (x, r, alpha, beta, draw(st.none() | st.floats(0.05, 0.95)),
            draw(st.floats(0.5, 0.99)), halfspace, arc)


# six groups of 65 rows whose two largest norms differ by 0.01%: alpha_hat
# is 9999, and the plug-in mass interval, which the document drops, ends
# past float64 while the mass estimate does not
NEAR_TIED_GROUPS = np.full((391, 1), 0.01)
NEAR_TIED_GROUPS[0:390:65, 0] = [2.25, 0.25] * 3
NEAR_TIED_GROUPS[1:390:65, 0] = [-0.9999 * 2.25, -0.9999 * 0.25] * 3


@given(cases())
# two groups whose intervals reach past their ranges: alpha's p-interval and
# the mean q^t interval below zero, then alpha's p-interval above one
@example((np.array([[10.0], [-9], [1], [-1], [1e6], [5], [-1], [1]]),
          0.4, 1.0, None, 0.98, 0.95, ((1.0,), 0.0), (0.0, 1.0)))
@example((np.array([[3.0, 4], [-3, -4], [1, 0], [0, 1], [0, 10], [8, 0], [1, 0], [0, 1]]),
          0.4, None, None, None, 0.95, ((1.0, 0.0), 0.0), (0.0, 1.0)))
@example((NEAR_TIED_GROUPS, 0.3125, None, None, None, 0.75, ((1.0,), 0.0), (0.0, 1.0)))
# a fixed alpha whose mass estimate and interval are past float64
@example((np.random.default_rng(6).standard_cauchy((400, 2)) * 1e3, 0.5, 1000.0, None, None,
          0.95, ((1.0, 0.0), 0.0), (0.0, 1.0)))
@settings(max_examples=60, deadline=None)
def test_report_matches_paper_formulas(case):
    x, r, alpha, beta, t_frac, level, halfspace, arc = case
    if r is None:  # --r auto: the tail-index rule r = 2*zeta/(1+2*zeta) - 0.05
        zeta = ((2.0 * alpha if beta is None else beta) - alpha) / alpha
        r = tuning.auto_r("alpha", alpha, beta)
        assert r == pytest.approx(2.0 * zeta / (1.0 + 2.0 * zeta) - 0.05, rel=1e-12)
    regions = [("halfspace", Halfspace(*halfspace))]
    if x.shape[1] == 2:
        regions.append(("arc", Arc(*arc)))
    t = None if t_frac is None or alpha is None else t_frac * alpha / 2.0
    report = partial(estimate_report, DataMatrix(x), r, alpha, t, beta, regions, level)
    try:
        want = reference(x, r, alpha, t, level, halfspace, arc)
    except OverflowError:  # m^(1/alpha) past float64
        with pytest.raises(OverflowError):
            report()
        return
    if isinstance(want, str):
        with pytest.raises(getattr(errors, want)):
            report()
        return
    got = report()
    assert list(got) == ["scheme", "alpha", "mass", "spectral", "warnings"]
    assert_close({k: got[k] for k in want}, want)
    nulls = [w for w in got["warnings"] if " ci is null: " in w]
    assert len(nulls) == [want["alpha"]["ci"], want["mass"]["ci"]].count(None)


# the inputs of test_cli.py's null-interval cases: a Cauchy sample with
# defined intervals, the same at 10^3 scale with alpha = 1000, and groups of
# (2, 0) or (0, 2) over a half-size second row, whose ratios are all 1/2;
# and one group of ten rows whose ratio is 1/2
CAUCHY = np.random.default_rng(5).standard_cauchy((2000, 2))
CAUCHY_1E3 = np.random.default_rng(6).standard_cauchy((400, 2)) * 1e3
TIED = np.array([[2.0, 0], [1, 0], [0, 2], [0, 1]] * 100)
ONE_GROUP = np.array([[2.0, 0], [0, 1]] + [[0.5, 0], [0, 0.25]] * 4)
PLUGIN_NULL = ("mass ci is null: alpha is the plug-in alpha_hat, and an interval that "
               "treats it as known does not hold its level")
PLUGIN = "mass estimate uses plug-in alpha_hat"
ALPHA_TIED = "alpha ci is null: all group ratios identical; interval undefined"
MASS_TIED = "mass ci is null: q^t values are numerically constant"
ONE_GROUP_NOTES = ["degenerate grouping: n=1 group for N=10, r=0.1",
                   "t=0.0125 is outside the consistency range t < alpha*r/2 = 0 "
                   "(r inferred from n, m)",
                   "alpha ci is null: need n >= 2 groups for an interval",
                   "mass ci is null: need n >= 2 groups for an interval"]


@pytest.mark.parametrize("x, r, alpha, notes", [
    pytest.param(CAUCHY, 0.5, 1.0, [], id="fixed-defined"),
    pytest.param(CAUCHY_1E3, 0.5, 1000.0, [
        "mass hat is inf: the estimate exceeds the float64 range (alpha=1000.0, t=0.5)",
        "mass ci is null: an end exceeds the float64 range"], id="fixed-past-float64"),
    pytest.param(TIED, 0.885, 1.0, [ALPHA_TIED, MASS_TIED], id="fixed-undefined"),
    pytest.param(CAUCHY, 0.5, None, [PLUGIN_NULL, PLUGIN], id="plugin-defined"),
    # an undefined interval gives its own reason, not the plug-in one
    pytest.param(TIED, 0.885, None, [ALPHA_TIED, MASS_TIED, PLUGIN], id="plugin-undefined"),
    pytest.param(ONE_GROUP, 0.1, None, [*ONE_GROUP_NOTES, PLUGIN], id="plugin-one-group"),
    # the plug-in reason comes before an end past float64
    pytest.param(NEAR_TIED_GROUPS, 0.3125, None, [PLUGIN_NULL, PLUGIN],
                 id="plugin-past-float64"),
])
def test_null_interval_notes(x, r, alpha, notes):
    doc = estimate_report(DataMatrix(x), r, alpha)
    assert doc["warnings"] == notes
    assert (doc["alpha"]["ci"] is None) == any(n.startswith("alpha ci") for n in notes)
    assert (doc["mass"]["ci"] is None) == any(n.startswith("mass ci") for n in notes)
