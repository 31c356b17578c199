"""Estimator arithmetic, frozen CI oracles, and exact identities."""

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailspec.errors import (
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
from tailspec.estimators import (
    AlphaEstimate,
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
from tailspec.grouping import plan_grouping, summarize_groups
from tailspec.numerics import gamma_fn
from tailspec.simulation import SeededRng, sample_polar
from tailspec.types import Arc, DataMatrix, GroupStats, Halfspace, ModelSpec, SpectralEstimate


def summaries_from_kappas(kappas, theta=None):
    kap = np.array(kappas, dtype=float)
    n = kap.size
    # row maxima 1 in column 0, so m2 is kap and kappa kap / 1.0, bit for bit
    return GroupStats(m1=np.ones(n), norms=np.c_[np.ones(n), kap],
                      theta=np.tile(np.array([1.0]) if theta is None else theta, (n, 1)),
                      argmax=np.zeros(n, dtype=np.intp))


def summaries_from_m1(m1s, dim=1, m=2):
    """Groups of m rows: norm m1 in the first, m1/2 in the other m - 1."""
    vec = np.zeros(dim)
    vec[0] = 1.0
    m1 = np.array(m1s, dtype=float)
    n = m1.size
    norms = np.repeat(m1[:, None] / 2, m, axis=1)
    norms[:, 0] = m1
    return GroupStats(m1=m1, norms=norms,
                      theta=np.tile(vec, (n, 1)), argmax=np.zeros(n, dtype=np.intp))


class TestEstimateAlpha:
    def test_constant_half(self):
        est = estimate_alpha(summaries_from_kappas([0.5] * 4))
        assert est.s_n == pytest.approx(2.0)
        assert est.alpha_hat == pytest.approx(1.0)

    def test_small_example(self):
        est = estimate_alpha(summaries_from_kappas([0.2, 0.4, 0.6]))
        assert est.s_n == pytest.approx(1.2)
        assert est.alpha_hat == pytest.approx(1.2 / 1.8)

    def test_all_ones_rejected(self):
        with pytest.raises(AllKappaOne):
            estimate_alpha(summaries_from_kappas([1.0, 1.0]))

    def test_all_zero_warns(self):
        with pytest.warns(EstimationWarning):
            est = estimate_alpha(summaries_from_kappas([0.0, 0.0]))
        assert est.alpha_hat == 0.0

    def test_kappa_var_matches_formula(self):
        kap = [0.1, 0.5, 0.7]
        est = estimate_alpha(summaries_from_kappas(kap))
        explicit = np.mean(np.square(kap)) - np.mean(kap) ** 2
        assert est.kappa_var == pytest.approx(explicit, rel=1e-12)

    def test_m1_groups_rejected(self):
        s = GroupStats(m1=np.ones(1), norms=np.ones((1, 1)), theta=np.array([[1.0]]),
                       argmax=np.zeros(1, dtype=np.intp))
        with pytest.raises(GroupTooSmall):
            estimate_alpha(s)

    @given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_invariant_alpha_from_sn(self, kappas):
        est = estimate_alpha(summaries_from_kappas(kappas))
        assert est.alpha_hat == pytest.approx(est.s_n / (est.n - est.s_n))


class TestAlphaCi:
    def test_frozen_oracle(self):
        # p=0.5, var=0.01, n=100, level .95; endpoints computed with an
        # independent normal quantile (scipy) and the exact map p/(1-p)
        est = AlphaEstimate(s_n=50.0, alpha_hat=1.0, kappa_var=0.01, n=100)
        ci = alpha_ci(est, 0.95)
        assert ci.lo == pytest.approx(0.9245586857941929, abs=1e-8)
        assert ci.hi == pytest.approx(1.0815971072090502, abs=1e-8)
        # rounded values as commonly reported
        assert ci.lo == pytest.approx(0.9246, abs=1e-4)
        assert ci.hi == pytest.approx(1.0816, abs=1e-4)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            alpha_ci(estimate_alpha(summaries_from_kappas([0.5, 0.5])))

    def test_upper_endpoint_infinite_when_p_touches_one(self):
        est = AlphaEstimate(s_n=95.0, alpha_hat=19.0, kappa_var=0.2, n=100)
        ci = alpha_ci(est, 0.95)
        assert math.isinf(ci.hi)
        assert ci.lo >= 0.0

    def test_monotone_map_preserves_order(self):
        est = AlphaEstimate(s_n=40.0, alpha_hat=40 / 60, kappa_var=0.04, n=100)
        ci90 = alpha_ci(est, 0.90)
        ci99 = alpha_ci(est, 0.99)
        assert ci99.lo <= ci90.lo <= ci90.hi <= ci99.hi


class TestSpectral:
    def test_single_atom(self):
        est = estimate_spectral(summaries_from_kappas([0.5], theta=np.array([1.0, 0.0])))
        assert est.n == 1
        assert spectral_mass(est, Halfspace((1.0, 0.0), 0.5)) == 1.0

    def test_two_atoms_half_each(self):
        s = GroupStats(m1=np.ones(2), norms=np.c_[np.ones(2), np.full(2, 0.5)],
                       theta=np.array([[1.0, 0.0], [0.0, 1.0]]),
                       argmax=np.zeros(2, dtype=np.intp))
        est = estimate_spectral(s)
        assert spectral_mass(est, Halfspace((1.0, 0.0), 0.5)) == pytest.approx(0.5)

    def test_full_and_empty_region(self):
        est = SpectralEstimate(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        assert spectral_mass(est, Halfspace((1.0, 0.0), -2.0)) == 1.0
        assert spectral_mass(est, Halfspace((1.0, 0.0), 2.0)) == 0.0

    def test_finite_additivity_exact(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([12, 0], np.uint64)))
        ang = rng.random(97) * 2 * math.pi
        est = SpectralEstimate(np.c_[np.cos(ang), np.sin(ang)])
        a = Halfspace((1.0, 0.0), 0.0)
        # v[0] <= 0.0: -v[0] is above the largest float below zero
        b = Halfspace((-1.0, 0.0), -math.ulp(0.0))
        assert spectral_mass(est, a) + spectral_mass(est, b) == 1.0

    def test_cdf_examples(self):
        est = SpectralEstimate(np.array(
            [[math.cos(math.pi / 4), math.sin(math.pi / 4)],
             [math.cos(3 * math.pi / 2), math.sin(3 * math.pi / 2)]]))
        rows = spectral_cdf_2d(est, [math.pi, 2 * math.pi])
        assert rows[0][1] == pytest.approx(0.5)
        assert rows[1][1] == pytest.approx(1.0)

    def test_cdf_needs_d2(self):
        est = SpectralEstimate(np.array([[1.0]]))
        with pytest.raises(DimensionMismatch):
            spectral_cdf_2d(est, [0.1])

    def test_cdf_grid_must_be_sorted(self):
        est = SpectralEstimate(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            spectral_cdf_2d(est, [2.0, 1.0])

    def test_ci_frozen_oracle(self):
        atoms = np.array([[1.0, 0.0]] * 50 + [[-1.0, 0.0]] * 50)
        est = SpectralEstimate(atoms)
        ci = spectral_ci(est, spectral_mass(est, Halfspace((1.0, 0.0), 0.0)), 0.95)
        assert ci.lo == pytest.approx(0.4020018007729973, abs=1e-8)
        assert ci.hi == pytest.approx(0.5979981992270027, abs=1e-8)

    def test_ci_degenerate(self):
        est = SpectralEstimate(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateProportion):
            spectral_ci(est, spectral_mass(est, Halfspace((1.0, 0.0), 0.0)))

    def test_rho_examples(self):
        all_pos = SpectralEstimate(np.ones((5, 1)))
        assert rho_1d(all_pos) == 1.0
        mixed = SpectralEstimate(np.array([[1.0], [-1.0], [1.0], [-1.0]]))
        assert rho_1d(mixed) == 0.0

    def test_rho_needs_d1(self):
        with pytest.raises(DimensionMismatch):
            rho_1d(SpectralEstimate(np.array([[1.0, 0.0]])))


class TestTotalMass:
    def test_identity_when_qt_equals_gamma(self):
        alpha, t, m = 1.0, 0.25, 100
        g = gamma_fn(1.0 - t / alpha)
        m1 = g ** (1.0 / t) * m ** (1.0 / alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            est = estimate_total_mass(summaries_from_m1([m1] * 8, m=m), alpha, t)
        assert est.mass_hat == pytest.approx(1.0, rel=1e-12)

    def test_mass_hat_matches_invariant(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([13, 0], np.uint64)))
        m1s = 1.0 + rng.random(50) * 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            est = estimate_total_mass(summaries_from_m1(m1s, m=1000), 1.5, 0.3)
        recomputed = (est.mean_qt / gamma_fn(1 - est.t / est.alpha_used)) ** (
            est.alpha_used / est.t)
        assert est.mass_hat == pytest.approx(recomputed, rel=1e-14)

    def test_scaling_identity(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([14, 0], np.uint64)))
        m1s = 1.0 + rng.random(64) * 9
        alpha, t, m = 0.5, 0.1, 256
        a = estimate_total_mass(summaries_from_m1(m1s, m=m), alpha, t)
        b = estimate_total_mass(summaries_from_m1(4.0 * m1s, m=m), alpha, t)
        assert b.mass_hat == pytest.approx(2.0 * a.mass_hat, rel=1e-12)

    def test_invalid_t(self):
        s = summaries_from_m1([1.0, 2.0], m=10)
        with pytest.raises(InvalidT):
            estimate_total_mass(s, 1.0, 0.5)  # t = alpha/2 excluded
        with pytest.raises(InvalidT):
            estimate_total_mass(s, 1.0, 0.0)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            estimate_total_mass(summaries_from_m1([1.0], m=10), -1.0, 0.1)

    def test_consistency_warning_attached(self):
        # n = m = 4 implies r = 1/2, so t >= alpha/4 leaves the consistency range
        with pytest.warns(EstimationWarning, match="consistency range"):
            estimate_total_mass(summaries_from_m1([1.0, 2.0, 3.0, 4.0], m=4), 1.0, 0.3)

    def test_ci_zero_variance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            est = estimate_total_mass(summaries_from_m1([2.0] * 6, m=50), 1.0, 0.2)
        with pytest.raises(ZeroVariance):
            total_mass_ci(est)

    def test_ci_lower_endpoint_floored_at_zero(self):
        # tiny n and huge spread push the mean-q^t interval below zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            est = estimate_total_mass(summaries_from_m1([0.01, 80.0], m=9), 1.0, 0.4)
        ci = total_mass_ci(est, 0.99)
        assert ci.lo == 0.0
        assert ci.hi > 0.0

    def test_ci_brackets_point_estimate(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([15, 0], np.uint64)))
        m1s = 1.0 + rng.random(200) * 4
        est = estimate_total_mass(summaries_from_m1(m1s, m=4000), 1.2, 0.2)
        ci = total_mass_ci(est, 0.95)
        assert ci.lo < est.mass_hat < ci.hi
        wider = total_mass_ci(est, 0.99)
        assert wider.lo <= ci.lo and wider.hi >= ci.hi


def polar_unit_model():
    return ModelSpec(alpha=1.0, total_mass=1.0,
                     atoms=[[1.0, 0.0], [0.0, 1.0]], weights=[0.6, 0.4])


class TestPipelineStatistics:
    def test_polar_alpha_recovery(self):
        # seeded polar run: alpha=1 within the documented window
        data = sample_polar(polar_unit_model(), 100000, SeededRng(2024))
        summaries = summarize_groups(data, plan_grouping(100000, 0.5))
        est = estimate_alpha(summaries)
        assert 0.9 <= est.alpha_hat <= 1.1

    def test_mean_kappa_lln(self):
        # E kappa -> alpha/(1+alpha) = 1/2: 10^4 groups of m=100
        model = ModelSpec(alpha=1.0, total_mass=1.0,
                          atoms=[[1.0]], weights=[1.0])
        data = sample_polar(model, 10**6, SeededRng(77))
        from tailspec.types import GroupScheme

        scheme = GroupScheme(r=0.667, n=10**4, m=100, discarded=0)
        kap = summarize_groups(data, scheme).kappa
        se = kap.std(ddof=1) / math.sqrt(kap.size)
        assert abs(kap.mean() - 0.5) <= 4.0 * se

    def test_scale_invariance_bit_identical(self):
        data = sample_polar(polar_unit_model(), 5000, SeededRng(5))
        scheme = plan_grouping(5000, 0.5)
        base = summarize_groups(data, scheme)
        scaled = summarize_groups(DataMatrix(data.values * 4.0), scheme)
        a0, a1 = estimate_alpha(base), estimate_alpha(scaled)
        assert a0.alpha_hat == a1.alpha_hat  # exact
        s0, s1 = estimate_spectral(base), estimate_spectral(scaled)
        assert (s0.atoms == s1.atoms).all()


def test_spectral_ci_needs_two_atoms():
    est = SpectralEstimate([[1.0, 0.0]])
    with pytest.raises(EmptySample, match="n >= 2 atoms"):
        spectral_ci(est, spectral_mass(est, Halfspace((1.0, 0.0), 0.0)))


@pytest.mark.parametrize("d", [1, 2])
def test_report_regions_and_cdf_come_from_the_public_functions(d):
    # a region of mass in (0, 1) carries spectral_ci's interval; one of mass
    # 0 or 1 carries none and adds no warning
    data = DataMatrix(np.random.default_rng(5).standard_cauchy((2000, d)))
    regions = [("half", Halfspace((1.0,) * d, 0.0)), ("all", Halfspace((1.0,) * d, -2.0))]
    if d == 2:
        regions += [("arc", Arc(1.0, 2.5)), ("none", Arc(0.0, 2.0 * math.pi))]
    doc = estimate_report(data, 0.5, 1.0, regions=regions, level=0.9)
    assert doc["warnings"] == estimate_report(data, 0.5, 1.0)["warnings"]
    spectral = estimate_spectral(summarize_groups(data, plan_grouping(2000, 0.5)))
    masses = [e["mass"] for e in doc["spectral"]["regions"]]
    assert 0.0 < masses[0] < 1.0 and masses[1] == 1.0
    if d == 2:
        assert 0.0 < masses[2] < 1.0 and masses[3] == 0.0
    for entry in doc["spectral"]["regions"]:
        if 0.0 < entry["mass"] < 1.0:
            assert entry["ci"] == asdict(spectral_ci(spectral, entry["mass"], 0.9))
        else:
            assert "ci" not in entry
    if d == 2:
        cdf = spectral_cdf_2d(spectral, np.linspace(0.0, 2.0 * math.pi, 129)[1:])
        assert cdf.dtype == np.float64 and cdf.shape == (128, 2)
        assert cdf.tolist() == doc["spectral"]["cdf"]
