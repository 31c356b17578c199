"""Tuning rules: optimal exponents, branch continuity, the --t auto rule."""

import math
import warnings

import pytest

from tailspec.errors import EstimationWarning, InvalidSecondOrder
from tailspec.tuning import (
    auto_r,
    auto_t,
    default_t,
    optimal_r_alpha,
    optimal_r_mass,
    optimal_r_spectral,
)


class TestOptimalRAlpha:
    def test_stable_case(self):
        # beta = 2*alpha gives zeta = 1, hence r = 2/3 - eps
        assert optimal_r_alpha(1.0, 2.0, 0.01) == pytest.approx(2 / 3 - 0.01)

    def test_infinite_beta_cap(self):
        assert optimal_r_alpha(1.0, math.inf, 0.05) == pytest.approx(0.95)

    def test_huge_finite_beta_takes_the_cap(self):
        # 2*zeta overflows to inf; the limit zeta -> inf is 1 - epsilon, not NaN
        assert optimal_r_alpha(1.0, 1e308, 0.05) == 0.95
        assert auto_r("alpha", 1e-10, 1e300) == 0.95

    def test_zeta_not_capped(self):
        # zeta = 9 -> r = 18/19 - eps, above the spectral rule's 2/3 cap
        assert optimal_r_alpha(1.0, 10.0, 0.01) == pytest.approx(18 / 19 - 0.01)

    def test_beta_equal_alpha_rejected(self):
        with pytest.raises(InvalidSecondOrder):
            optimal_r_alpha(2.0, 2.0, 0.01)

    def test_monotone_in_beta(self):
        rs = [optimal_r_alpha(1.5, b, 0.01) for b in (1.6, 2.0, 3.0, 6.0, 50.0)]
        assert all(a <= b for a, b in zip(rs, rs[1:]))


class TestOptimalRMass:
    def test_flat_branch(self):
        assert optimal_r_mass(2.0, 4.0, 0.01) == pytest.approx(0.49)

    def test_radical_branch_value(self):
        # independently evaluated radical formula
        assert optimal_r_mass(2.0, 3.1, 0.0) == pytest.approx(
            0.14833147735478824, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.75, 2.0, 3.0])
    def test_branch_continuity(self, alpha):
        beta = 11.0 / 8.0 * alpha + 1.0
        # radical branch applies at the threshold and must give exactly 1/2
        assert optimal_r_mass(alpha, beta, 0.0) == pytest.approx(0.5, abs=1e-9)
        assert optimal_r_mass(alpha, beta + 1e-9, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_hypothesis_boundary(self):
        with pytest.raises(InvalidSecondOrder):
            optimal_r_mass(2.0, 3.0, 0.01)  # beta = alpha + 1

    def test_stable_beta_large_alpha(self):
        # beta = 2*alpha crosses (11/8)alpha + 1 at alpha = 8/5
        for alpha in (1.7, 2.0, 3.0):
            assert optimal_r_mass(alpha, 2 * alpha, 0.05) == pytest.approx(0.45)


class TestOptimalRSpectral:
    def test_stable_example(self):
        assert optimal_r_spectral(0.75, 1.5, 0.01) == pytest.approx(2 / 3 - 0.01)

    def test_uncapped_zeta_region(self):
        assert optimal_r_spectral(2.0, 2.5, 1e-12) == pytest.approx(1 / 3, abs=1e-9)

    def test_cap_applies(self):
        assert optimal_r_spectral(1.0, 100.0, 0.05) == pytest.approx(2 / 3 - 0.05)

    def test_differs_from_alpha_rule_when_zeta_large(self):
        assert optimal_r_spectral(1.0, 10.0, 0.01) < optimal_r_alpha(1.0, 10.0, 0.01)


class TestDefaults:
    def test_default_t_inside_ranges(self):
        for alpha in (0.5, 0.75, 1.0, 2.0):
            for r in (0.2, 0.5, 0.617):
                t = default_t(alpha, r)
                assert 0.0 < t < alpha * r / 4.0 + 1e-15
                assert t < alpha * r / 2.0


@pytest.mark.parametrize("rule, args", [
    (optimal_r_alpha, (math.nan, 2.0)), (optimal_r_alpha, (1.0, math.nan)),
    (optimal_r_spectral, (math.nan, 2.0)), (optimal_r_spectral, (1.0, math.nan)),
    (optimal_r_mass, (math.nan, 4.0)), (optimal_r_mass, (1.0, math.nan)),
    (auto_r, ("mass", 1.0, math.nan)), (default_t, (math.nan, 0.5)),
    (auto_t, (math.nan, 0.5)),
])
def test_nan_exponent_rejected(rule, args):
    with pytest.raises(InvalidSecondOrder):
        rule(*args)


class TestAutoR:
    def test_each_kind_has_its_rule(self):
        assert auto_r("alpha", 1.0, 10.0) == pytest.approx(18 / 19 - 0.05)
        assert auto_r("spectral", 1.0, 10.0) == pytest.approx(2 / 3 - 0.05)
        assert auto_r("mass", 1.0, 10.0) == pytest.approx(0.45)
        assert auto_r("alpha", 1.0, 10.0, 0.01) == optimal_r_alpha(1.0, 10.0, 0.01)
        assert auto_r("spectral", 1.0, 10.0, 0.01) == optimal_r_spectral(1.0, 10.0, 0.01)
        assert auto_r("mass", 1.0, 10.0, 0.01) == optimal_r_mass(1.0, 10.0, 0.01)

    def test_no_beta_means_twice_alpha(self):
        for kind in ("alpha", "spectral", "mass"):
            assert auto_r(kind, 2.0) == auto_r(kind, 2.0, 4.0)
        assert auto_r("alpha", 0.75, None, 0.1) == optimal_r_alpha(0.75, 1.5, 0.1)

    def test_mass_falls_back_to_tail_index_rule(self):
        # beta <= alpha + 1 leaves the mass rule without an admissible r
        assert auto_r("mass", 1.0, 2.0) == optimal_r_alpha(1.0, 2.0)
        assert auto_r("mass", 1.0) == optimal_r_alpha(1.0, 2.0)
        assert auto_r("mass", 0.5, 1.4) == optimal_r_alpha(0.5, 1.4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            auto_r("rho", 1.0)


class TestAutoT:
    def test_same_bits_as_default_t(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            for alpha in (0.5, 0.75, 1.0, 1.5, 1.9, 2.0, 3.0):
                # None, inf, beta <= alpha + 1, case a on both sides of case b
                # and the middle of case b
                for beta in (None, math.inf, alpha + 0.5, 11 / 8 * alpha + 1.0,
                             23 / 16 * alpha + 1.0, 1.5 * alpha + 1.0, 3.0 * alpha + 1.0):
                    for r in (0.2, 0.45, 0.5, 0.617, 0.9):
                        assert auto_t(alpha, r, beta).hex() == default_t(alpha, r).hex()

    @pytest.mark.parametrize("alpha, beta, r, t, t_max", [
        (1.0, 2.45, 0.45, "0.05625", "0.05"),
        (1.5, 3.2, 0.45, "0.084375", "0.05"),
        (1.9, 3.8, 0.45, "0.106875", "0.05"),
        (2.0, 3.9, 0.49, "0.1225", "0.1"),
    ])
    def test_warns_past_case_b_bound(self, alpha, beta, r, t, t_max):
        with pytest.warns(EstimationWarning, match="^t-outside-normality:") as record:
            assert auto_t(alpha, r, beta) == default_t(alpha, r)
        assert len(record) == 1
        assert f"t={t} " in str(record[0].message)
        assert f"= {t_max} " in str(record[0].message)

    def test_no_beta_means_twice_alpha(self):
        with pytest.warns(EstimationWarning, match="^t-outside-normality:"):
            auto_t(1.9, 0.45)

    @pytest.mark.parametrize("alpha, beta, r", [
        (1.7, 3.4, 0.45),                # case b, t below the bound
        (2.0, 4.5, 0.49),                # case a, beta >= (3/2)alpha + 1
        (1.0, 11 / 8 + 1.0, 0.45),       # lower end of case b
        (1.0, 2.5, 0.45),                # upper end of case b
        (1.0, 2.0, 0.9), (1.0, 1.5, 0.9),  # beta <= alpha + 1
        (1.0, None, 0.9), (1.5, None, 0.45),
    ])
    def test_no_warning_elsewhere(self, alpha, beta, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert auto_t(alpha, r, beta) == default_t(alpha, r)

    @pytest.mark.parametrize("alpha, beta, r", [
        (1.0, 0.5, 0.9), (1.0, 1.0, 0.5), (1.0, -5.0, 0.5), (1.0, math.nan, 0.5),
        (2.0, math.nan, 0.45),
    ])
    def test_beta_not_above_alpha_raises(self, alpha, beta, r):
        # as the r rules do; NaN fails too
        with pytest.raises(InvalidSecondOrder,
                           match=f"^need beta > alpha > 0, got alpha={alpha}, beta={beta}$"):
            auto_t(alpha, r, beta)


@pytest.mark.parametrize("epsilon", [0.0, 0.5, -0.1, math.nan])
def test_epsilon_outside_open_half(epsilon):
    with pytest.raises(ValueError, match="outside \\(0, 1/2\\)"):
        optimal_r_alpha(1.0, 2.0, epsilon)


def test_epsilon_whose_cap_rounds_to_1():
    # 1 - 2^-54 is halfway between 1 - 2^-53 and 1, and rounds to 1
    with pytest.raises(ValueError, match="^epsilon=1e-17 too small: 1 - epsilon rounds to 1$"):
        auto_r("alpha", 1.0, math.inf, 1e-17)
    with pytest.raises(ValueError, match="too small"):
        optimal_r_spectral(1.0, 2.0, 2.0 ** -54)
    assert auto_r("alpha", 1.0, math.inf, 2.0 ** -53) == 1.0 - 2.0 ** -53


@pytest.mark.parametrize("r", [0.0, 1.0, -0.5])
def test_default_t_r_outside_unit_interval(r):
    with pytest.raises(ValueError, match="outside"):
        default_t(1.0, r)


def test_beta_too_close_leaves_no_admissible_r():
    # alpha 1, beta 1.01: 2 zeta / (1 + 2 zeta) is 0.0196, below epsilon 0.05
    with pytest.raises(InvalidSecondOrder, match="too close to alpha="):
        optimal_r_alpha(1.0, 1.01)
    # alpha 1, beta 2.01: the radical formula gives 0.037, below epsilon 0.05
    with pytest.raises(InvalidSecondOrder, match="too close to alpha\\+1"):
        optimal_r_mass(1.0, 2.01)
