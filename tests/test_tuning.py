"""Tuning rules: optimal exponents, branch continuity, admissible t ranges."""

import math

import pytest

from tailspec.errors import InvalidSecondOrder
from tailspec.tuning import (
    CASE_LARGE_BETA,
    CASE_MIDDLE_BETA,
    admissible_t,
    auto_r,
    default_t,
    optimal_r_alpha,
    optimal_r_mass,
    optimal_r_spectral,
    plan_tuning,
)


class TestOptimalRAlpha:
    def test_stable_case(self):
        # beta = 2*alpha gives zeta = 1, hence r = 2/3 - eps
        assert optimal_r_alpha(1.0, 2.0, 0.01) == pytest.approx(2 / 3 - 0.01)

    def test_infinite_beta_cap(self):
        assert optimal_r_alpha(1.0, math.inf, 0.05) == pytest.approx(0.95)

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


class TestAdmissibleT:
    def test_case_a_large_beta(self):
        res = admissible_t(2.0, 4.5, 0.49)
        assert res.case_label == CASE_LARGE_BETA
        assert res.t_max == pytest.approx(0.245)
        assert res.t_max_consistency == pytest.approx(0.49)

    def test_case_b_middle_beta(self):
        res = admissible_t(2.0, 3.9, 0.49)
        assert res.case_label == CASE_MIDDLE_BETA
        assert res.t_max == pytest.approx(0.1)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidSecondOrder):
            admissible_t(2.0, 3.0, 0.49)

    def test_positive_whenever_defined(self):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            for db in (1e-6, 0.2, 0.4, 0.6, 2.0, 10.0):
                res = admissible_t(alpha, alpha + 1.0 + db, 0.3)
                assert res.t_max > 0.0


class TestDefaults:
    def test_default_t_inside_ranges(self):
        for alpha in (0.5, 0.75, 1.0, 2.0):
            for r in (0.2, 0.5, 0.617):
                t = default_t(alpha, r)
                assert 0.0 < t < alpha * r / 4.0 + 1e-15
                assert t < alpha * r / 2.0

    def test_plan_defaults_beta(self):
        plan = plan_tuning(1.0)
        assert plan.beta == 2.0
        assert plan.zeta == pytest.approx(1.0)
        assert plan.r_alpha == pytest.approx(2 / 3 - 0.05)
        # alpha = 1, beta = 2 sits on the mass rule's boundary: no mass tuning
        assert plan.r_mass is None and plan.t_max_normality is None
        assert plan.t_default == pytest.approx(default_t(1.0, plan.r_alpha))

    def test_plan_with_mass_branch(self):
        plan = plan_tuning(2.0, 4.0, 0.01)
        assert plan.r_mass == pytest.approx(0.49)
        assert plan.t_max_normality == pytest.approx(0.245)
        assert 0.0 < plan.t_default < plan.t_max_consistency


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
