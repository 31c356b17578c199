"""Special-function checks against independent oracles (math/scipy)."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from tailspec.errors import DomainError
from tailspec.numerics import gamma_fn, normal_quantile


class TestGamma:
    def test_table(self):
        # frozen table values, 1e-10 absolute
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), abs=1e-10)
        assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-10)
        assert gamma_fn(4.0) == pytest.approx(6.0, abs=1e-10)

    def test_against_math_gamma_grid(self):
        # independent oracle: C library gamma, relative 1e-12 on (0, 30]
        for x in np.concatenate([np.linspace(0.05, 2.0, 79),
                                 np.linspace(2.5, 30.0, 56)]):
            assert gamma_fn(float(x)) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_functional_equation(self):
        for x in np.arange(0.1, 5.01, 0.15):
            x = float(x)
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)


class TestNormalQuantile:
    def test_center(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_spec_value(self):
        # the z used by every 95% interval in the package
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-8)
        assert normal_quantile(0.025) == pytest.approx(-1.959963984540054, abs=1e-8)

    def test_against_scipy_grid(self):
        for p in np.concatenate([np.linspace(1e-6, 0.02, 11),
                                 np.linspace(0.03, 0.97, 95),
                                 np.linspace(0.98, 1 - 1e-6, 11)]):
            assert normal_quantile(float(p)) == pytest.approx(
                scipy.stats.norm.ppf(p), abs=1e-8)

    def test_round_trip(self):
        for z in np.linspace(-4.0, 4.0, 81):
            p = float(scipy.stats.norm.cdf(z))
            assert normal_quantile(p) == pytest.approx(z, abs=1e-6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            normal_quantile(bad)
