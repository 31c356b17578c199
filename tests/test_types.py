"""Domain-type invariants and the validate_data contract."""

import math

import numpy as np
import pytest

from tailspec.errors import (
    DimensionMismatch,
    EmptySample,
    InvalidModel,
    NonFiniteEntry,
)
from tailspec.types import (
    DataMatrix,
    GroupScheme,
    Interval,
    ModelSpec,
    NormalizedStat,
    SpectralEstimate,
    validate_data,
)


class TestDataMatrix:
    def test_identity_accept(self):
        d = DataMatrix(np.eye(2))
        assert validate_data(d) is d

    def test_nan_position_reported(self):
        a = np.ones((5, 3))
        a[3, 1] = np.nan
        with pytest.raises(NonFiniteEntry) as exc:
            validate_data(DataMatrix(a))
        assert (exc.value.row, exc.value.col) == (3, 1)

    def test_inf_rejected(self):
        a = np.ones((2, 2))
        a[0, 0] = np.inf
        with pytest.raises(NonFiniteEntry):
            validate_data(DataMatrix(a))

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            DataMatrix(np.empty((0, 2)))

    def test_one_dim_becomes_column(self):
        d = DataMatrix(np.array([1.0, 2.0, 3.0]))
        assert (d.rows, d.dim) == (3, 1)

    def test_read_only(self):
        d = DataMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 7.0

    def test_callers_array_stays_writable(self):
        a = np.ones((4, 2))
        d = DataMatrix(a)
        assert a.flags.writeable
        assert not d.values.flags.writeable
        assert np.shares_memory(a, d.values)  # a read-only view, not a copy


class TestGroupScheme:
    def test_accounting_enforced(self):
        with pytest.raises(InvalidModel):
            GroupScheme(r=0.5, n=3, m=4, discarded=5)  # discarded >= n

    def test_total_rows(self):
        s = GroupScheme(r=0.5, n=316, m=316, discarded=144)
        assert s.total_rows == 100000


class TestSpectralEstimate:
    def test_full_sphere_mass_is_one(self):
        est = SpectralEstimate(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert est.weight * est.n == 1.0

    def test_non_unit_atom_rejected(self):
        with pytest.raises(InvalidModel):
            SpectralEstimate(np.array([[1.0, 1.0]]))

    def test_angles(self):
        est = SpectralEstimate(np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert est.angles_2d() == pytest.approx([math.pi / 2, 3 * math.pi / 2])

    def test_angles_need_d2(self):
        with pytest.raises(DimensionMismatch):
            SpectralEstimate(np.array([[1.0]])).angles_2d()


class TestNormalizedStat:
    def test_stderr_monotone_in_n(self):
        errs = [NormalizedStat(0.0, 2.0, n).stderr for n in (1, 10, 100, 10000)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidModel):
            NormalizedStat(0.0, -1.0, 5)


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(InvalidModel):
            Interval(lo=1.0, hi=0.0, level=0.95)

    def test_infinite_endpoints_kept(self):
        iv = Interval(lo=0.0, hi=math.inf, level=0.9)
        assert iv.contains(1e12)


def two_point_model(w_pos=0.75, w_neg=0.25):
    return ModelSpec(
        alpha=1.75,
        total_mass=w_pos + w_neg,
        atoms=((np.array([1.0]), w_pos), (np.array([-1.0]), w_neg)),
    )


class TestModelSpec:
    def test_rho_query(self):
        assert two_point_model().rho == pytest.approx(0.5)

    def test_atom_weights_must_sum(self):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=1.0, total_mass=2.0,
                      atoms=((np.array([1.0, 0.0]), 0.5),))

    def test_need_atoms_or_density(self):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=1.0, total_mass=1.0)

    def test_empty_atoms_rejected(self):
        with pytest.raises(InvalidModel, match="need at least one atom"):
            ModelSpec(alpha=1.0, total_mass=1.0, atoms=())

    def test_density_integral_checked(self):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=1.0, total_mass=2.0,
                      density=lambda th: np.abs(np.cos(2 * th)) / 4)

    def test_density_cdf_values(self):
        m = ModelSpec(alpha=0.75, total_mass=1.0,
                      density=lambda th: np.abs(np.cos(2 * th)) / 4)
        cdf = m.spectral_cdf([math.pi / 4, math.pi / 2, 2 * math.pi])
        # closed forms: int_0^{pi/4} cos(2u)/4 du = 1/8; quadrant symmetry
        assert cdf[0] == pytest.approx(1.0 / 8.0, abs=1e-6)
        assert cdf[1] == pytest.approx(0.25, abs=1e-6)
        assert cdf[2] == pytest.approx(1.0, abs=1e-9)

    def test_atom_cdf_and_mass(self):
        m = ModelSpec(alpha=1.0, total_mass=2.0,
                      atoms=((np.array([1.0, 0.0]), 1.2),
                             (np.array([0.0, 1.0]), 0.8)))
        assert m.spectral_cdf([0.0])[0] == pytest.approx(0.6)
        assert m.spectral_cdf([math.pi / 2])[0] == pytest.approx(1.0)
        assert m.normalized_mass(lambda v: v[0] > 0.5) == pytest.approx(0.6)

    def test_normalized_mass_density(self):
        m = ModelSpec(alpha=0.75, total_mass=1.0,
                      density=lambda th: np.abs(np.cos(2 * th)) / 4)
        quad = m.normalized_mass(
            lambda v: math.atan2(v[1], v[0]) % (2 * math.pi) < math.pi / 2)
        assert quad == pytest.approx(0.25, abs=1e-4)

    def test_beta_must_exceed_alpha(self):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=2.0, total_mass=1.0, beta=2.0,
                      atoms=((np.array([1.0]), 1.0),))
