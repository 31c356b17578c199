"""Domain-type invariants and the validate_data contract."""

import math
import pickle

import numpy as np
import pytest

from tailspec.errors import (
    DimensionMismatch,
    EmptySample,
    InvalidModel,
    NonFiniteEntry,
)
from tailspec.grouping import summarize_groups
from tailspec.types import (
    Arc,
    DataMatrix,
    GroupScheme,
    Halfspace,
    Interval,
    ModelSpec,
    SpectralEstimate,
    _density_grid,
    _planar_angles,
    density_shape,
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
    def test_non_unit_atom_rejected(self):
        with pytest.raises(InvalidModel):
            SpectralEstimate(np.array([[1.0, 1.0]]))

    def test_angles(self):
        est = SpectralEstimate(np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert est.angles_2d() == pytest.approx([math.pi / 2, 3 * math.pi / 2])

    def test_angles_need_d2(self):
        with pytest.raises(DimensionMismatch):
            SpectralEstimate(np.array([[1.0]])).angles_2d()

    def test_planar_angles_match_np_mod_bits(self):
        g = np.random.default_rng(12)
        v = g.standard_normal((4000, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        edges = [[1.0, 0.0], [1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, 0.0],
                 [-0.0, -0.0], [np.nan, 1.0], [1e-300, -1.0], [1.0, -1e-300]]
        v = np.concatenate([v, edges])
        want = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2.0 * math.pi)
        assert (_planar_angles(v).view(np.uint64) == want.view(np.uint64)).all()


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
        atoms=[[1.0], [-1.0]], weights=[w_pos, w_neg],
    )


class TestModelSpec:
    def test_rho_query(self):
        assert two_point_model().rho == pytest.approx(0.5)

    def test_atom_weights_must_sum(self):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=1.0, total_mass=2.0,
                      atoms=[[1.0, 0.0]], weights=[0.5])

    def test_weight_sum_tolerance_is_relative(self):
        # a sum one ulp below a total of 1e22 passes, 2^21 away from it
        weights = [1e22 / 2.0 * (1.0 + 0.9), 1e22 / 2.0 * (1.0 - 0.9)]
        assert sum(weights) == 9.999999999999998e+21
        ModelSpec(alpha=1.0, total_mass=1e22, atoms=[[1.0], [-1.0]], weights=weights)
        # a sum within 1e-9 of a total of 1e-300, but 2e290 times it, fails
        with pytest.raises(InvalidModel, match="atom weights sum to 2e-10"):
            ModelSpec(alpha=1.0, total_mass=1e-300, atoms=[[1.0], [-1.0]],
                      weights=[1e-10, 1e-10])

    def test_need_atoms_or_density(self):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=1.0, total_mass=1.0)

    def test_empty_atoms_rejected(self):
        with pytest.raises(InvalidModel, match="need at least one atom"):
            ModelSpec(alpha=1.0, total_mass=1.0, atoms=(), weights=())

    @pytest.mark.parametrize("name", ["abscos2t", "uniform"])
    def test_density_shapes_integrate_to_one(self, name):
        mids, step = _density_grid()
        integral = float(density_shape(name)(mids, 1.0).sum() * step)
        assert abs(integral - 1.0) <= 1e-8

    @pytest.mark.parametrize("density", [lambda th: np.abs(np.cos(2 * th)) / 4,
                                         "triangle", ["abscos2t"]])
    def test_density_must_name_a_shape(self, density):
        with pytest.raises(InvalidModel, match="unknown density"):
            ModelSpec(alpha=1.0, total_mass=1.0, density=density)

    def test_density_scaled_to_total_mass(self):
        # a large mass is accepted: the shape is scaled, not checked by quadrature
        theta = np.linspace(0.0, 2 * math.pi, 9)
        m = ModelSpec(alpha=0.75, total_mass=1000.0, density="abscos2t")
        assert (m.density_at(theta) == 1000.0 * np.abs(np.cos(2.0 * theta)) / 4.0).all()
        assert m.spectral_cdf([math.pi / 2])[0] == pytest.approx(0.25, abs=1e-6)

    def test_density_cdf_values(self):
        m = ModelSpec(alpha=0.75, total_mass=1.0, density="abscos2t")
        cdf = m.spectral_cdf([math.pi / 4, math.pi / 2, 2 * math.pi])
        # closed forms: int_0^{pi/4} cos(2u)/4 du = 1/8; quadrant symmetry
        assert cdf[0] == pytest.approx(1.0 / 8.0, abs=1e-6)
        assert cdf[1] == pytest.approx(0.25, abs=1e-6)
        assert cdf[2] == pytest.approx(1.0, abs=1e-9)

    def test_atom_cdf_and_mass(self):
        m = ModelSpec(alpha=1.0, total_mass=2.0,
                      atoms=[[1.0, 0.0], [0.0, 1.0]], weights=[1.2, 0.8])
        assert m.spectral_cdf([0.0])[0] == pytest.approx(0.6)
        assert m.spectral_cdf([math.pi / 2])[0] == pytest.approx(1.0)
        assert m.normalized_mass(Halfspace((1.0, 0.0), 0.5)) == pytest.approx(0.6)

    def test_normalized_mass_density(self):
        m = ModelSpec(alpha=0.75, total_mass=1.0, density="abscos2t")
        quad = m.normalized_mass(Arc(0.0, math.pi / 2))
        assert quad == pytest.approx(0.25, abs=1e-4)

    def test_beta_must_exceed_alpha(self):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=2.0, total_mass=1.0, beta=2.0,
                      atoms=[[1.0]], weights=[1.0])

    @pytest.mark.parametrize("fields", [
        dict(alpha=math.nan, total_mass=1.0, atoms=[[1.0, 0.0]], weights=[1.0]),
        dict(alpha=math.inf, total_mass=1.0, atoms=[[1.0, 0.0]], weights=[1.0]),
        dict(alpha=1.0, total_mass=math.nan, atoms=[[1.0, 0.0]], weights=[math.nan]),
        dict(alpha=1.0, total_mass=1.0, atoms=[[math.nan, 0.0], [1.0, 0.0]],
             weights=[0.5, 0.5]),
        dict(alpha=1.0, total_mass=1.0, atoms=[[1.0, 0.0], [0.0, 1.0]],
             weights=[math.nan, 0.5]),
        dict(alpha=1.0, total_mass=1.0, beta=math.nan, atoms=[[1.0]], weights=[1.0]),
    ])
    def test_non_finite_rejected(self, fields):
        with pytest.raises(InvalidModel):
            ModelSpec(**fields)

    def test_infinite_beta_accepted(self):
        assert ModelSpec(alpha=1.0, total_mass=1.0, beta=math.inf,
                         atoms=[[1.0]], weights=[1.0]).beta == math.inf

    @pytest.mark.parametrize("atoms, weights", [
        ([[1.0, 0.0], [0.0, 1.0]], [1.0]),
        ([[1.0, 0.0]], [0.5, 0.5]),
        ([[1.0, 0.0]], [[1.0]]),
        ([1.0, 0.0], [1.0]),
        ([[1.0, 0.0]], None),
    ])
    def test_atom_and_weight_shapes_must_match(self, atoms, weights):
        with pytest.raises(InvalidModel):
            ModelSpec(alpha=1.0, total_mass=1.0, atoms=atoms, weights=weights)

    def test_arrays_read_only(self):
        atoms, weights = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.2, 0.8])
        m = ModelSpec(alpha=1.0, total_mass=2.0, atoms=atoms, weights=weights)
        assert m.atoms.shape == (2, 2) and m.weights.shape == (2,)
        assert m.atoms.dtype == m.weights.dtype == np.float64
        with pytest.raises(ValueError):
            m.atoms[0, 0] = 0.0
        with pytest.raises(ValueError):
            m.weights[0] = 0.0
        assert atoms.flags.writeable and weights.flags.writeable


def test_arrays_stay_read_only_after_unpickling():
    # the --workers processes receive their models and samples by pickle,
    # which does not carry numpy's read-only flag
    data = DataMatrix(np.random.default_rng(3).standard_cauchy((60, 2)))
    stats = summarize_groups(data, GroupScheme(r=0.5, n=6, m=10, discarded=0))
    stats.kappa  # reads m2 too: cached columns join the pickled state
    model = ModelSpec(alpha=1.0, total_mass=2.0, atoms=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      weights=np.array([1.2, 0.8]))
    assert {"norms"} <= vars(data).keys() and {"m2", "kappa"} <= vars(stats).keys()
    for obj in (data, stats, SpectralEstimate(stats.theta), model):
        back = pickle.loads(pickle.dumps(obj))
        assert vars(back).keys() == vars(obj).keys()
        arrays = {k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)}
        assert arrays
        for name, a in arrays.items():
            b = getattr(back, name)
            assert not b.flags.writeable, (type(obj).__name__, name)
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes())


@pytest.mark.parametrize("build, error, message", [
    (lambda: DataMatrix(np.zeros((2, 2, 2))), InvalidModel, "ndim=3"),
    (lambda: GroupScheme(r=1.0, n=2, m=2, discarded=0), InvalidModel, "r=1.0 outside"),
    (lambda: GroupScheme(r=0.5, n=0, m=2, discarded=0), InvalidModel, "must be positive"),
    (lambda: SpectralEstimate(np.zeros((0, 2))), EmptySample, "at least one atom"),
    (lambda: Interval(0.0, 1.0, 1.0), InvalidModel, "level must be in"),
    (lambda: ModelSpec(alpha=0.0, total_mass=1.0, density="uniform"), InvalidModel,
     "alpha must be positive"),
    (lambda: ModelSpec(alpha=1.0, total_mass=0.0, density="uniform"), InvalidModel,
     "total_mass must be positive"),
    (lambda: ModelSpec(alpha=1.0, total_mass=-1.0, density="uniform"), InvalidModel,
     "total_mass must be positive"),
    (lambda: ModelSpec(alpha=1.0, total_mass=1.0, atoms=[[2.0, 0.0]], weights=[1.0]),
     InvalidModel, "unit vectors"),
    (lambda: ModelSpec(alpha=1.0, total_mass=1.0, atoms=[[1.0, 0.0], [0.0, 1.0]],
                       weights=[1.5, -0.5]), InvalidModel, "weights must be positive"),
    (lambda: ModelSpec(alpha=1.0, total_mass=1.0, atoms=[[1.0, 0.0]], weights=[1.0]).rho,
     DimensionMismatch, "d=1 atom models"),
    (lambda: ModelSpec(alpha=1.0, total_mass=1.0, atoms=[[1.0]], weights=[1.0])
     .spectral_cdf([1.0]), DimensionMismatch, "needs d=2"),
], ids=["data-ndim-3", "scheme-r-1", "scheme-n-0", "spectral-empty", "interval-level-1",
        "model-alpha-0", "model-mass-0", "model-mass-negative", "model-atom-not-unit",
        "model-weight-negative", "model-rho-d2", "model-cdf-d1"])
def test_input_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()
