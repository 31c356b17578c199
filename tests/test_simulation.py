"""Generator correctness: reproducibility contract, tails, and scale mappings."""

import hashlib
import math
import platform
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailspec import simulation
from tailspec.errors import InvalidDensity, InvalidModel, UnsupportedAlpha
from tailspec.numerics import ks_distance
from tailspec.simulation import (
    SeededRng,
    _add_atom_terms,
    _cms,
    discretize_angular_density,
    sample_polar,
    sample_polar_block_maxima,
    sample_stable_1d,
    sample_stable_vector,
    splitmix64,
    stable_tail_constant,
)
from tailspec.types import ModelSpec, NamedDensity


class TestRngContract:
    def test_splitmix64_reference_vectors(self):
        # successive outputs of the reference splitmix64 run from state 0
        golden = 0x9E3779B97F4A7C15
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(golden) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * golden) % (1 << 64)) == 0x06C45D188009454F

    def test_frozen_philox_draws(self):
        # pins the (seed, stream) -> uniform mapping across platforms/releases
        got = SeededRng(42).generator().random(4)
        assert got == pytest.approx(
            [0.8201981478608876, 0.18924562408645496,
             0.8676608148821462, 0.3945814702827203], abs=1e-15)

    def test_split_reproducible_and_distinct(self):
        r = SeededRng(42)
        a = r.split(1, 0).generator().random(2)
        b = r.split(1, 0).generator().random(2)
        c = r.split(1, 1).generator().random(2)
        assert (a == b).all()
        assert (a != c).all()

    def test_streams_independent_of_construction_order(self):
        assert SeededRng(7).split(3, 5).stream == SeededRng(7).split(3).split(5).stream

    @pytest.mark.parametrize("rng", [SeededRng(42), SeededRng(7).split(3, 5)])
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 6, 7, 1001])
    def test_uniforms_read_the_generator_sequence(self, rng, start):
        want = rng.generator().random(start + 11)[start:]
        got = rng.uniforms(start, 11)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("start", [2**33 + 2, 2**66 + 3])
    def test_uniforms_far_into_the_stream(self, start):
        rng = SeededRng(7).split(3, 5)
        g = rng.generator()
        g.bit_generator.advance(start // 4)  # four doubles per Philox step
        want = g.random(start % 4 + 5)[start % 4:]
        got = rng.uniforms(start, 5)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def one_atom_model(alpha=1.0, total=1.0):
    return ModelSpec(alpha=alpha, total_mass=total,
                     atoms=((np.array([1.0, 0.0]), total),))


class TestSamplePolar:
    def test_single_atom_direction_and_tail(self):
        N = 200000
        data = sample_polar(one_atom_model(), N, SeededRng(101))
        assert (data.values[:, 1] == 0.0).all()
        assert (data.values[:, 0] >= 1.0).all()  # radius floor x0 = 1
        p10 = (data.values[:, 0] > 10.0).mean()
        tol = 4.0 * math.sqrt(0.1 * 0.9 / N)
        assert abs(p10 - 0.1) <= tol

    def test_two_atom_frequencies(self):
        model = ModelSpec(alpha=1.0, total_mass=2.0,
                          atoms=((np.array([1.0, 0.0]), 1.2),
                                 (np.array([0.0, 1.0]), 0.8)))
        N = 100000
        data = sample_polar(model, N, SeededRng(102))
        frac = (data.values[:, 0] != 0.0).mean()
        assert abs(frac - 0.6) <= 4.0 * math.sqrt(0.24 / N)

    def test_deterministic(self):
        a = sample_polar(one_atom_model(), 50, SeededRng(7))
        b = sample_polar(one_atom_model(), 50, SeededRng(7))
        assert (a.values == b.values).all()

    def test_density_model_quadrants(self):
        model = ModelSpec(alpha=0.75, total_mass=1.0,
                          density=lambda th: np.abs(np.cos(2 * th)) / 4)
        data = sample_polar(model, 40000, SeededRng(103))
        ang = np.mod(np.arctan2(data.values[:, 1], data.values[:, 0]), 2 * math.pi)
        for k in range(4):
            frac = ((ang >= k * math.pi / 2) & (ang < (k + 1) * math.pi / 2)).mean()
            assert abs(frac - 0.25) <= 5.0 * math.sqrt(0.25 * 0.75 / 40000)

    def test_regular_variation_limit(self):
        # n P(direction in B, |X| > r n^(1/alpha)) -> sigma(B) r^(-alpha)
        model = ModelSpec(alpha=1.0, total_mass=2.0,
                          atoms=((np.array([1.0, 0.0]), 1.2),
                                 (np.array([0.0, 1.0]), 0.8)))
        N, n = 10**6, 10**4
        data = sample_polar(model, N, SeededRng(104))
        norms = np.abs(data.values).sum(axis=1)  # axis atoms: L1 = L2 here
        in_b = data.values[:, 0] != 0.0
        for r_val in (1.0, 2.0):
            target = 1.2 * r_val ** -1.0
            stat = n * (in_b & (norms > r_val * n)).mean()
            se = n * math.sqrt(target / n / N)
            assert abs(stat - target) <= 5.0 * se

    def test_d1_atoms(self):
        model = ModelSpec(alpha=1.5, total_mass=1.0,
                          atoms=((np.array([1.0]), 0.75), (np.array([-1.0]), 0.25)))
        data = sample_polar(model, 20000, SeededRng(105))
        assert data.dim == 1
        frac_pos = (data.values[:, 0] > 0).mean()
        assert abs(frac_pos - 0.75) <= 4.0 * math.sqrt(0.1875 / 20000)


class TestStable1d:
    def test_tail_count_oracle(self):
        # gates the C_alpha scale mapping: m P(X > m^(1/a) x) ~ sigma(+1) x^-a
        alpha, rho, total, N, m = 1.75, 0.5, 1.0, 10**6, 1000
        data = sample_stable_1d(alpha, rho, total, N, SeededRng(106))
        x = data.values[:, 0]
        for xx, sigma_side in ((2.0, 0.75), (4.0, 0.75)):
            target = sigma_side * xx ** -alpha
            stat = m * (x > m ** (1 / alpha) * xx).mean()
            se = m * math.sqrt(target / m / N)
            assert abs(stat - target) <= 5.0 * se
        # left tail carries sigma(-1) = 0.25
        target = 0.25 * 2.0 ** -alpha
        stat = m * (x < -(m ** (1 / alpha)) * 2.0).mean()
        se = m * math.sqrt(target / m / N)
        assert abs(stat - target) <= 5.0 * se

    def test_symmetric_when_rho_zero(self):
        data = sample_stable_1d(1.75, 0.0, 1.0, 200000, SeededRng(107))
        x = data.values[:, 0]
        q99 = np.quantile(np.abs(x), 0.99)
        hi, lo = (x > q99).sum(), (x < -q99).sum()
        assert abs(hi - lo) <= 5.0 * math.sqrt(hi + lo)

    def test_deterministic(self):
        a = sample_stable_1d(0.75, 0.2, 1.0, 64, SeededRng(9))
        b = sample_stable_1d(0.75, 0.2, 1.0, 64, SeededRng(9))
        assert (a.values == b.values).all()

    @pytest.mark.parametrize("alpha", [1.0, 0.0, 2.0, 2.3])
    def test_unsupported_alpha(self, alpha):
        with pytest.raises(UnsupportedAlpha):
            sample_stable_1d(alpha, 0.5, 1.0, 10, SeededRng(1))

    def test_tail_constant_positive(self):
        for alpha in (0.3, 0.75, 1.5, 1.9):
            assert stable_tail_constant(alpha) > 0.0


class TestStableVector:
    def test_single_atom_ray(self):
        atoms = [(np.array([1.0, 0.0]), 1.0)]
        data = sample_stable_vector(0.75, atoms, 1000, SeededRng(108))
        assert (data.values[:, 1] == 0.0).all()
        assert (data.values[:, 0] > 0.0).all()  # totally skewed, alpha < 1

    def test_tail_weights_two_atoms(self):
        atoms = [(np.array([1.0, 0.0]), 0.7), (np.array([0.0, 1.0]), 0.3)]
        N, m = 10**6, 1000
        data = sample_stable_vector(0.75, atoms, N, SeededRng(109))
        norms = np.linalg.norm(data.values, axis=1)
        thr = m ** (1 / 0.75)
        big = norms > thr
        # among large-norm points, direction mass follows the atom weights
        ang = np.arctan2(data.values[big, 1], data.values[big, 0])
        frac_e1 = (ang < math.pi / 4).mean()
        assert abs(frac_e1 - 0.7) <= 5.0 * math.sqrt(0.21 / max(big.sum(), 1))
        stat = m * big.mean()
        assert abs(stat - 1.0) <= 5.0 * m * math.sqrt(1.0 / m / N)

    def test_alpha_must_be_below_one(self):
        with pytest.raises(UnsupportedAlpha):
            sample_stable_vector(1.2, [(np.array([1.0, 0.0]), 1.0)], 10, SeededRng(1))

    def test_deterministic(self):
        atoms = [(np.array([0.0, 1.0]), 1.0)]
        a = sample_stable_vector(0.5, atoms, 32, SeededRng(11))
        b = sample_stable_vector(0.5, atoms, 32, SeededRng(11))
        assert (a.values == b.values).all()

    def test_bad_weight_rejected(self):
        atoms = [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 0.0)]
        with pytest.raises(InvalidModel, match="weights"):
            sample_stable_vector(0.5, atoms, 10**5, SeededRng(1))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_output_independent_of_cpu_count(self, monkeypatch, cpus):
        atoms = [(np.array([1.0, 0.0, 0.0]), 0.5), (np.array([0.0, 0.6, 0.8]), 1.25)]
        N = 5 * simulation._ROWS_PER_THREAD + 5  # up to 5 threads on any machine
        rng = SeededRng(5, 9)
        want = serial_stable_vector(0.6, _terms(0.6, atoms), N, rng)
        monkeypatch.setattr(simulation, "_available_cpus", lambda: cpus)
        got = sample_stable_vector(0.6, atoms, N, rng).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_pool_workers_sample_serially(self):
        # the pool already spreads its workers over the CPUs
        assert simulation._available_cpus() >= 1
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(simulation._available_cpus).result() == 1

    def test_golden_digest(self):
        env = (np.__version__, platform.machine(), _numpy_dispatches_avx512())
        if env not in _GOLDEN_ABSCOS2T:
            pytest.skip(f"no digest recorded for numpy {env[0]} on {env[1]} "
                        f"(AVX-512 dispatch: {env[2]}); the CPU-count tests "
                        "still check the threaded path against the serial loop")
        atoms = discretize_angular_density(NamedDensity("abscos2t", 1.0), 1.0, 100)
        v = sample_stable_vector(0.75, atoms, 50001, SeededRng(3, 17)).values
        assert hashlib.sha256(v.tobytes()).hexdigest() == _GOLDEN_ABSCOS2T[env]


# SHA-256 of sample_stable_vector's output above, recorded with the serial
# per-atom sampler before rows were split across threads.  numpy's float64
# sin/cos/log1p/power kernels round differently across numpy releases, CPU
# architectures and SIMD dispatch (AVX-512 or its libm fallback), so each
# digest is keyed by (numpy version, machine, AVX-512 dispatch) and the test
# skips where none has been recorded.
_GOLDEN_ABSCOS2T = {
    ("2.4.6", "x86_64", True):
        "c08a9e702b3b43b4af4ae0ce903d37e60fc7c8ef29f759e94858917ff832262e",
    ("2.4.6", "x86_64", False):
        "d67e5b7129aecbb41d5103c1c0a7147ed0bfc3c0aa215ad210f722c1fdd0299e",
}


def _numpy_dispatches_avx512():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


def _terms(alpha, atoms):
    c_alpha = stable_tail_constant(alpha)
    return [(np.asarray(v, dtype=np.float64), (w / c_alpha) ** (1.0 / alpha))
            for v, w in atoms]


def reference_cms(alpha, skew, u1, u2):
    """The one-expression CMS formula that the in-place _cms replaced."""
    phi = math.pi * (u1 - 0.5)
    w = np.fmax(-np.log1p(-u2), 1e-300)
    b = math.atan(skew * math.tan(math.pi * alpha / 2.0)) / alpha
    return (
        np.sin(alpha * (phi + b))
        / (math.cos(alpha * b) * np.cos(phi)) ** (1.0 / alpha)
        * (np.cos(alpha * b + (alpha - 1.0) * phi) / w) ** ((1.0 - alpha) / alpha)
    )


def serial_stable_vector(alpha, terms, N, rng):
    """The single-threaded per-atom loop: u1 then u2 for each atom in turn."""
    g = rng.generator()
    out = np.zeros((N, terms[0][0].shape[0]))
    for v, scale in terms:
        z = scale * reference_cms(alpha, 1.0, g.random(N), g.random(N))
        out += z[:, None] * v[None, :]
    return out


# uniforms where the formula's edges sit: 0 and doubles below 1e-300, where
# w = -log1p(-u2) takes its 1e-300 floor; 0.5 and its neighbours, where
# phi = 0; and the largest doubles below 1, where w is largest
_EDGE_UNIFORMS = [0.0, 5e-324, 1e-310, 2.0**-53, 0.5, 0.5 - 2.0**-54,
                  0.5 + 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-40]


@given(alpha=st.one_of(st.floats(0.01, 1.99).filter(lambda a: a != 1.0),
                       st.sampled_from([0.5, 2.0 / 3.0, 0.75, 1.5, 1.75, 1.99])),
       skew=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0])),
       u=st.lists(st.tuples(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                      st.sampled_from(_EDGE_UNIFORMS)),
                            st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                      st.sampled_from(_EDGE_UNIFORMS))),
                  min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_cms_matches_one_expression_formula(alpha, skew, u):
    u1, u2 = (np.array(c) for c in zip(*u))
    with np.errstate(all="ignore"):  # extreme inputs overflow to inf or nan
        want = reference_cms(alpha, skew, u1, u2)
        got = _cms(alpha, skew, u1.copy(), u2.copy())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("N", [1, 2, 3, 5, 64, 1001, 8193])
def test_stable_1d_matches_one_expression_formula(N):
    alpha, rho, total = 1.75, 0.5, 1.3
    g = SeededRng(12, N).generator()
    scale = (total / stable_tail_constant(alpha)) ** (1.0 / alpha)
    want = scale * reference_cms(alpha, rho, g.random(N), g.random(N))
    got = sample_stable_1d(alpha, rho, total, N, SeededRng(12, N)).values[:, 0]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def row_split(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    unit = st.lists(st.floats(-1, 1), min_size=d, max_size=d).filter(
        lambda x: math.hypot(*x) > 0.1)
    atoms = [(np.array(x) / math.hypot(*x), draw(st.floats(0.01, 10.0)))
             for x in draw(st.lists(unit, min_size=k, max_size=k))]
    N = draw(st.integers(1, 300))
    cuts = sorted(draw(st.lists(st.integers(0, N), max_size=6)))
    return atoms, N, [0, *cuts, N]


@given(split=row_split(), alpha=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_row_ranges_match_serial_loop(split, alpha, seed, stream):
    atoms, N, cuts = split
    rng = SeededRng(seed, stream)
    terms = _terms(alpha, atoms)
    want = serial_stable_vector(alpha, terms, N, rng)
    out = np.zeros_like(want)
    # ranges filled last to first: no range depends on another
    for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
        _add_atom_terms(out, alpha, terms, rng, lo, hi)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


class TestDiscretize:
    def test_quadrant_symmetry_k4(self):
        atoms = discretize_angular_density(
            lambda th: np.abs(np.cos(2 * th)) / 4, 1.0, 4)
        assert [w for _, w in atoms] == pytest.approx([0.25] * 4)

    def test_uniform_k8(self):
        atoms = discretize_angular_density(
            lambda th: np.full_like(np.asarray(th, float), 1 / (2 * math.pi)), 1.0, 8)
        assert [w for _, w in atoms] == pytest.approx([1 / 8] * 8)

    def test_weights_sum_to_total(self):
        atoms = discretize_angular_density(
            lambda th: np.abs(np.cos(2 * th)) / 4, 3.5, 101)
        assert sum(w for _, w in atoms) == pytest.approx(3.5, abs=1e-12)

    def test_negative_density_rejected(self):
        with pytest.raises(InvalidDensity):
            discretize_angular_density(lambda th: np.cos(th), 1.0, 16)

    def test_k_minimum(self):
        with pytest.raises(InvalidModel):
            discretize_angular_density(lambda th: th * 0 + 1 / (2 * math.pi), 1.0, 3)


class TestBlockMaximaShortcut:
    def test_matches_exact_finite_m_law(self):
        model = ModelSpec(alpha=1.0, total_mass=2.0,
                          atoms=((np.array([1.0]), 2.0),))
        m, n = 100, 20000
        m1 = sample_polar_block_maxima(model, m, n, SeededRng(110))
        x0 = 2.0

        def cdf(y):
            y = np.asarray(y, dtype=float)
            out = np.zeros_like(y)
            ok = y >= x0
            out[ok] = (1.0 - 2.0 / y[ok]) ** m
            return out

        assert ks_distance(m1, cdf) <= 0.015  # 95% KS quantile is ~0.0096

    def test_matches_pipeline_distribution(self):
        # same law as the max norm taken through the grouping pipeline
        from tailspec.grouping import summarize_groups
        from tailspec.types import GroupScheme

        model = ModelSpec(alpha=1.5, total_mass=1.0,
                          atoms=((np.array([1.0]), 1.0),))
        m, n = 50, 4000
        direct = np.sort(sample_polar_block_maxima(model, m, n, SeededRng(111)))
        data = sample_polar(model, n * m, SeededRng(112))
        scheme = GroupScheme(r=0.5, n=n, m=m, discarded=0)
        piped = np.sort(summarize_groups(data, scheme).m1)
        # two-sample KS with independent seeds; 99.9% quantile ~ 1.95*sqrt(2/n)
        gap = np.abs(
            np.searchsorted(direct, piped, side="right") / n
            - np.arange(1, n + 1) / n
        ).max()
        assert gap <= 1.95 * math.sqrt(2.0 / n)
