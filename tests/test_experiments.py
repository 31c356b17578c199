"""Harness behavior: stream discipline, exact-law oracles, coverage sanity."""

import concurrent.futures
import math
import warnings

import numpy as np
import pytest

from montecarlo import (
    BiasDecayResult,
    run_bias_decay,
    run_frechet_check,
    sample_polar_block_maxima,
)
from tailspec import estimators, experiments, grouping, tuning
from tailspec.errors import (DimensionMismatch, EmptyExperiment, EstimationWarning, GroupTooSmall,
                             InvalidModel)
from tailspec.experiments import (
    draw_sample,
    default_r_grid,
    run_ci_coverage,
    run_ecdf_compare,
    run_r_sweep,
)
from tailspec.simulation import SeededRng
from tailspec.types import Halfspace, ModelSpec


def polar_model(alpha=1.0, total=1.0):
    return ModelSpec(alpha=alpha, total_mass=total,
                     atoms=[[1.0, 0.0], [0.0, 1.0]], weights=[0.6 * total, 0.4 * total])


def stable_1d_model():
    return ModelSpec(alpha=1.75, total_mass=1.0, beta=3.5,
                     atoms=[[1.0], [-1.0]], weights=[0.75, 0.25])


class TestSweep:
    def test_single_rep_equals_direct_pipeline(self):
        model = polar_model()
        master = SeededRng(31)
        res = run_r_sweep(model, 5000, [0.5], reps=1, target="alpha",
                          rng=master, sampler="polar")
        # the harness keys replication 0 as split(1, 0)
        data = draw_sample(model, 5000, master.split(1, 0), "polar")
        summaries = grouping.summarize_groups(data, grouping.plan_grouping(5000, 0.5))
        direct = estimators.estimate_alpha(summaries).alpha_hat
        assert res.mean[0] == direct
        assert res.stddev[0] == 0.0

    def test_rows_sorted_and_reps_constant(self):
        res = run_r_sweep(stable_1d_model(), 4000, [0.7, 0.3, 0.5], reps=3,
                          target="rho", rng=SeededRng(32), sampler="stable")
        assert (np.diff(res.one_minus_r) > 0).all()
        assert all(r[3] == 3 for r in res.rows())

    def test_workers_bit_identical(self):
        model = polar_model()
        a = run_r_sweep(model, 3000, [0.4, 0.6], reps=4, target="alpha",
                        rng=SeededRng(33), sampler="polar", workers=1)
        b = run_r_sweep(model, 3000, [0.4, 0.6], reps=4, target="alpha",
                        rng=SeededRng(33), sampler="polar", workers=2)
        assert (a.mean == b.mean).all() and (a.stddev == b.stddev).all()

    def test_rho_target_allows_singleton_groups(self):
        res = run_r_sweep(stable_1d_model(), 10000, [0.95], reps=2,
                          target="rho", rng=SeededRng(34), sampler="stable")
        assert -1.0 <= res.mean[0] <= 1.0

    def test_alpha_target_rejects_singleton_groups(self):
        with pytest.raises(GroupTooSmall):
            run_r_sweep(stable_1d_model(), 10000, [0.95], reps=1,
                        target="alpha", rng=SeededRng(35), sampler="stable")

    def test_zero_reps(self):
        with pytest.raises(EmptyExperiment):
            run_r_sweep(polar_model(), 1000, [0.5], reps=0, target="alpha",
                        rng=SeededRng(36))

    def test_default_grid_filters_by_feasibility(self):
        grid_rho = default_r_grid(100000, "rho")
        grid_alpha = default_r_grid(100000, "alpha")
        assert 0.95 in grid_rho and 0.95 not in grid_alpha
        assert len(grid_rho) == 19

    def test_mass_target_runs(self):
        res = run_r_sweep(polar_model(), 20000, [0.5], reps=2, target="mass",
                          rng=SeededRng(37), sampler="polar")
        assert res.mean[0] > 0.0


class TestPlanBeforeDraw:
    """A sweep or comparison plans its groupings before it draws a sample."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")
        monkeypatch.setattr(experiments, "draw_sample", draw)

    def test_infeasible_grid_point(self):
        with pytest.raises(GroupTooSmall):
            run_r_sweep(stable_1d_model(), 10000, [0.5, 0.999], reps=1,
                        target="alpha", rng=SeededRng(56), sampler="stable")

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            run_r_sweep(stable_1d_model(), 10000, [0.5], reps=1,
                        target="kappa", rng=SeededRng(57), sampler="stable")

    def test_infeasible_ecdf(self):
        # N = 1000, r = 0.999: n = 993 groups of m = 1 row
        with pytest.raises(GroupTooSmall):
            run_ecdf_compare(polar_model(), 1000, 0.999, 16, SeededRng(58))


@pytest.mark.parametrize("call, error, message", [
    (lambda: draw_sample(polar_model(), 10, SeededRng(59), "gauss"), InvalidModel,
     "unknown sampler 'gauss'"),
    (lambda: run_r_sweep(polar_model(), 1000, [], reps=1, target="alpha",
                         rng=SeededRng(60)), ValueError, "empty r grid"),
    (lambda: run_ecdf_compare(ModelSpec(alpha=1.0, total_mass=1.0, density="uniform"),
                              1000, 0.5, 1, SeededRng(61)), ValueError, "grid_size must be"),
    (lambda: run_ci_coverage(polar_model(), 1000, 0.5, "rho", 0.95, 5, SeededRng(62)),
     ValueError, "unknown estimator kind 'rho'"),
], ids=["unknown-sampler", "empty-grid", "ecdf-grid-size-1", "coverage-unknown-kind"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("target", ["alpha", "rho", "mass"])
@pytest.mark.parametrize("N", [10, 2000, 10**5])
def test_default_grid_is_what_plan_grouping_accepts(N, target):
    want = []
    for k in range(1, 20):
        r = 1.0 - 0.05 * k
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EstimationWarning)
                grouping.plan_grouping(N, r, min_group=1 if target == "rho" else 2)
        except GroupTooSmall:
            continue
        want.append(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # n = 1 points are kept without a warning
        assert default_r_grid(N, target) == want


class TestEcdf:
    def test_needs_d2(self):
        with pytest.raises(DimensionMismatch):
            run_ecdf_compare(stable_1d_model(), 1000, 0.5, 64, SeededRng(38))

    def test_exact_cdf_anchors(self):
        model = ModelSpec(alpha=0.75, total_mass=1.0, density="abscos2t")
        res = run_ecdf_compare(model, 20000, 0.5, 4, SeededRng(39),
                               sampler="stable", n_atoms=100)
        # grid is (pi/2, pi, 3pi/2, 2pi); quadrant masses are 1/4 each
        assert res.exact == pytest.approx([0.25, 0.5, 0.75, 1.0], abs=1e-9)
        assert res.estimated[-1] == 1.0
        assert 0.0 <= res.sup_distance <= 1.0

    def test_polar_sampler_small_sup(self):
        # polar directions are exactly multinomial: sup ~ KS/sqrt(n)
        model = ModelSpec(alpha=1.0, total_mass=1.0, density="uniform")
        res = run_ecdf_compare(model, 40000, 0.55, 256, SeededRng(40),
                               sampler="polar")
        assert res.sup_distance <= 2.0 / math.sqrt(res.n_atoms_estimate)


class TestCoverage:
    def test_zero_reps(self):
        with pytest.raises(EmptyExperiment):
            run_ci_coverage(polar_model(), 1000, 0.5, "alpha", 0.95, 0,
                            SeededRng(41))

    def test_alpha_coverage_half_level(self):
        # level 0.5 puts coverage near 0.5: binomial band at 200 reps
        model = polar_model()
        res = run_ci_coverage(model, 2000, tuning.auto_r("alpha", model.alpha, model.beta),
                              "alpha", 0.5, 200, SeededRng(42), sampler="polar")
        assert 0.39 <= res.coverage <= 0.61

    def test_spectral_needs_region(self):
        with pytest.raises(ValueError):
            run_ci_coverage(polar_model(), 1000, 0.5, "spectral", 0.95, 5,
                            SeededRng(43))

    def test_spectral_truth_from_model(self):
        res = run_ci_coverage(polar_model(), 2000, 0.5, "spectral", 0.95, 20,
                              SeededRng(44), region=Halfspace((1.0, 0.0), 0.5))
        assert res.truth == pytest.approx(0.6)
        assert 0.5 <= res.coverage <= 1.0

    def test_workers_bit_identical(self):
        a = run_ci_coverage(polar_model(), 2000, 0.5, "alpha", 0.9, 8,
                            SeededRng(52), workers=1)
        b = run_ci_coverage(polar_model(), 2000, 0.5, "alpha", 0.9, 8,
                            SeededRng(52), workers=2)
        assert a.hits == b.hits


class FakePool:
    """A ProcessPoolExecutor stand-in that records its size and maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestPoolSize:
    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments, "_available_cpus", lambda: 2)
        return FakePool.sizes

    def test_sweep_pool_capped_by_cpus_and_reps(self, pools):
        res = run_r_sweep(polar_model(), 2000, [0.5], reps=3, target="alpha",
                          rng=SeededRng(53), sampler="polar", workers=64)
        serial = run_r_sweep(polar_model(), 2000, [0.5], reps=3, target="alpha",
                             rng=SeededRng(53), sampler="polar", workers=1)
        assert pools == [2]
        assert (res.mean == serial.mean).all() and (res.stddev == serial.stddev).all()

    def test_coverage_pool_capped_by_cpus_and_reps(self, pools):
        res = run_ci_coverage(polar_model(), 2000, 0.5, "alpha", 0.9, 3,
                              SeededRng(54), workers=64)
        serial = run_ci_coverage(polar_model(), 2000, 0.5, "alpha", 0.9, 3,
                                 SeededRng(54), workers=1)
        assert pools == [2]
        assert res.hits == serial.hits

    def test_one_worker_or_one_rep_starts_no_pool(self, pools):
        run_ci_coverage(polar_model(), 2000, 0.5, "alpha", 0.9, 3,
                        SeededRng(55), workers=1)
        run_ci_coverage(polar_model(), 2000, 0.5, "alpha", 0.9, 1,
                        SeededRng(55), workers=64)
        assert pools == []


class TestFrechet:
    def test_m1_rejected(self):
        with pytest.raises(GroupTooSmall):
            run_frechet_check(polar_model(), 1, 100, SeededRng(46))

    def test_small_ks(self):
        ks = run_frechet_check(polar_model(), 500, 400, SeededRng(47))
        assert ks <= 0.08  # 95% KS quantile at n=400 is ~0.068

    def test_scale_moves_median(self):
        # Frechet median is (sigma / ln 2)^(1/alpha)
        model = ModelSpec(alpha=1.0, total_mass=2.0,
                          atoms=[[1.0]], weights=[2.0])
        m1 = sample_polar_block_maxima(model, 2000, 4000, SeededRng(48))
        q = m1 / 2000.0
        assert np.median(q) == pytest.approx(2.0 / math.log(2.0), abs=0.3)


class TestBiasDecay:
    def test_matches_exact_finite_m_mean(self):
        # grand mean of q^t vs the closed-form polar expectation
        model = ModelSpec(alpha=1.0, total_mass=1.0,
                          atoms=[[1.0]], weights=[1.0])
        t, m, n, reps = 0.2, 100, 2000, 20
        res = run_bias_decay(model, t, [m], n, reps, SeededRng(49))[0]
        exact_mean = math.gamma(1 - t) * math.exp(
            math.lgamma(m + 1) - t * math.log(m) - math.lgamma(m + 1 - t))
        limit = math.gamma(1 - t)
        exact_bias = exact_mean - limit
        se = 0.37 / math.sqrt(reps * n)  # sd(q^t) ~ 0.366 at t = 0.2
        assert abs(res.abs_bias - abs(exact_bias)) <= 5.0 * se

    def test_zero_reps(self):
        with pytest.raises(EmptyExperiment):
            run_bias_decay(polar_model(), 0.2, [100], 10, 0, SeededRng(50))

    def test_result_fields(self):
        res = run_bias_decay(polar_model(), 0.1, [50, 500], 100, 3, SeededRng(51))
        assert [r.m for r in res] == [50, 500]
        assert all(isinstance(r, BiasDecayResult) and r.groups == 300 for r in res)
