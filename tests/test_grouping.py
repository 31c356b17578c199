"""Grouping plan arithmetic and per-group maxima statistics."""

import numpy as np
import pytest

from tailspec.errors import (
    DegenerateGroup,
    EstimationWarning,
    GroupTooSmall,
    InvalidR,
)
from tailspec.grouping import plan_grouping, summarize_groups
from tailspec.types import DataMatrix, GroupScheme


def single_group(m):
    return GroupScheme(r=0.5, n=1, m=m, discarded=0)


class TestPlanGrouping:
    def test_example_100k(self):
        s = plan_grouping(100000, 0.5)
        assert (s.n, s.m, s.discarded) == (316, 316, 144)

    def test_example_50k(self):
        s = plan_grouping(50000, 0.5)
        assert (s.n, s.m, s.discarded) == (223, 224, 48)

    def test_degenerate_single_group_warns(self):
        with pytest.warns(EstimationWarning):
            s = plan_grouping(10, 0.3)
        assert (s.n, s.m, s.discarded) == (1, 10, 0)

    def test_group_too_small(self):
        with pytest.raises(GroupTooSmall):
            plan_grouping(10, 0.95)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.3, 1.7])
    def test_invalid_r(self, r):
        with pytest.raises(InvalidR):
            plan_grouping(100, r)

    def test_min_group_one_allows_singletons(self):
        s = plan_grouping(100000, 0.95, min_group=1)
        assert s.m == 1 and s.n == 56234

    def test_exact_power_not_floored_down(self):
        # 10^6 at r = 0.5 must give exactly 1000 groups despite float pow
        s = plan_grouping(10**6, 0.5)
        assert s.n == 1000

    def test_accounting_identity(self):
        import warnings

        for N in (17, 1000, 54321):
            for r in (0.2, 0.5, 0.7):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", EstimationWarning)
                    s = plan_grouping(N, r)
                assert s.n * s.m + s.discarded == N
                assert 0 <= s.discarded < s.n


class TestSummarizeGroups:
    def test_hand_example(self):
        data = DataMatrix(np.array([[3.0, 4.0], [0.0, 1.0], [-6.0, 8.0]]))
        s = summarize_groups(data, single_group(3))
        assert s.m1.shape == (1,)
        assert s.m1[0] == pytest.approx(10.0)
        assert s.m2[0] == pytest.approx(5.0)
        assert s.kappa[0] == pytest.approx(0.5)
        assert s.theta[0] == pytest.approx([-0.6, 0.8])
        assert s.argmax[0] == 2

    def test_tie_break_lowest_index(self):
        data = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        s = summarize_groups(data, single_group(2))
        assert s.m1[0] == s.m2[0] == 1.0
        assert s.kappa[0] == 1.0
        assert s.theta[0] == pytest.approx([1.0, 0.0])
        assert s.argmax[0] == 0

    def test_all_zero_group(self):
        data = DataMatrix(np.zeros((2, 2)))
        with pytest.raises(DegenerateGroup):
            summarize_groups(data, single_group(2))

    def test_second_max_removes_one_vector_only(self):
        # duplicated maximal vectors: M2 must equal M1
        data = DataMatrix(np.array([[5.0, 0.0], [5.0, 0.0], [1.0, 0.0]]))
        s = summarize_groups(data, single_group(3))
        assert s.m1[0] == s.m2[0] == 5.0

    def test_trailing_rows_dropped(self):
        # last row has the largest norm but falls into the discarded tail
        vals = np.c_[np.arange(1.0, 8.0), np.zeros(7)]
        scheme = plan_grouping(7, 0.5)  # n=2, m=3, discarded=1
        s = summarize_groups(DataMatrix(vals), scheme)
        assert s.m1.tolist() == [3.0, 6.0]

    def test_singleton_groups_have_no_kappa(self):
        data = DataMatrix(np.array([[1.0], [2.0], [-3.0]]))
        s = summarize_groups(data, GroupScheme(r=0.9, n=3, m=1, discarded=0))
        assert s.m2 is None and s.kappa is None
        assert s.theta[:, 0].tolist() == [1.0, 1.0, -1.0]

    def test_within_group_permutation_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([8, 0], np.uint64)))
        data = rng.standard_normal((12, 3))
        scheme = plan_grouping(12, 0.45)  # n=3, m=4
        base = summarize_groups(DataMatrix(data), scheme)
        shuffled = data.copy()
        for i in range(3):
            block = shuffled[i * 4:(i + 1) * 4]
            shuffled[i * 4:(i + 1) * 4] = block[rng.permutation(4)]
        perm = summarize_groups(DataMatrix(shuffled), scheme)
        for name in ("m1", "m2", "kappa"):
            assert (getattr(base, name) == getattr(perm, name)).all()

    def test_scale_equivariance_power_of_two(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([9, 0], np.uint64)))
        data = rng.standard_normal((40, 2))
        scheme = plan_grouping(40, 0.4)
        base = summarize_groups(DataMatrix(data), scheme)
        scaled = summarize_groups(DataMatrix(data * 4.0), scheme)
        assert (scaled.m1 == 4.0 * base.m1).all()
        assert (scaled.m2 == 4.0 * base.m2).all()
        assert (scaled.kappa == base.kappa).all()  # bit-identical
        assert (scaled.theta == base.theta).all()

    def test_oracle_full_sort_equivalence(self):
        # (M1, M2) must equal the top two entries of the sorted norm list
        rng = np.random.Generator(np.random.Philox(key=np.array([10, 0], np.uint64)))
        for trial in range(1000):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            vals = rng.integers(-3, 4, size=(n * m, d)).astype(float)  # many ties
            if (np.abs(vals).sum(axis=1) == 0).any():
                vals[np.abs(vals).sum(axis=1) == 0, 0] = 1.0
            scheme = GroupScheme(r=0.5, n=n, m=m, discarded=0)
            summaries = summarize_groups(DataMatrix(vals), scheme)
            norms = np.linalg.norm(vals.reshape(n, m, d), axis=2)
            for i in range(n):
                top = np.sort(norms[i])[::-1]
                assert summaries.m1[i] == top[0]
                assert summaries.m2[i] == top[1]
