"""Columnar group statistics against reference implementations, bit for bit."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailspec import estimators
from tailspec.errors import (DegenerateGroup, EmptySample, EstimationWarning, GroupTooSmall,
                             InvalidModel)
from tailspec.experiments import default_r_grid
from tailspec.grouping import plan_grouping, summarize_groups
from tailspec.types import UNIT_NORM_TOL, DataMatrix, GroupScheme, GroupStats


def reference_groups(values, n, m):
    """(m1, m2, kappa, theta, argmax) of each group, one group at a time."""
    out = []
    for i in range(n):
        block = values[i * m:(i + 1) * m].tolist()
        norms = [math.sqrt(sum(x * x for x in row)) for row in block]
        j1 = 0
        for j, v in enumerate(norms):
            if v > norms[j1]:  # strict: the lowest index keeps a tie
                j1 = j
        m1 = norms[j1]
        m2 = max((v for j, v in enumerate(norms) if j != j1), default=None)
        kappa = None if m2 is None else m2 / m1
        theta = [x / m1 for x in block[j1]]
        out.append((m1, m2, kappa, theta, j1))
    return out


def reference_summarize_groups(data, scheme):
    """summarize_groups as it was before the row norms were cached and the
    second maxima computed on first read: every column built at once from
    norms computed per block."""
    if data.rows != scheme.total_rows:
        raise ValueError(
            f"scheme is for {scheme.total_rows} rows, data has {data.rows}"
        )
    n, m = scheme.n, scheme.m
    blocks = data.values[: n * m].reshape(n, m, data.dim)
    norms = np.sqrt((blocks * blocks).sum(axis=2))
    rows = np.arange(n)
    j1 = norms.argmax(axis=1)  # argmax returns the lowest index on ties
    m1 = norms[rows, j1]
    if (m1 == 0.0).any():
        bad = int(np.nonzero(m1 == 0.0)[0][0])
        raise DegenerateGroup(f"group {bad} has zero maximum norm")
    theta = blocks[rows, j1, :] / m1[:, None]
    if m >= 2:
        rest = norms.copy()
        rest[rows, j1] = -np.inf
        m2 = rest.max(axis=1)
        kappa = m2 / m1
    else:
        m2 = kappa = None
    return GroupStats(m1=m1, m2=m2, kappa=kappa, theta=theta, argmax=j1)


def group_summary_checks(m1, m2, theta):
    """The checks a single group's summary ran, with the same messages."""
    if m1 <= 0.0:
        raise InvalidModel("m1 must be positive")
    if m2 is not None and m2 > m1:
        raise InvalidModel("m2 exceeds m1")
    if abs(math.sqrt(float(theta @ theta)) - 1.0) > UNIT_NORM_TOL:
        raise InvalidModel("theta is not unit-norm")


def column_bits(stats):
    """Every column of a GroupStats as uint64 (argmax as intp), None kept."""
    return {name: None if getattr(stats, name) is None
            else getattr(stats, name).view(np.uint64 if name != "argmax" else np.intp).tolist()
            for name in ("m1", "m2", "kappa", "theta", "argmax")}


def outcome(summarize, values, scheme):
    """Column bits of summarize(values, scheme), or the error it raised."""
    try:
        return column_bits(summarize(DataMatrix(values), scheme))
    except (DegenerateGroup, InvalidModel) as e:
        return type(e).__name__, str(e)


def sample(seed, rows, d, ties):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))
    if not ties:
        return rng.standard_cauchy((rows, d))
    vals = rng.integers(-2, 3, size=(rows, d)).astype(float)
    vals[~vals.any(axis=1), 0] = 1.0  # no all-zero group
    return vals


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_columns_and_views_match_reference(d, m, ties):
    for seed in range(4):
        n = 1 + 17 * seed
        vals = sample(seed, n * m, d, ties)
        data = DataMatrix(vals)
        stats = summarize_groups(data, GroupScheme(r=0.5, n=n, m=m, discarded=0))
        ref = reference_groups(vals, n, m)
        assert stats.m1.shape == (n,) and stats.theta.shape == (n, d)
        assert bits(stats.m1) == bits([g[0] for g in ref])
        assert bits(stats.theta) == bits([g[3] for g in ref])
        assert stats.argmax.tolist() == [g[4] for g in ref]
        if m == 1:
            assert stats.m2 is None and stats.kappa is None
        else:
            assert bits(stats.m2) == bits([g[1] for g in ref])
            assert bits(stats.kappa) == bits([g[2] for g in ref])
        assert stats.norms.shape == (n, m)
        assert np.shares_memory(stats.norms, data.norms)


def test_ties_go_to_lowest_index():
    vals = sample(11, 40 * 5, 3, ties=True)
    stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=40, m=5, discarded=0))
    assert (stats.kappa == 1.0).sum() > 0  # the sample does tie
    assert stats.argmax.tolist() == [g[4] for g in reference_groups(vals, 40, 5)]


def test_explicit_columns_round_trip_and_estimators_agree():
    vals = sample(3, 30 * 4, 2, ties=False)
    stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=30, m=4, discarded=0))
    explicit = GroupStats(**{name: getattr(stats, name)
                             for name in ("m1", "m2", "kappa", "theta", "argmax")})
    for name in ("m1", "m2", "kappa", "theta"):
        assert bits(getattr(explicit, name)) == bits(getattr(stats, name))
    assert (explicit.argmax == stats.argmax).all()
    assert estimators.estimate_alpha(explicit) == estimators.estimate_alpha(stats)
    assert (estimators.estimate_spectral(explicit).atoms
            == estimators.estimate_spectral(stats).atoms).all()
    assert (estimators.estimate_total_mass(explicit, 4, 1.0, 0.2)
            == estimators.estimate_total_mass(stats, 4, 1.0, 0.2))


GOOD = (2.0, 1.0, 0.5, [0.6, 0.8])
BAD_ROWS = [
    (0.0, 0.0, 0.5, [0.6, 0.8]),    # m1 not positive
    (-1.0, None, None, [0.6, 0.8]),  # m1 not positive, singleton groups
    (1.0, 2.0, 2.0, [0.6, 0.8]),    # m2 exceeds m1
    (1.0, 0.5, 0.5, [0.6, 0.81]),   # theta not unit-norm
]


@pytest.mark.parametrize("bad", BAD_ROWS)
@pytest.mark.parametrize("at", [0, 2])
def test_vectorized_checks_raise_like_group_summary(bad, at):
    with pytest.raises(InvalidModel) as old:
        group_summary_checks(bad[0], bad[1], np.array(bad[3]))
    rows = [GOOD] * 3
    rows[at] = bad
    singleton = bad[1] is None
    with pytest.raises(InvalidModel) as new:
        GroupStats(m1=np.array([r[0] for r in rows]),
                   m2=None if singleton else np.array([r[1] for r in rows]),
                   kappa=None if singleton else np.array([r[2] for r in rows]),
                   theta=np.array([r[3] for r in rows]),
                   argmax=np.zeros(3, dtype=int))
    assert str(new.value) == str(old.value)


def test_columns_must_share_n():
    with pytest.raises(InvalidModel):
        GroupStats(m1=np.ones(3), m2=np.ones(2), kappa=np.ones(3),
                   theta=np.tile([1.0, 0.0], (3, 1)), argmax=np.zeros(3, dtype=int))


def test_zero_groups_rejected():
    with pytest.raises(EmptySample):
        GroupStats(m1=np.ones(0), m2=np.ones(0), kappa=np.ones(0),
                   theta=np.ones((0, 2)), argmax=np.zeros(0, dtype=np.intp))


def test_zero_group_raises_degenerate_group_with_its_index():
    vals = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateGroup, match="group 1 "):
        summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=2, m=2, discarded=0))


def test_columns_and_views_are_read_only():
    vals = sample(5, 12, 2, ties=False)
    data = DataMatrix(vals)
    stats = summarize_groups(data, GroupScheme(r=0.5, n=4, m=3, discarded=0))
    for name in ("m1", "m2", "kappa", "theta", "argmax", "norms"):
        col = getattr(stats, name)
        with pytest.raises(ValueError):
            col[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stats, name, col)
    with pytest.raises(ValueError):
        data.norms[0] = 1.0
    assert np.shares_memory(stats.norms, data.norms)


def test_callers_columns_stay_writable():
    cols = dict(m1=np.full(3, 2.0), m2=np.ones(3), kappa=np.full(3, 0.5),
                theta=np.tile([0.6, 0.8], (3, 1)), argmax=np.zeros(3, dtype=np.intp))
    stats = GroupStats(**cols)
    for name, col in cols.items():
        assert col.flags.writeable
        assert not getattr(stats, name).flags.writeable


def test_norms_and_second_maxima_are_exclusive():
    cols = dict(m1=np.full(3, 2.0), theta=np.tile([0.6, 0.8], (3, 1)),
                argmax=np.zeros(3, dtype=np.intp))
    with pytest.raises(InvalidModel, match="either"):
        GroupStats(**cols, m2=np.ones(3), kappa=np.full(3, 0.5), norms=np.ones((3, 2)))
    with pytest.raises(InvalidModel, match="one row per group"):
        GroupStats(**cols, norms=np.ones((2, 2)))


def test_second_maxima_computed_on_first_read():
    data = DataMatrix(sample(6, 40, 2, ties=True))
    stats = summarize_groups(data, GroupScheme(r=0.5, n=10, m=4, discarded=0))
    estimators.estimate_spectral(stats)
    estimators.estimate_total_mass(stats, 4, 1.0, 0.2)
    assert "m2" not in vars(stats) and "kappa" not in vars(stats)
    ref = reference_summarize_groups(data, GroupScheme(r=0.5, n=10, m=4, discarded=0))
    assert estimators.estimate_alpha(stats) == estimators.estimate_alpha(ref)
    assert stats.kappa is stats.kappa and stats.m2 is stats.m2


def tie_block(kind, m, d):
    """One group of m rows in d columns with the named tie pattern."""
    block = np.zeros((m, d))
    if kind == "two_equal_maxima":
        block[:, 0] = 0.5
        block[[(m - 1) // 2, m - 1], :] = 1.5  # two maxima unless m == 1
    elif kind == "all_equal":
        block[:] = -0.75
    elif kind == "zeros_beside_nonzero":
        block[m - 1, d - 1] = 3.0
    return block


@given(d=st.sampled_from([1, 2, 3]), m=st.sampled_from([1, 2, 3, 7]),
       n=st.integers(1, 5), extra=st.integers(0, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_summary_matches_reference_bits(d, m, n, extra, data):
    discarded = extra % n
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0]),
                      st.floats(-1e150, 1e150, allow_nan=False))
    values = data.draw(arrays(np.float64, (n * m + discarded, d), elements=entry))
    for i, kind in enumerate(data.draw(st.lists(st.sampled_from(
            ["random", "two_equal_maxima", "all_equal", "zeros_beside_nonzero", "all_zero"]),
            min_size=n, max_size=n))):
        if kind != "random":
            values[i * m:(i + 1) * m] = tie_block(kind, m, d)
    scheme = GroupScheme(r=0.5, n=n, m=m, discarded=discarded)
    new = outcome(summarize_groups, values, scheme)
    assert new == outcome(reference_summarize_groups, values, scheme)
    if (values[: n * m].reshape(n, m * d) == 0).all(axis=1).any():
        assert new[0] == "DegenerateGroup"


@pytest.mark.parametrize("kind", ["two_equal_maxima", "all_equal", "zeros_beside_nonzero"])
@pytest.mark.parametrize("m", [1, 2, 3, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tied_and_zero_rows_match_reference_bits(d, m, kind):
    values = np.concatenate([tie_block(kind, m, d), sample(d + m, 2 * m, d, ties=True)])
    scheme = GroupScheme(r=0.5, n=3, m=m, discarded=0)
    assert (outcome(summarize_groups, values, scheme)
            == outcome(reference_summarize_groups, values, scheme))
    values[m:2 * m] = 0.0
    with pytest.raises(DegenerateGroup, match="group 1 "):
        summarize_groups(DataMatrix(values), scheme)
    with pytest.raises(DegenerateGroup, match="group 1 "):
        reference_summarize_groups(DataMatrix(values), scheme)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_one_sample_at_every_grid_r_matches_fresh_samples(d):
    N = 20011
    vals = sample(17, N, d, ties=False)
    shared = DataMatrix(vals)
    grid = default_r_grid(N, "rho")
    assert len(grid) == 19
    for r in grid:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            scheme = plan_grouping(N, r, min_group=1)
        want = column_bits(reference_summarize_groups(DataMatrix(vals), scheme))
        assert column_bits(summarize_groups(DataMatrix(vals), scheme)) == want
        assert column_bits(summarize_groups(shared, scheme)) == want


def test_singleton_groups_make_estimate_alpha_raise():
    data = DataMatrix(sample(8, 9, 2, ties=False))
    stats = summarize_groups(data, GroupScheme(r=0.5, n=9, m=1, discarded=0))
    with pytest.raises(GroupTooSmall):
        estimators.estimate_alpha(stats)
    assert stats.m2 is None and stats.kappa is None
