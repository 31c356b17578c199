"""Columnar group statistics against a per-group reference loop, bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from tailspec import estimators
from tailspec.errors import DegenerateGroup, InvalidModel
from tailspec.grouping import summarize_groups
from tailspec.types import DataMatrix, GroupScheme, GroupStats, GroupSummary


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
        stats = summarize_groups(DataMatrix(vals),
                                 GroupScheme(r=0.5, n=n, m=m, discarded=0))
        ref = reference_groups(vals, n, m)
        assert len(stats) == n and stats.theta.shape == (n, d)
        assert bits(stats.m1) == bits([g[0] for g in ref])
        assert bits(stats.theta) == bits([g[3] for g in ref])
        assert stats.argmax.tolist() == [g[4] for g in ref]
        if m == 1:
            assert stats.m2 is None and stats.kappa is None
        else:
            assert bits(stats.m2) == bits([g[1] for g in ref])
            assert bits(stats.kappa) == bits([g[2] for g in ref])
        views = list(stats)
        assert len(views) == n
        for i, (g, (m1, m2, kappa, theta, j1)) in enumerate(zip(views, ref)):
            assert isinstance(g, GroupSummary)
            assert (g.m1, g.m2, g.kappa, g.argmax_index) == (m1, m2, kappa, j1)
            assert bits(g.theta) == bits(theta)
            assert bits(stats[i].theta) == bits(theta)


def test_ties_go_to_lowest_index():
    vals = sample(11, 40 * 5, 3, ties=True)
    stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=40, m=5, discarded=0))
    assert (stats.kappa == 1.0).sum() > 0  # the sample does tie
    assert stats.argmax.tolist() == [g[4] for g in reference_groups(vals, 40, 5)]


def test_pack_round_trips_and_estimators_agree():
    vals = sample(3, 30 * 4, 2, ties=False)
    stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=30, m=4, discarded=0))
    packed = GroupStats.pack(list(stats))
    for name in ("m1", "m2", "kappa", "theta"):
        assert bits(getattr(packed, name)) == bits(getattr(stats, name))
    assert (packed.argmax == stats.argmax).all()
    assert estimators.estimate_alpha(list(stats)) == estimators.estimate_alpha(stats)
    assert (estimators.estimate_spectral(list(stats)).atoms
            == estimators.estimate_spectral(stats).atoms).all()
    assert (estimators.estimate_total_mass(list(stats), 4, 1.0, 0.2)
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
        GroupSummary(bad[0], bad[1], bad[2], np.array(bad[3]), 0)
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


def test_zero_group_raises_degenerate_group_with_its_index():
    vals = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateGroup, match="group 1 "):
        summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=2, m=2, discarded=0))


def test_columns_and_views_are_read_only():
    vals = sample(5, 12, 2, ties=False)
    stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=4, m=3, discarded=0))
    for name in ("m1", "m2", "kappa", "theta", "argmax"):
        col = getattr(stats, name)
        with pytest.raises(ValueError):
            col[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stats, name, col)
    with pytest.raises(ValueError):
        stats[0].theta[0] = 1.0
    assert np.shares_memory(stats[1].theta, stats.theta)


def test_callers_columns_stay_writable():
    cols = dict(m1=np.full(3, 2.0), m2=np.ones(3), kappa=np.full(3, 0.5),
                theta=np.tile([0.6, 0.8], (3, 1)), argmax=np.zeros(3, dtype=np.intp))
    stats = GroupStats(**cols)
    for name, col in cols.items():
        assert col.flags.writeable
        assert not getattr(stats, name).flags.writeable
