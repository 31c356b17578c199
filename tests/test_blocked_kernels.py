"""The blocked kernels against their one-shot formulas, at the block edges,
and the scratch memory of the estimate path."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tailspec import estimators
from tailspec.errors import InvalidModel
from tailspec.grouping import plan_grouping, summarize_groups
from tailspec.types import _BLOCK_ROWS as B
from tailspec.types import Arc, DataMatrix, GroupScheme, Halfspace, SpectralEstimate

EDGES = [1, B - 1, B, B + 1, 3 * B + 5]


def sample(rows, d, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], np.uint64)))
    return rng.standard_cauchy((rows, d))


def as_bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("rows", EDGES)
def test_norms_match_one_shot_formula(rows, d):
    v = sample(rows, d)
    np.testing.assert_array_equal(as_bits(DataMatrix(v).norms),
                                  as_bits(np.sqrt((v * v).sum(axis=1))))


@pytest.mark.parametrize("m", [2, 3, B + 3])
@pytest.mark.parametrize("edge", range(len(EDGES)))
def test_second_maxima_match_one_shot_formula(edge, m):
    """Blocks of m2 hold whole groups, B // m of them (at least one), so the
    group counts sit at that block's edges; small integers tie often."""
    step = max(1, B // m)
    n = [1, step - 1, step, step + 1, 3 * step + 5][edge] or 2
    rng = np.random.Generator(np.random.Philox(key=np.array([edge, m], np.uint64)))
    vals = rng.integers(-2, 3, size=(n * m, 2)).astype(float)
    vals[::m, 0] = 2.0  # every group has a nonzero row, and many a tied maximum
    vals[:2] = [3.0, 0.0]  # group 0 always does
    stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=n, m=m, discarded=0))
    rest = stats.norms.copy()
    rest[np.arange(n), stats.argmax] = -np.inf
    np.testing.assert_array_equal(as_bits(stats.m2), as_bits(rest.max(axis=1)))
    assert (stats.m2 == stats.m1).any()


def boundary_atoms(rows, d, region):
    """Unit rows, some set exactly on the region's boundary, next to the block
    edges and elsewhere."""
    atoms = sample(rows, d, seed=rows + d)
    atoms /= np.sqrt((atoms * atoms).sum(axis=1))[:, None]
    on_edge = [i for i in (0, B - 1, B, B + 1, rows // 2, rows - 1) if i < rows]
    if isinstance(region, Arc):
        atoms[on_edge] = [math.cos(region.start), math.sin(region.start)]
    else:
        atoms[on_edge] = 0.0
        atoms[on_edge, 0] = region.c / region.u[0]
    return atoms


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("rows", EDGES)
def test_masks_match_one_shot_kernel(rows, d):
    regions = [Halfspace((0.5,) + (0.25,) * (d - 1), 0.1)]
    if d == 2:
        regions += [Arc(0.3, 2.0), Arc(5.0, 1.0)]
    for region in regions:
        atoms = boundary_atoms(rows, d, region)
        one_shot = np.empty(rows, bool)
        region._mask_rows(atoms, one_shot)
        got = region.mask(atoms)
        assert got.dtype == bool and got.shape == (rows,)
        np.testing.assert_array_equal(got, one_shot)
        if rows <= B + 1:
            np.testing.assert_array_equal(got, [region(v) for v in atoms])


def test_unit_norm_check_sees_every_block():
    atoms = boundary_atoms(3 * B + 5, 2, Arc(0.3, 2.0))
    atoms[-1] *= 1.0 + 1e-9
    with pytest.raises(InvalidModel, match="unit vectors"):
        SpectralEstimate(atoms)


def test_estimate_path_scratch_is_bounded():
    """Grouping, the estimators and both masks on a 2x10^5 x 2 sample peak
    less than 1.5 MB above what they leave allocated (the sample's row norms,
    the group columns and the results)."""
    data = DataMatrix(sample(2 * 10**5, 2, seed=3))
    arc, half = Arc(0.0, math.pi / 2), Halfspace((1.0, 0.0), 0.0)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scheme = plan_grouping(data.rows, 0.9)
            stats = summarize_groups(data, scheme)
            kept = [stats,
                    estimators.estimate_alpha(stats),
                    spectral := estimators.estimate_spectral(stats),
                    estimators.estimate_total_mass(stats, scheme.m, 0.75, 0.08),
                    estimators.spectral_cdf_2d(spectral, np.linspace(0.1, 6.2, 128)),
                    arc.mask(spectral.atoms),
                    half.mask(spectral.atoms)]
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept[-1].shape == (scheme.n,)
    assert peak - live < 1.5 * 2**20, f"scratch peak {(peak - live) / 2**20:.2f} MB"
