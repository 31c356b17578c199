"""The blocked kernels against their one-shot formulas, at the block edges,
the row norms of data at extreme scales, and the scratch memory of the
estimate path."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailspec import estimators
from tailspec.cli import main, write_csv
from tailspec.errors import InvalidModel, NormOverflow, TailspecError
from tailspec.grouping import plan_grouping, summarize_groups
from tailspec.types import _BLOCK_ROWS as B
from tailspec.types import Arc, DataMatrix, GroupScheme, Halfspace, SpectralEstimate
from test_groupstats import reference_norm
from test_regions_io import reference_mask

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
    # squares that overflow to +inf, and NaNs, which compare by position:
    # norms in [2^-500, 2^500] keep the one-shot bits, all of them match
    # the rescaling reference
    v[::5, 0] = 1e200
    v[1::7, d - 1] = -1e200
    v[2::11, 0] = np.nan
    with np.errstate(over="ignore"):
        got, one_shot = DataMatrix(v).norms, np.sqrt((v * v).sum(axis=1))
    in_range = (2.0 ** -500 <= one_shot) & (one_shot <= 2.0 ** 500)
    np.testing.assert_array_equal(as_bits(got[in_range]), as_bits(one_shot[in_range]))
    want = np.array([reference_norm(row) for row in v.tolist()])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_array_equal(as_bits(got[~np.isnan(want)]), as_bits(want[~np.isnan(want)]))


@given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example(x=[5e-324, -2.0 ** -540, 1e-160, -0.0, 0.0, 1.0, -1e155, 2.0 ** 600,
            -1.7976931348623157e308])
@settings(max_examples=300, deadline=None)
def test_one_column_norms_match_rescaled_formula(x):
    # |x| for one column: floats() draws subnormals, values whose squares
    # underflow or pass 1e308, and the largest doubles
    v = np.array(x)[:, None]
    want = np.array([reference_norm(row) for row in v.tolist()])
    np.testing.assert_array_equal(as_bits(DataMatrix(v).norms), as_bits(want))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 5])
def test_group_maxima_match_argmax_at_block_edges(n, m):
    """Short groups take their maxima column by column in blocks of B groups
    (m = 5 takes argmax): the lowest index on ties, at +inf too, and the
    first NaN, as argmax."""
    rng = np.random.Generator(np.random.Philox(key=np.array([n, m], np.uint64)))
    vals = rng.integers(-2, 3, size=(n * m, 2)).astype(float)
    vals[::m, 0] = 2.0  # every group has a nonzero row, and many a tied maximum
    special = rng.integers(0, 40, size=(n * m, 2))
    vals[special == 0] = np.inf
    vals[special == 1] = np.nan
    with np.errstate(invalid="ignore"):
        stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=n, m=m, discarded=0))
        rest = stats.norms.copy()
        want = rest.argmax(axis=1)
        rest[np.arange(n), want] = -np.inf
        m2 = rest.max(axis=1)
    assert stats.argmax.tolist() == want.tolist()
    for got, ref in ((stats.m1, stats.norms[np.arange(n), want]), (stats.m2, m2)):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        np.testing.assert_array_equal(as_bits(got[~np.isnan(ref)]), as_bits(ref[~np.isnan(ref)]))
    assert np.isnan(stats.m2).any() and np.isinf(stats.m2).any()


# group sizes whose groups also get NaN and +-inf rows: a block of B // m
# groups holds at least m of them up to m = isqrt(B) and fewer past it, and
# at m = isqrt(B) the last block of 3 * step + 5 groups holds fewer than m
# while the others do not; m = 1000 gives blocks of 8 groups
SPECIAL_M = [math.isqrt(B), math.isqrt(B) + 1, 1000]


@pytest.mark.parametrize("m", [2, 3, B + 3] + SPECIAL_M)
@pytest.mark.parametrize("edge", range(len(EDGES)))
def test_second_maxima_match_one_shot_formula(edge, m):
    """Blocks of m2 hold whole groups, B // m of them (at least one), so the
    group counts sit at that block's edges; small integers tie often."""
    step = max(1, B // m)
    n = [1, step - 1, step, step + 1, 3 * step + 5][edge] or 2
    rng = np.random.Generator(np.random.Philox(key=np.array([edge, m], np.uint64)))
    vals = rng.integers(-2, 3, size=(n * m, 2)).astype(float)
    vals[::m, 0] = 2.0  # every group has a nonzero row, and many a tied maximum
    if m in SPECIAL_M:
        # past group 0, about one entry in 4m of each kind, so some groups
        # hold none, some one NaN (m1 NaN) and some two (m2 NaN)
        special = rng.integers(0, 4 * m, size=(n * m - m, 2))
        vals[m:][special == 0] = np.inf
        vals[m:][special == 1] = -np.inf
        vals[m:][special == 2] = np.nan
    vals[:2] = [3.0, 0.0]  # group 0 always does
    with np.errstate(invalid="ignore"):
        stats = summarize_groups(DataMatrix(vals), GroupScheme(r=0.5, n=n, m=m, discarded=0))
    rest = stats.norms.copy()
    rest[np.arange(n), stats.argmax] = -np.inf
    if m in SPECIAL_M:
        ref = rest.max(axis=1)
        np.testing.assert_array_equal(np.isnan(stats.m2), np.isnan(ref))
        np.testing.assert_array_equal(as_bits(stats.m2[~np.isnan(ref)]),
                                      as_bits(ref[~np.isnan(ref)]))
    else:
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
            np.testing.assert_array_equal(got, reference_mask(region, atoms))


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
                    estimators.estimate_total_mass(stats, 0.75, 0.08),
                    estimators.spectral_cdf_2d(spectral, np.linspace(0.1, 6.2, 128)),
                    arc.mask(spectral.atoms),
                    half.mask(spectral.atoms)]
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept[-1].shape == (scheme.n,)
    assert peak - live < 1.5 * 2**20, f"scratch peak {(peak - live) / 2**20:.2f} MB"


@st.composite
def scaled_samples(draw):
    """A sample whose entries have magnitudes in [2^-8, 2^8], and a power of
    two k that puts every row's norm past 2^500 or below 2^-500 while every
    scaled entry stays a normal float64."""
    d = draw(st.sampled_from([1, 2, 3]))
    magnitude = st.floats(2.0 ** -8, 2.0 ** 8)
    entry = st.builds(lambda x, negative: -x if negative else x, magnitude, st.booleans())
    x = draw(arrays(np.float64, (draw(st.integers(16, 200)), d), elements=entry))
    k = draw(st.integers(510, 1010)) * draw(st.sampled_from([1, -1]))
    return x, k, draw(st.sampled_from([0.5, 0.75, 1.0]))


@given(scaled_samples())
@settings(max_examples=60, deadline=None)
def test_report_of_data_times_power_of_two(case):
    """The alpha and spectral entries of data x 2^k are those of the data,
    and the mass, at a fixed alpha, is 2^(k alpha) times the data's."""
    x, k, alpha = case
    d = x.shape[1]
    regions = [("halfspace", Halfspace((1.0,) + (0.5,) * (d - 1), 0.1))]
    if d == 2:
        regions.append(("arc", Arc(0.3, 2.5)))

    def report(values):
        try:
            return estimators.estimate_report(DataMatrix(values), 0.5, alpha, regions=regions)
        except TailspecError as e:  # e.g. AllKappaOne where every norm ties
            return type(e).__name__

    base, scaled = report(x), report(np.ldexp(x, k))
    if isinstance(base, str):
        assert scaled == base
        return
    assert scaled["alpha"] == base["alpha"]
    assert scaled["spectral"] == base["spectral"]
    assert scaled["mass"]["hat"] == pytest.approx(2.0 ** (k * alpha) * base["mass"]["hat"],
                                                  rel=1e-10)


def test_one_huge_entry_keeps_alpha_and_spectral(tmp_path, capsys):
    """A normal sample with one entry of 1e200 gives the alpha and spectral
    entries of the same sample times 2^-400, whose norms all lie in
    [2^-500, 2^500].  Its mass with the plug-in alpha_hat is past float64:
    inf, with a warning."""
    x = np.random.default_rng(1).standard_normal((400, 2))
    x[5, 0] = 1e200
    docs = []
    for values in (x, np.ldexp(x, -400)):
        write_csv(tmp_path / "in.csv", values)
        assert main(["estimate", "--input", str(tmp_path / "in.csv"), "--r", "0.5"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["alpha"] == docs[1]["alpha"]
    assert docs[0]["spectral"] == docs[1]["spectral"]
    assert docs[0]["mass"]["hat"] == "inf"
    assert docs[0]["warnings"][0].startswith("mass hat is inf: ")


def test_norm_past_float64_exits_3_naming_its_row(tmp_path, capsys):
    x = np.random.default_rng(1).standard_normal((400, 2))
    x[7] = [1.5e308, -1.5e308]
    write_csv(tmp_path / "in.csv", x)
    assert main(["estimate", "--input", str(tmp_path / "in.csv"), "--r", "0.5"]) == 3
    assert capsys.readouterr().err == (
        "error[NormOverflow]: row 7: Euclidean norm exceeds the float64 range\n")
    with pytest.raises(NormOverflow) as e:
        DataMatrix(x).norms
    assert e.value.row == 7
