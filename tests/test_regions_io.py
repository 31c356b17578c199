"""Vectorized CSV I/O and region masks against the per-line and per-atom code
they replace: read_csv against the line-by-line float() reader, Arc.mask and
Halfspace.mask against their scalar predicates, write_csv against the
per-value f-string writer, and pickle round-trips of regions and densities."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailspec import Arc, Halfspace
from tailspec.cli import read_csv, write_csv
from tailspec.errors import CsvParseError, EmptySample
from tailspec.types import ModelSpec, NamedDensity, SpectralEstimate


def reference_read_csv(path, skip_header=False):
    """The line-by-line reader read_csv replaced, returning the raw array."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and skip_header:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise CsvParseError(lineno, f"cannot parse {line!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CsvParseError(
                    lineno, f"expected {width} columns, found {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise EmptySample(f"{path}: no data rows")
    return np.asarray(rows)


def reference_write_csv(path, values):
    """The per-value f-string writer write_csv replaced."""
    a = np.atleast_2d(np.asarray(values))
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def outcome(fn, path, skip_header):
    try:
        values = fn(path, skip_header)
    except CsvParseError as e:
        return ("CsvParseError", e.line, str(e))
    except EmptySample as e:
        return ("EmptySample", str(e))
    values = getattr(values, "values", values)
    return ("ok", values.shape, values.view(np.uint64).tolist())


# ---------------------------------------------------------------- read_csv

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.floats(-1e6, 1e6).map("{:e}".format),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-nan", "+nan", "NaN", "inf", "-inf", "+inf", "Infinity",
                     "-INF", "1.", ".5", "-.5e-3", "+1", "1e999", "-1e-320", "0x10",
                     "1_0", "\u0661", "1e", "e1", "abc", "", "1 2", "nan(1)", "\ufeff1"]),
)
FIELD = st.tuples(st.sampled_from(["", " ", "\t", "  "]), NUMBERS,
                  st.sampled_from(["", " ", "\t", "\x0b"])).map("".join)
LINE = st.one_of(
    st.lists(FIELD, min_size=1, max_size=3).map(",".join),
    st.lists(FIELD, min_size=1, max_size=3).map(lambda f: ",".join(f) + ","),
    st.sampled_from(["", " ", "\t", "  \t ", "x,y", "#1,2"]),
)


@st.composite
def csv_text(draw):
    width = draw(st.integers(1, 3))
    # mostly rectangular numeric rows, so that many files parse
    plain = st.lists(st.floats(allow_nan=False).map(repr), min_size=width,
                     max_size=width).map(",".join)
    lines = draw(st.lists(st.one_of(plain, plain, plain, LINE), max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no newline at the end of the file
    return text


@given(text=csv_text(), skip_header=st.booleans())
@settings(max_examples=300, deadline=None)
def test_read_csv_matches_line_reader(tmp_path_factory, text, skip_header):
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert (outcome(read_csv, path, skip_header)
            == outcome(reference_read_csv, path, skip_header))


@pytest.mark.parametrize("text, skip_header", [
    ("1,2\n  \n3,4\n", False),         # whitespace-only line: numpy rejects it
    ("1_0,2\n3,4\n", False),           # float() reads 1_0 as 10
    ("\u0661,2\n", False),             # arabic-indic digit one
    ("1,2\r3,4\r", False),             # lone carriage returns end lines
    ("1,2\r\n\r\n3,4\r\n", False),
    ("\n1,2\n", True),                 # blank header line
    ("x;y\n1,2\n", True),              # unparseable header line
    ("1,2\n1,abc\n3,4\n", False),
    ("1,2\n1\n", False),               # ragged
    ("1,2,\n", False),                 # trailing comma
    ("\ufeff1,2\n", False),            # byte-order mark
    ("", False),
    ("x,y\n", True),
    ("\n \n", False),
])
def test_read_csv_edge_cases(tmp_path, text, skip_header):
    path = tmp_path / "in.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    got = outcome(read_csv, path, skip_header)
    assert got == outcome(reference_read_csv, path, skip_header)


def test_read_csv_missing_file_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="No such file"):
        read_csv(tmp_path / "nope.csv")


# ---------------------------------------------------------------- write_csv

@pytest.mark.parametrize("values", [
    np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]]),
    np.arange(12, dtype=np.int64).reshape(4, 3),
    np.array([1.5, 2.5, 3.5]),
    np.array(7.25),
    np.empty((0, 2)),
    np.empty((3, 0)),
    np.float32([[0.1, 1e-3]]),
    # two full 1024-row blocks of a wider row, then a partial one
    np.random.default_rng(5).standard_normal((2500, 3)) * 1e5,
])
def test_write_csv_bytes_match_per_value_writer(tmp_path, values):
    write_csv(tmp_path / "new.csv", values)
    reference_write_csv(tmp_path / "old.csv", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_bytes_match_across_chunks(tmp_path):
    # more rows than one formatted chunk, spread over many binades
    g = np.random.default_rng(3)
    values = g.standard_normal((10_000, 2)) * 10.0 ** g.integers(-300, 300, (10_000, 2))
    write_csv(tmp_path / "new.csv", values)
    reference_write_csv(tmp_path / "old.csv", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (read_csv(tmp_path / "new.csv").values.view(np.uint64)
            == values.view(np.uint64)).all()


# ---------------------------------------------------------------- regions

def unit_rows(g, n, d):
    v = g.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


def at_angles(angles):
    return np.c_[np.cos(angles), np.sin(angles)]


def near(x):
    """x and its neighbours 1 and 2 ulps away on each side."""
    return [np.nextafter(np.nextafter(x, -np.inf), -np.inf), np.nextafter(x, -np.inf),
            x, np.nextafter(x, np.inf), np.nextafter(np.nextafter(x, np.inf), np.inf)]


def assert_mask_matches_scalar(region, atoms):
    want = np.array([region(v) for v in atoms], dtype=bool)
    got = region.mask(atoms)
    assert got.dtype == bool and got.shape == (len(atoms),)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, f"{region}: rows {bad[:5].tolist()} of {atoms[bad[:5]].tolist()}"


ARCS = [(0.0, math.pi / 2), (3 * math.pi / 2, math.pi / 2), (5.0, 1.0), (1.0, 5.0),
        (math.pi, 0.0), (0.0, 0.0), (-1.0, 7.0), (2 * math.pi - 1e-15, 1e-15)]


@pytest.mark.parametrize("start, end", ARCS)
def test_arc_mask_matches_scalar(start, end):
    arc = Arc(start, end)
    g = np.random.default_rng(11)
    edges = [arc.start, arc.end, 0.0, math.pi, 2 * math.pi, -math.pi]
    boundary = at_angles(np.array([a for e in edges for a in near(e)]))
    exact = np.array([[1.0, 0.0], [1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, 1.0],
                      [0.0, -1.0], [1.0, -1e-300], [1.0, 1e-300], [-1.0, -1e-300]])
    atoms = np.vstack([unit_rows(g, 5000, 2), boundary, exact])
    assert_mask_matches_scalar(arc, atoms)


def test_arc_ends_on_atom_angles():
    # ends exactly on atom angles as the scalar rule computes them, chosen
    # where numpy's arctan2 rounds those angles differently, if it does here
    g = np.random.default_rng(12)
    atoms = unit_rows(g, 2000, 2)
    scalar = np.array([math.atan2(v[1], v[0]) % (2 * math.pi) for v in atoms])
    vector = np.mod(np.arctan2(atoms[:, 1], atoms[:, 0]), 2 * math.pi)
    picks = list(np.flatnonzero(scalar != vector)[:6]) + [0, 1]
    for i in picks:
        for j in picks:
            assert_mask_matches_scalar(Arc(scalar[i], scalar[j]), atoms)


@given(start=st.floats(-10, 10), end=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_arc_mask_matches_scalar_anywhere(start, end, seed):
    arc = Arc(start, end)
    g = np.random.default_rng(seed)
    atoms = np.vstack([unit_rows(g, 200, 2),
                       at_angles(np.array(near(arc.start) + near(arc.end)))])
    assert_mask_matches_scalar(arc, atoms)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_halfspace_mask_matches_scalar(d):
    g = np.random.default_rng(20 + d)
    atoms = unit_rows(g, 4000, d)
    for u in (unit_rows(g, 1, d)[0], g.standard_normal(d) * 3.0, np.eye(d)[0]):
        # atoms exactly on the boundary as the scalar rule computes it, and
        # thresholds one and two ulps to either side
        for c in near(float(np.dot(atoms[0], u))) + [0.0, 0.5, -2.0]:
            assert_mask_matches_scalar(Halfspace(tuple(u), c), atoms)


def test_region_matches_on_an_estimate():
    from tailspec import estimators

    g = np.random.default_rng(4)
    est = SpectralEstimate(np.vstack([unit_rows(g, 3000, 2), [[1.0, 0.0], [0.0, 1.0]]]))
    for region in (Arc(0.0, math.pi / 2), Halfspace((1.0, 0.0), 0.0)):
        hits = sum(1 for atom in est.atoms if region(atom))
        assert estimators.spectral_mass(est, region) == hits / est.n


# ---------------------------------------------------------------- pickling

@pytest.mark.parametrize("obj", [
    Arc(5.0, 1.0),
    Halfspace((0.6, 0.8), 0.25),
    NamedDensity("abscos2t", 2.0),
    NamedDensity("uniform", 1.0),
])
def test_regions_and_densities_pickle(obj):
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj
    if isinstance(obj, NamedDensity):
        theta = np.linspace(0.0, 2 * math.pi, 17)
        assert (back(theta) == obj(theta)).all()
    else:
        atoms = unit_rows(np.random.default_rng(8), 100, 2)
        assert (back.mask(atoms) == obj.mask(atoms)).all()


def test_density_model_pickles():
    model = ModelSpec(alpha=1.5, total_mass=2.0, density=NamedDensity("uniform", 2.0))
    back = pickle.loads(pickle.dumps(model))
    assert back.normalized_mass(Arc(0.0, math.pi)) == model.normalized_mass(Arc(0.0, math.pi))


def test_unknown_density_name_rejected():
    from tailspec.errors import InvalidModel

    with pytest.raises(InvalidModel, match="abscos2t"):
        NamedDensity("triangle", 1.0)
