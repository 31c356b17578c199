"""Vectorized CSV I/O and region masks against the per-line and per-atom code
they replace: read_csv against the line-by-line float() reader, Arc.mask and
Halfspace.mask against their rules written out, write_csv against the
per-value f-string writer, and pickle round-trips of regions and densities."""

import builtins
import contextlib
import io
import math
import os
import pickle
import signal
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailspec import Arc, Halfspace, cli, plaincsv
from tailspec.cli import read_csv, write_csv
from tailspec.errors import CsvParseError, EmptySample, InvalidModel
from tailspec.types import ModelSpec, SpectralEstimate


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


# ------------------------------------------------- read_csv: plain decimal text

@st.composite
def decimal_field(draw):
    """[sign] 1-25 digits with an optional '.' anywhere, then an optional
    e/E exponent of -30..30, signed or not, zero-padded or not."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    dot = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    mantissa = digits if dot is None else f"{digits[:dot]}.{digits[dot:]}"
    field = draw(st.sampled_from(["", "+", "-"])) + mantissa
    if draw(st.booleans()):
        size = draw(st.sampled_from(["{}", "{:02d}", "{:03d}"])).format(draw(st.integers(0, 30)))
        field += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + size
    return field


def power_of_two_neighbours():
    """For each power of two 2**k in the reader's range: the decimals m * 10**q
    with 10**15 <= m < 10**18 nearest 2**k and the midpoints to the doubles on
    either side, and one unit of m either side of those."""
    out = []
    for k in range(-50, 150):
        for target in (1 - Fraction(1, 2**54), Fraction(1), 1 + Fraction(1, 2**53)):
            for q in range(-27, 28):
                m = round(Fraction(2) ** k * target / Fraction(10) ** q)
                if 10**15 <= m < 10**18:
                    out += [f"{m + d}e{q}" for d in (-1, 0, 1)]
    return out


# decimals whose value rounded to a 64-bit significand is exactly halfway
# between two doubles while the value itself is not: found by random search
NEAR_TIES = ["283037397758720070e-23", "596677428162836668e-14", "75134440519518578e-27",
             "615108712474530985e-24", "556599883966105495e6", "766099286171719918e14",
             "338516954797566603e25", "70255016064951211e12"]

PLAIN_FIXED = [
    "9007199254740993", "9007199254740995", "4503599627370496.5", "-0", "-0.0e5", "+0",
    "-.5e-3", "5.", ".5", "1E+5", "007", "1e22", "1e23", "1e27", "1e-27", "1e28",
    "-9223372036854775808", "-9223372036854775809", "9223372036854775807",
    "99999999999999999999", "-99999999999999999999", "999999999999999999", "1e999",
    "-1e-320", "1e99999999999999999999", "1.5e-99999999999999999999",
    "0.000000000000000000000000000001e30", *NEAR_TIES,
    *("-" + f for f in NEAR_TIES), *power_of_two_neighbours(),
]


def write_plain(path, rows, newline="\n", final_newline=True):
    text = newline.join(",".join(row) for row in rows) + (newline if final_newline else "")
    path.write_bytes(text.encode("ascii"))


def float_bits(rows):
    return np.array([[float(f) for f in row] for row in rows]).view(np.uint64)


def assert_plain_reader_matches_float(path, rows):
    """The plain-text reader takes the file, also with every field that it
    cannot round itself sent to float(), and gives float()'s bits; read_csv
    gives them too."""
    with mock.patch.object(plaincsv, "_SLOW_SHARE", 1.0), open(path, "rb") as fh:
        got = plaincsv.read_plain_csv(fh, False)
    assert got is not None
    want = float_bits(rows)
    assert got.view(np.uint64).tolist() == want.tolist()
    assert read_csv(path).values.view(np.uint64).tolist() == want.tolist()


@given(fields=st.lists(decimal_field(), min_size=1, max_size=24),
       width=st.integers(1, 3), newline=st.sampled_from(["\n", "\r\n"]),
       final_newline=st.booleans())
@settings(max_examples=300, deadline=None)
def test_plain_reader_matches_float_per_field(tmp_path_factory, fields, width, newline,
                                              final_newline):
    rows = [fields[i:i + width] for i in range(0, len(fields) - width + 1, width)]
    if not rows:
        rows = [fields[:1]]
        width = 1
    path = tmp_path_factory.mktemp("plain") / "in.csv"
    write_plain(path, rows, newline, final_newline)
    assert_plain_reader_matches_float(path, rows)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_plain_reader_fixed_cases(tmp_path, newline):
    rows = [[f] for f in PLAIN_FIXED]
    write_plain(tmp_path / "in.csv", rows, newline)
    assert_plain_reader_matches_float(tmp_path / "in.csv", rows)


def test_powers_of_ten_are_exact():
    assert [int(p) for p in plaincsv._POW10] == [10 ** k for k in range(plaincsv._MAX_Q + 1)]


@pytest.mark.parametrize("text", [
    "1.5,2.25\n-3.0,4.125\n",  # one '.' in every field
    ".5,-.25\n",                # a '.' first in its field
    "1,2.5\n",                  # a field without one
    "1.2.3,4\n",                # two in one field, none in the next
    "1.2.3,45\n",               # the same with two digits in the next
    "12.,3\n",                  # a '.' just before a separator
    "12.,3.5\n",
    "-1.5e-3,+2.0E4\n",         # signs and exponents
])
def test_plain_reader_finds_each_fields_dot(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("ascii"))
    want = outcome(reference_read_csv, path, False)
    with mock.patch.object(plaincsv, "_SLOW_SHARE", 1.0), open(path, "rb") as fh:
        got = plaincsv.read_plain_csv(fh, False)
    if want[0] == "ok":
        assert got.view(np.uint64).tolist() == want[2]
    else:
        assert got is None
    assert outcome(read_csv, path, False) == want


def subtraction_halfway(rounded):
    """The tie test plaincsv._halfway replaced: rounded is half an ulp of
    its double away from it."""
    values = rounded.astype(np.float64)
    half_ulp = (values.view(np.uint64) & np.uint64(0x7FF << 52)).view(np.float64) * 2.0**-53
    return np.abs((rounded - values).astype(np.float64)) == half_ulp


@pytest.mark.skipif(not plaincsv._EXACT_LONGDOUBLE, reason="the plain reader is off")
def test_halfway_matches_subtraction():
    # both tests decide the same fields for float() once powers of two go
    # there too: below 2**k, the midpoint to 2**k is a tie only to _halfway
    g = np.random.default_rng(12)
    size = 200_000
    d = np.copysign(10.0 ** g.uniform(-27, 45, size), g.standard_normal(size))
    d[:400] = np.nextafter(np.ldexp(1.0, np.arange(-89, 111)), 0.0).repeat(2)
    d[:400:2] *= -1.0
    midpoints = d.astype(np.longdouble) + np.spacing(d).astype(np.longdouble) / 2
    m = g.integers(-10**18 + 1, 10**18, size).astype(np.longdouble)
    q = g.integers(-plaincsv._MAX_Q, plaincsv._MAX_Q + 1, size)
    power = plaincsv._POW10[np.abs(q)]
    quotients = np.where(q < 0, m / power, m * power)
    assert plaincsv._halfway(midpoints).all()
    for rounded in (midpoints, quotients):
        two_power = (rounded.astype(np.float64).view(np.uint64) & plaincsv._FRACTION_BITS) == 0
        assert np.array_equal(plaincsv._halfway(rounded) | two_power,
                              subtraction_halfway(rounded) | two_power)


@pytest.mark.parametrize("field", [
    "1.2.3", "1e5e5", "1e", "e1", "+-1", "--1", ".", "-", "+.", ".e5", "+.e1", "1-2",
    "1e+", "1e+-5", "1e5.5", "12e5.5", "12e-5.5", "1..", "5.-", "1.5e", "", "1e-.5",
])
def test_plain_looking_bad_field_fails_like_line_reader(tmp_path, field):
    path = tmp_path / "in.csv"
    write_plain(path, [["1.5", "2"], ["3", field], ["4", "5e1"]])
    with mock.patch.object(plaincsv, "_SLOW_SHARE", 1.0), open(path, "rb") as fh:
        assert plaincsv.read_plain_csv(fh, False) is None
    got = outcome(read_csv, path, False)
    assert got[0] == "CsvParseError" and got[1] == 2
    assert got == outcome(reference_read_csv, path, False)


@pytest.mark.parametrize("text, skip_header", [
    ("1,2\r3,4\n", False),        # a lone '\r' ends a line for the other readers
    ("x\ry\n1,2\n", True),
    ("1,2\n3\n", False),
    ("1,2\n3\n4,5,6\n", False),
    ("1.25,2.5\n3.5\n4.5\n5.5,6.5\n", False),
    ("1,2\n\n3,4\n", False),
    ("1, 2\n", False),
    ("1,2\n", True),
    ("", False),
    (",".join(["0.5"] * 70_000), False),  # a line longer than a block
])
def test_plain_reader_declines_other_text(tmp_path, text, skip_header):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("ascii"))
    with mock.patch.object(plaincsv, "_SLOW_SHARE", 1.0), open(path, "rb") as fh:
        assert plaincsv.read_plain_csv(fh, skip_header) is None
    assert outcome(read_csv, path, skip_header) == outcome(reference_read_csv, path,
                                                           skip_header)


def test_plain_reader_allocates_no_more_than_the_file_holds(tmp_path):
    # a wide first line over many short ones: 1001 x 1000 values cannot fit
    path = tmp_path / "in.csv"
    path.write_bytes((",".join(["1"] * 1000) + "\n" + "1\n" * 1000).encode("ascii"))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            assert plaincsv.read_plain_csv(fh, False) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert outcome(read_csv, path, False) == outcome(reference_read_csv, path, False)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("skip_header", [False, True])
def test_read_csv_takes_plain_reader(tmp_path, monkeypatch, newline, skip_header):
    # 10^4 rows in several blocks; a reader that quietly declined plain text
    # would pass every oracle above and only lose speed
    g = np.random.default_rng(11)
    values = g.standard_normal((10**4, 3)) * 10.0 ** g.integers(-8, 15, (10**4, 3))
    values[:, 1] = np.where(values[:, 1] > 0, 0.0, -0.0)  # a third of the fields
    header = "x,y,z" + newline if skip_header else ""
    text = "".join(",".join(map("%.17g".__mod__, row)) + newline for row in values.tolist())
    path = tmp_path / "in.csv"
    path.write_bytes((header + text).encode("ascii"))
    assert path.stat().st_size > 2 * plaincsv._BLOCK

    def refuse(*args, **kwargs):
        raise AssertionError("read_csv left the plain-text reader")

    with monkeypatch.context() as patched:
        patched.setattr(np, "loadtxt", refuse)
        patched.setattr(cli, "_read_csv_lines", refuse)
        got = read_csv(path, skip_header).values
    assert got.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    monkeypatch.setattr(plaincsv, "_EXACT_LONGDOUBLE", False)
    assert (read_csv(path, skip_header).values.view(np.uint64).tolist()
            == values.view(np.uint64).tolist())


@pytest.mark.parametrize("text", ["1.5,2.5\n3,4\n", "1.5, 2.5\n3, 4\n", "1_0,2\n3,4\n"])
def test_read_csv_opens_its_input_once(tmp_path, monkeypatch, text):
    # plain text, text only numpy parses, and text only float() parses: each
    # reader takes its turn on the one handle read_csv opened
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("ascii"))
    want = outcome(reference_read_csv, path, False)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(builtins, "open", counting_open)
        got = outcome(read_csv, path, False)
    assert got == want and got[0] == "ok"
    assert len(opened) == 1


# ------------------------------------------------- read_csv: forked ranges

@contextlib.contextmanager
def forking(cpus=3, block=32, fork=None):
    """read_plain_csv reading `block` bytes at a time (its own where None)
    and splitting any regular file into one range per CPU of `cpus` (the
    machine's where None), each of a byte or more; yields the list of
    os.fork calls made, and checks on leaving that no child is left."""
    calls = []
    fork = fork or os.fork

    def counting_fork():
        calls.append(len(calls))
        return fork()

    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(plaincsv, "_MIN_RANGE", 1))
        patches.enter_context(mock.patch.object(os, "fork", counting_fork))
        if cpus is not None:
            patches.enter_context(mock.patch.object(plaincsv, "_available_cpus", lambda: cpus))
        if block is not None:
            patches.enter_context(mock.patch.object(plaincsv, "_BLOCK", block))
        yield calls
    with pytest.raises(ChildProcessError):  # no child left, running or exited
        os.waitpid(-1, os.WNOHANG)


def assert_forked_parse_is_serial(path, skip_header, **kwargs):
    """The forked parse of path gives the one-process parse's bits, or both
    decline, and read_csv's outcome is the line reader's; returns the
    number of forks."""
    with forking(**kwargs) as forks, open(path, "rb") as fh:
        serial = plaincsv.read_plain_csv(io.BytesIO(path.read_bytes()), skip_header)
        assert not forks  # a BytesIO has no descriptor
        forked = plaincsv.read_plain_csv(fh, skip_header)
    assert (forked is None) == (serial is None)
    if serial is not None:
        assert forked.shape == serial.shape
        assert forked.view(np.uint64).tolist() == serial.view(np.uint64).tolist()
    with forking(**kwargs):
        got = outcome(read_csv, path, skip_header)
    assert got == outcome(reference_read_csv, path, skip_header)
    return len(forks)


@st.composite
def plain_text(draw):
    """Rows of decimal fields, '\\n' or '\\r\\n' throughout, a quarter
    of them with one line of other text among them."""
    width = draw(st.integers(1, 3))
    field = st.one_of(decimal_field(), st.floats(-1e3, 1e3).map("{:.6g}".format),
                      st.integers(-999, 999).map(str))
    lines = draw(st.lists(st.lists(field, min_size=width, max_size=width).map(",".join),
                          min_size=1, max_size=60))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(LINE))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@given(text=st.one_of(csv_text(), plain_text(), plain_text()), skip_header=st.booleans(),
       cpus=st.integers(2, 5), block=st.sampled_from([16, 32, 64]),
       slow_share=st.sampled_from([plaincsv._SLOW_SHARE, 1.0]))
@settings(max_examples=300, deadline=None)
def test_forked_parse_matches_serial(tmp_path_factory, text, skip_header, cpus, block,
                                     slow_share):
    path = tmp_path_factory.mktemp("forked") / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(plaincsv, "_SLOW_SHARE", slow_share):
        assert_forked_parse_is_serial(path, skip_header, cpus=cpus, block=block)


def test_forked_parse_takes_one_child_per_spare_cpu(tmp_path):
    # the machine's CPUs and blocks: no fork on one CPU, as under taskset -c 0
    g = np.random.default_rng(12)
    values = g.standard_normal((10**4, 3)) * 10.0 ** g.integers(-8, 15, (10**4, 3))
    path = tmp_path / "in.csv"
    path.write_bytes(plaincsv.format_rows(values))
    assert path.stat().st_size > 4 * plaincsv._BLOCK
    forks = assert_forked_parse_is_serial(path, False, cpus=None, block=None)
    cpus = plaincsv._available_cpus()
    assert (forks > 0) == (cpus > 1) and forks < cpus
    with forking(cpus=None, block=None), open(path, "rb") as fh:
        got = plaincsv.read_plain_csv(fh, False)
    assert got.view(np.uint64).tolist() == values.view(np.uint64).tolist()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("final_newline", [False, True])
def test_forked_parse_with_header_and_last_line(tmp_path, newline, final_newline):
    rows = [["x", "y"]] + [[f"{k}.3", f"-{k}e-7"] for k in range(40)]
    write_plain(tmp_path / "in.csv", rows, newline, final_newline)
    assert assert_forked_parse_is_serial(tmp_path / "in.csv", True) == 2
    with forking(), open(tmp_path / "in.csv", "rb") as fh:
        got = plaincsv.read_plain_csv(fh, True)
    assert got.view(np.uint64).tolist() == float_bits(rows[1:]).tolist()


@pytest.mark.parametrize("final_newline", [False, True])
def test_forked_parse_drops_cuts_past_the_last_newline(tmp_path, final_newline):
    # two 8-byte lines a 16-byte block; the target at 3/4 of the file falls
    # in its last block, whose last newline ends the file or is followed by
    # the last line
    write_plain(tmp_path / "in.csv", [["1.5", "2.5"]] * 6, final_newline=final_newline)
    assert assert_forked_parse_is_serial(tmp_path / "in.csv", False, cpus=4, block=16) == 2


@pytest.mark.parametrize("line", ["1.5,2x5", "1.5", "1.5,2,3", "1_0,2", "1.5, 2", "1.5\r2,3"])
def test_forked_parse_of_other_text_in_a_childs_range(tmp_path, line):
    # line 35 of 40 lies in the last of three ranges; the line reader's
    # values or error line come out
    rows = [["1.5", "2.5"]] * 40
    rows[34] = [line]
    write_plain(tmp_path / "in.csv", rows)
    assert assert_forked_parse_is_serial(tmp_path / "in.csv", False) == 2
    with forking(), open(tmp_path / "in.csv", "rb") as fh:
        assert plaincsv.read_plain_csv(fh, False) is None


@pytest.mark.parametrize("failure", ["raise", "exit", "kill"])
def test_forked_parse_redoes_a_failed_childs_range(tmp_path, failure):
    rows = [[f"{k}.3", f"{k}e3"] for k in range(40)]
    write_plain(tmp_path / "in.csv", rows)
    parent, fill, here = os.getpid(), plaincsv._fill, []

    def failing_fill(texts, out, width):
        if os.getpid() != parent:
            out[:] = -1.0  # a half-written range is overwritten
            if failure == "raise":
                raise MemoryError
            if failure == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        here.append(out.size)
        return fill(texts, out, width)

    with mock.patch.object(plaincsv, "_fill", failing_fill):
        assert assert_forked_parse_is_serial(tmp_path / "in.csv", False) == 2
        with forking(), open(tmp_path / "in.csv", "rb") as fh:
            here.clear()
            got = plaincsv.read_plain_csv(fh, False)
    assert got.view(np.uint64).tolist() == float_bits(rows).tolist()
    assert len(here) == 3 and sum(here) == 80  # every range, here


def test_forked_parse_reaps_every_child_where_its_own_range_fails(tmp_path):
    rows = [[f"{k}.3", f"{k}e3"] for k in range(40)]
    write_plain(tmp_path / "in.csv", rows)
    parent, fill = os.getpid(), plaincsv._fill

    def failing_fill(texts, out, width):
        if os.getpid() == parent:
            raise MemoryError
        return fill(texts, out, width)

    # forking() checks on leaving that both children were reaped
    with mock.patch.object(plaincsv, "_fill", failing_fill), forking() as forks, \
            open(tmp_path / "in.csv", "rb") as fh:
        with pytest.raises(MemoryError):
            plaincsv.read_plain_csv(fh, False)
    assert len(forks) == 2


def test_forked_parse_where_children_are_reaped_already(tmp_path):
    # with SIGCHLD ignored the kernel reaps each child, so waitpid raises
    # ChildProcessError; each child's range is flagged done in shared
    # memory all the same, so only the first range is parsed here
    rows = [[f"{k}.3", f"{k}e3"] for k in range(40)]
    write_plain(tmp_path / "in.csv", rows)
    serial = plaincsv.read_plain_csv(io.BytesIO((tmp_path / "in.csv").read_bytes()), False)
    parent, fill, here = os.getpid(), plaincsv._fill, []

    def spying_fill(texts, out, width):
        if os.getpid() == parent:
            here.append(out.size)
        return fill(texts, out, width)

    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with mock.patch.object(plaincsv, "_fill", spying_fill), forking() as forks, \
                open(tmp_path / "in.csv", "rb") as fh:
            got = plaincsv.read_plain_csv(fh, False)
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert len(forks) == 2
    assert got.view(np.uint64).tolist() == serial.view(np.uint64).tolist()
    assert here == [28]  # the first range's 14 rows, here only


@pytest.mark.parametrize("fails_at", [0, 1])
def test_forked_parse_without_fork(tmp_path, fails_at):
    rows = [[f"{k}.3", f"-{k}e-5"] for k in range(40)]
    write_plain(tmp_path / "in.csv", rows)
    real_fork = os.fork
    calls = 0

    def fork():
        nonlocal calls
        calls += 1
        if calls > fails_at:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    # no fork after the first that fails: its range and the rest are parsed here
    assert assert_forked_parse_is_serial(tmp_path / "in.csv", False, fork=fork) == fails_at + 1


def test_forked_parse_needs_one_thread(tmp_path):
    rows = [[f"{k}.3", f"-{k}e-5"] for k in range(40)]
    write_plain(tmp_path / "in.csv", rows)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert assert_forked_parse_is_serial(tmp_path / "in.csv", False) == 0
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


# ---------------------------------------------------------------- write_csv

@pytest.mark.parametrize("values", [
    np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]]),
    np.arange(12, dtype=np.int64).reshape(4, 3),
    np.array([1.5, 2.5, 3.5]),
    np.array(7.25),
    np.empty((0, 2)),
    np.empty((3, 0)),
    np.float32([[0.1, 1e-3]]),
    # two full write_csv chunks (cli._WRITE_CHUNK rows) of a wider row, then
    # a partial one
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


def assert_writes_like_per_value_writer(directory, values):
    write_csv(directory / "new.csv", values)
    reference_write_csv(directory / "old.csv", values)
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


# doubles whose 17-digit rounding is an exact tie: 18 significant digits,
# the last a 5 ('%' rounds them half to even)
WRITER_TIES = [
    1172544271229520.2, 511068191852274.9, 39538387329252.44, 7704875632394.719,
    441130516974.2344, 13148732647.507812, 105173997.95117188, 1325489.2563476562,
    25106.453247070312, 87.60783386230469, 1.8255081176757812, 0.10306167602539062,
    0.0032548904418945312, 1.5974044799804688e-05, 1.7881393432617188e-07,
]
# doubles x whose product x * 10**(16 - e) in x87's long double has a
# fraction of exactly 1/2 while the exact product's lies above 1/2 (the
# first 14) or below it: found by random search
WRITER_NEAR_TIES = [
    8.029343829614017e-11, 5.324871544882976e-09, 74816.56625794417, 207370822279.5634,
    8.827817780418239e+24, 6.0341175660520256e+35, 1.228816491562506e+36, 1.5752511151745739e-10,
    8.353729259578364e-05, 980432175.4042712, 117323715949.25826, 2.7170715504093138e+26,
    2.083577226950882e+31, 8.927192479106136e+39,
    8.334753190785534e-11, 9.13804859533679e-09, 60593325.696683004, 80221878660206.69,
    6.001611168144064e+21, 5.115728825579099e+28, 3.3108054028937827e+40,
]


def writer_boundaries():
    """10**k and both neighbours for every k a double reaches, which include
    the ends of the fixed form (1e-5, 1e-4, 1e16, 1e17) and doubles whose
    log10 rounds to an integer (the double nearest 1e-7); ties and near
    ties; subnormals, the extremes, zeros and non-finite values."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    out = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                          WRITER_TIES, WRITER_NEAR_TIES,
                          [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                           1.7976931348623157e308, 0.0, np.inf, np.nan, 9007199254740993.0]])
    return np.concatenate([out, -out])


@pytest.mark.parametrize("width", [1, 3])
def test_write_csv_boundaries(tmp_path, width):
    values = writer_boundaries()
    values = values[:values.size // width * width].reshape(-1, width)
    assert_writes_like_per_value_writer(tmp_path, values)


@pytest.mark.parametrize("values", [
    # int64 past 2**53 rounds to the nearest double, ties to even
    np.array([[2**53 + 1, 2**53 + 3, 2**63 - 1, -2**63, -(2**53) - 1, 10**17 - 1]]),
    np.random.default_rng(6).integers(-2**63, 2**63, (300, 2)),
    np.random.default_rng(7).integers(0, 2**64, (300, 2), dtype=np.uint64),
    np.random.default_rng(8).integers(0, 2**32, (200, 3), dtype=np.uint32).view(np.float32),
    np.float32([[np.float32(0.1), -np.float32(3e-39), np.float32(3.4028235e38)]]),
    np.array([[True, False]]),
])
def test_write_csv_converts_other_dtypes_like_per_value_writer(tmp_path, values):
    assert_writes_like_per_value_writer(tmp_path, values)


@pytest.mark.parametrize("shift", [-0.5, 0.5, -1e-12, 1e-12])
def test_write_csv_is_exact_whatever_exponent_log10_guesses(tmp_path, shift):
    # numpy's log10 kernels differ between CPUs; a guess one too high or too
    # low leaves the scaled value outside [10**16, 10**17) and goes to '%'
    log10 = np.log10
    values = np.concatenate([writer_boundaries(),
                             np.random.default_rng(10).standard_normal(2000) * 1e3])
    with mock.patch.object(np, "log10", lambda a: log10(a) + shift):
        assert_writes_like_per_value_writer(tmp_path, values.reshape(-1, 2))


@st.composite
def float64_bits(draw, finite=False):
    """A float64 matrix of 1-4 columns, its row count small or across write
    chunks, from random bit patterns (half of them with an exponent that
    format_rows formats itself, from 2**-37 to 2**146) and up to eight bit
    patterns hypothesis picks, at random places."""
    width = draw(st.integers(1, 4))
    chunk = cli._WRITE_CHUNK
    rows = draw(st.one_of(st.integers(1, 40), st.integers(chunk - 2, 2 * chunk + 40)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = g.integers(0, 2**64, rows * width, dtype=np.uint64)
    picked = draw(st.lists(st.integers(0, 2**64 - 1), max_size=8))
    bits[g.integers(0, bits.size, len(picked))] = np.array(picked, np.uint64)
    exponent = np.uint64(0x7FF << 52)
    in_range = g.random(bits.size) < 0.5
    bits[in_range] = (bits[in_range] & ~exponent) | (
        g.integers(1023 - 37, 1023 + 147, np.count_nonzero(in_range)).astype(np.uint64) << 52)
    if finite:
        non_finite = (bits & exponent) == exponent
        bits[non_finite] &= ~np.uint64(1 << 62)
    return bits.view(np.float64).reshape(rows, width)


@given(values=float64_bits())
@settings(max_examples=40, deadline=None)
def test_write_csv_bytes_match_per_value_writer_for_bit_patterns(tmp_path_factory, values):
    assert_writes_like_per_value_writer(tmp_path_factory.mktemp("write"), values)


@given(values=float64_bits(finite=True))
@settings(max_examples=40, deadline=None)
def test_read_csv_reads_back_what_write_csv_writes(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("roundtrip") / "out.csv"
    write_csv(path, values)
    assert read_csv(path).values.view(np.uint64).tolist() == values.view(np.uint64).tolist()


def test_read_csv_reads_back_writer_boundaries(tmp_path):
    # with the powers of two, whose fields the reader sends to float(); no
    # field of this text lands the reader on a tie, as 17 digits put it
    # within 0.45 ulp of its double
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([writer_boundaries(), powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    values = values[np.isfinite(values)]
    path = tmp_path / "out.csv"
    write_csv(path, values[:, None])
    assert read_csv(path).values.ravel().view(np.uint64).tolist() == values.view(np.uint64).tolist()


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


def ltr_dot(v, u):
    """v_1 u_1 + ... + v_d u_d in Python floats, left to right."""
    acc = 0.0
    for x, w in zip(v, u):
        acc = acc + x * w
    return acc


def reference_mask(region, atoms):
    """The README's membership rules written out: an arc reads the angle
    np.mod(np.arctan2(y, x), 2*pi), as perfbench/inputs.py does; a halfspace
    compares the left-to-right sum of v_i u_i with c, one row at a time."""
    if isinstance(region, Arc):
        a = np.mod(np.arctan2(atoms[:, 1], atoms[:, 0]), 2 * math.pi)
        if region.start <= region.end:
            return (region.start <= a) & (a < region.end)
        return (a >= region.start) | (a < region.end)
    return np.array([ltr_dot(v, region.u) > region.c for v in atoms.tolist()], dtype=bool)


def assert_mask_matches_scalar(region, atoms):
    want = reference_mask(region, atoms)
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
    # ends exactly on atom angles as libm's atan2 computes them, chosen
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
        # atoms exactly on the boundary as the left-to-right sum computes it,
        # and thresholds one and two ulps to either side
        for c in near(ltr_dot(atoms[0].tolist(), u.tolist())) + [0.0, 0.5, -2.0]:
            assert_mask_matches_scalar(Halfspace(tuple(u), c), atoms)


def test_region_matches_on_an_estimate():
    from tailspec import estimators

    g = np.random.default_rng(4)
    est = SpectralEstimate(np.vstack([unit_rows(g, 3000, 2), [[1.0, 0.0], [0.0, 1.0]]]))
    for region in (Arc(0.0, math.pi / 2), Halfspace((1.0, 0.0), 0.0)):
        hits = int(reference_mask(region, est.atoms).sum())
        assert estimators.spectral_mass(est, region) == hits / est.n


# ---------------------------------------------------------------- pickling

@pytest.mark.parametrize("obj", [
    Arc(5.0, 1.0),
    Halfspace((0.6, 0.8), 0.25),
    ModelSpec(alpha=1.5, total_mass=2.0, density="abscos2t"),
    ModelSpec(alpha=1.5, total_mass=1.0, density="uniform"),
])
def test_regions_and_densities_pickle(obj):
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj
    if isinstance(obj, ModelSpec):
        theta = np.linspace(0.0, 2 * math.pi, 17)
        assert (back.density_at(theta) == obj.density_at(theta)).all()
    else:
        atoms = unit_rows(np.random.default_rng(8), 100, 2)
        assert (back.mask(atoms) == obj.mask(atoms)).all()


def test_density_model_pickles():
    model = ModelSpec(alpha=1.5, total_mass=2.0, density="uniform")
    back = pickle.loads(pickle.dumps(model))
    assert back.normalized_mass(Arc(0.0, math.pi)) == model.normalized_mass(Arc(0.0, math.pi))


def test_unknown_density_name_rejected():
    with pytest.raises(InvalidModel, match="abscos2t"):
        ModelSpec(alpha=1.0, total_mass=1.0, density="triangle")
