"""Exact vectorized plain decimal CSV, both ways: the parse that is the
first reader of cli.read_csv, and the '%.17g' text that cli.write_csv writes.

Plain text is bytes that are only digits, '+', '-', '.', 'e'/'E', ',' and
line ends ('\n', or '\r\n' throughout), with every line as wide as the
first and no field empty.  Every value is what float() gives for its field,
bit for bit; other text is left to the readers of cli.read_csv.

Both directions scale by a power of ten in a long double stored in 16
bytes, x87 extended on x86-64 or IEEE quad on aarch64 and s390x, and decide
ties from what the one rounding can leave; on other machines read_plain_csv
declines every file and format_rows formats every value with '%.17g'.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import stat
import sys
import threading
from itertools import chain
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .simulation import _available_cpus

# bytes read at a time; 256 KB blocks parsed no faster and raised the peak
# RSS of `estimate` by 0.2 MB
_BLOCK = 1 << 17
# bytes each range of a forked parse needs (see read_plain_csv): fork()
# took about 0.6 ms and waiting for a child about 1.2 ms more; over two
# ranges a 1 MiB file parsed in 9.3-12.9 ms against 9.9-13.5 ms serial, a
# 2 MiB file in 14.9-21.2 ms against 19.3-28.6 ms (2-CPU x86 VM, medians of 25)
_MIN_RANGE = 1 << 20
_TOKENS = bytes.maketrans(b"eE\n", b",,,")  # an exponent is its own token
# mantissas below 10**18 fit in int64, and 10**k for k <= 27 (5**27 < 2**64),
# exactly in a 64-bit significand
_MAX_M = 10**18
_MAX_Q = 27
_POW10 = np.cumprod(np.r_[1, np.full(_MAX_Q, 10)].astype(np.longdouble))
# x87 extended (63) and IEEE quad (112) round every operation once; where
# long double is double or double-double, or x87 in 12 bytes, read_plain_csv
# declines every file
_NMANT = np.finfo(np.longdouble).nmant
_EXACT_LONGDOUBLE = _NMANT in (63, 112) and np.dtype(np.longdouble).itemsize == 16
# rounding to float64 drops the last nmant - 52 bits of the significand, all
# in the long double's low 64-bit word; they read 100...0 exactly halfway
_LOW_WORD = int(sys.byteorder == "big")
_ROUND_MASK = np.uint64((1 << (_NMANT - 52)) - 1)
_ROUND_HALF = np.uint64((1 << (_NMANT - 52)) >> 1)
# a block with a larger share of fields for float() goes to numpy, which
# parses them faster than a loop over float()
_SLOW_SHARE = 0.25
_FRACTION_BITS = np.uint64((1 << 52) - 1)


def read_plain_csv(fh: BinaryIO, skip_header: bool) -> np.ndarray | None:
    """cli.read_csv's values for plain decimal text, or None for other text.

    ``fh`` is a seekable binary file at its start, which this reader reads
    twice and leaves open.  A first pass counts the lines, to size the
    output, and cuts the file into byte ranges.  The second parses each
    range _BLOCK bytes at a time, cut after the last newline, into its rows.

    A regular file gets one range per available CPU where each has at least
    _MIN_RANGE bytes and this process runs one Python thread; a pipe's
    bytes, a smaller file, one CPU or a second thread give one range.  Each
    cut ends a block of the one-range parse, so the blocks are the same,
    and the first pass counts the lines before it, so each range knows its
    first row.  This process parses the first range, and a forked child
    each other one, into a shared output; a child flags its range in
    shared memory once it has filled it.  Every child is reaped before this
    returns, and each range left unflagged is parsed here.  Values and
    declines do not depend on the cuts.
    """
    if not _EXACT_LONGDOUBLE:
        return None
    targets = _cut_targets(fh)
    lines, size, last, cuts = 0, 0, b"\n", []  # cuts: (offset, lines before it)
    while chunk := fh.read(_BLOCK):
        lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
        size += len(chunk)
        last = chunk[-1:]
        if targets and targets[-1] <= size and len(chunk) == _BLOCK:
            while targets and targets[-1] <= size:
                targets.pop()
            # a cut ends a block of the one-range parse, after the last
            # newline of a whole chunk, and leaves the first range a row
            at = chunk.rfind(b"\n") + 1
            if at and lines > skip_header:
                cuts.append((size - len(chunk) + at, lines))
    if cuts and cuts[-1][0] == size:
        cuts.pop()
    rows = lines + (last != b"\n") - skip_header
    if rows < 1:
        return None
    offsets = [0, *(c for c, _ in cuts), size]
    ranges = list(zip(offsets, offsets[1:]))
    texts = _range_texts(fh, *ranges[0], skip_header)
    first = next(texts, None)
    if first is None:
        return None
    width = first.count(b",", 0, first.index(b"\n")) + 1
    if 2 * rows * width > size + 1:  # a field takes 2 bytes
        return None
    out = np.empty(rows * width)
    if cuts:
        # children write into shared memory.  Freeing the unused np.empty
        # raises glibc's mmap and trim thresholds to its size (to 32 MB), so
        # neither process returns the heap its blocks free, to fault it in
        # again for the next block (1900 against 1150-1300 faults a 7.9 MB read)
        out = np.frombuffer(mmap.mmap(-1, out.nbytes), np.float64)
    bounds = [0, *(width * (before - skip_header) for _, before in cuts), out.size]
    views = [out[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if not _fill_ranges(fh, chain([first], texts), views, width, ranges):
        return None
    return out.reshape(rows, width)


def _cut_targets(fh: BinaryIO) -> list[int]:
    """Where read_plain_csv aims to cut fh, the last first: the ends of
    one range per available CPU, each of at least _MIN_RANGE bytes, where
    fh is a regular file and this process can fork and runs one Python
    thread; else nowhere."""
    try:
        st = os.fstat(fh.fileno())
    except OSError:  # no descriptor, e.g. the BytesIO that holds a pipe's bytes
        return []
    if not (stat.S_ISREG(st.st_mode) and hasattr(os, "fork")
            and threading.active_count() == 1):
        return []
    parts = min(_available_cpus(), st.st_size // _MIN_RANGE)
    return [st.st_size * i // parts for i in range(parts - 1, 0, -1)]


def _read_at(fh: BinaryIO, n: int, pos: int) -> bytes:
    """n bytes of fh from pos: with os.pread, which leaves the file offset,
    shared with forked children, where it is, or by seek and read where fh
    has no descriptor, as the BytesIO that holds a pipe's bytes."""
    try:
        fd = fh.fileno()
    except OSError:  # io.UnsupportedOperation
        fh.seek(pos)
        return fh.read(n)
    return os.pread(fd, n, pos)


def _range_texts(fh: BinaryIO, start: int, stop: int, header: bool) -> Iterator[bytes | None]:
    """The blocks of bytes [start, stop) of fh, both ends of blocks of the
    one-range parse: each _BLOCK-aligned chunk after what the last left,
    cut after its last newline, '\\r\\n' made '\\n', the header line
    dropped and a newline added after the last line; None and no more
    blocks where a line is longer than a block or a '\\r' ends no line."""
    pos = -(-start // _BLOCK) * _BLOCK  # where that parse's next chunk starts
    carry = _read_at(fh, pos - start, start)
    while True:
        chunk = _read_at(fh, min(_BLOCK, stop - pos), pos)
        pos += len(chunk)
        text = carry + chunk
        if not text:
            return
        if len(chunk) == _BLOCK:  # not the end of the range
            cut = text.rfind(b"\n") + 1
            if not cut:  # a line longer than a block
                yield None
                return
            text, carry = text[:cut], text[cut:]
        else:
            carry = b""
            if not text.endswith(b"\n"):
                text += b"\n"
        if b"\r" in text:
            # the other readers end a line at a lone '\r' too
            if text.count(b"\r") != text.count(b"\r\n"):
                yield None
                return
            text = text.replace(b"\r\n", b"\n")
        if header:
            text, header = text[text.index(b"\n") + 1:], False
            if not text:
                continue
        yield text


def _fill(texts: Iterable[bytes | None], out: np.ndarray, width: int) -> bool:
    """Parse texts into out, block after block; whether they filled it
    exactly, every block plain and `width` fields wide."""
    filled = 0
    for text in texts:
        values = None if text is None else _block_values(text, width)
        if values is None or filled + values.size > out.size:
            return False
        out[filled:filled + values.size] = values
        filled += values.size
    return filled == out.size


def _fill_ranges(fh: BinaryIO, texts: Iterable[bytes | None], views: list[np.ndarray],
                 width: int, ranges: list[tuple[int, int]]) -> bool:
    """_fill views[0] here from texts, the blocks of ranges[0], and views[i]
    from bytes ranges[i] of fh in a forked child, which then sets done[i];
    one range forks nothing.  Once every child is reaped, each range whose
    flag is unset (a failed fork, or a child that declined, raised, exited
    or was killed) is parsed here."""
    done = mmap.mmap(-1, len(ranges))  # zero-filled, shared with the children
    children = []
    try:
        for i, (start, stop) in enumerate(ranges[1:], 1):
            try:
                pid = os.fork()
            except OSError:  # e.g. no process left: the rest are parsed here
                break
            if pid == 0:
                # the child: no return, no output, no atexit handler
                try:
                    done[i] = _fill(_range_texts(fh, start, stop, False), views[i], width)
                finally:
                    os._exit(0)
            children.append(pid)
        filled = _fill(texts, views[0], width)
    finally:
        for pid in children:
            # where SIGCHLD is ignored the kernel has reaped it already
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return filled and all(
        done[i] or _fill(_range_texts(fh, start, stop, False), views[i], width)
        for i, (start, stop) in enumerate(ranges[1:], 1))


def _block_values(text: bytes, width: int) -> np.ndarray | None:
    """The values of whole '\\n'-ended lines of text in row order, or None if
    a byte is not plain, a field is not a decimal float() reads, a line is
    not `width` fields wide, or too many fields go to float().

    The digits of a field, less its '.', are one int64 mantissa m, and its
    value is m * 10**q, where q is its exponent less its digits after the
    '.'.  Where |m| < 10**18 and |q| <= 27 both factors are exact in long
    double, so m * 10**q (m / 10**-q for q < 0) is the exact value rounded
    once to a 64-bit or wider significand.  Rounding that to float64 gives
    float()'s double unless it lands on a power of two, whose lower neighbour
    is nearer, or exactly halfway between two doubles: then the exact value
    may lie on either side.  Those fields, and the rest, go to float().
    """
    b = np.frombuffer(text, np.uint8)
    sep = np.flatnonzero((b == 44) | (b == 10))  # ',' and '\n' end fields
    dots = np.flatnonzero(b == 46)
    exps = np.flatnonzero((b | 32) == 101)  # 'e' and 'E'
    signs = np.count_nonzero((b == 43) | (b == 45))
    digits = np.count_nonzero((b - 48) < 10)  # uint8 wraps below '0'
    n = sep.size
    # every width-th field ends its line; a shorter line leaves the file
    # fewer fields than its lines times width, which read_plain_csv rejects
    if (digits + n + dots.size + exps.size + signs != b.size
            or not (b[sep[width - 1::width]] == 10).all()):
        return None
    start = np.empty_like(sep)
    start[0] = 0
    start[1:] = sep[:-1] + 1
    # the field of each '.' and exponent; where every field holds one '.',
    # as %.17g text mostly does, the i-th '.' is field i's (one past field
    # i's end fails the dots > end[fd] check below, as another field holds two)
    if dots.size == n and (dots >= start).all():
        fd = np.arange(n)
    else:
        fd = np.searchsorted(sep, dots)
    fe = np.searchsorted(sep, exps)
    end = sep.copy()  # where each mantissa ends
    end[fe] = exps
    lead = b[start]
    neg = lead == 45
    signed = neg | (lead == 43)
    exp_signed = (b[exps + 1] == 43) | (b[exps + 1] == 45)
    mantissa_digits = end - start - signed
    mantissa_digits[fd] -= 1
    # each field is [sign] digits with at most one '.', then at most one
    # exponent: 'e', [sign], digits; at least one digit in each part
    if ((fd[1:] == fd[:-1]).any() or (fe[1:] == fe[:-1]).any()
            or (dots > end[fd]).any()
            or np.count_nonzero(signed) + np.count_nonzero(exp_signed) != signs
            or (mantissa_digits < 1).any()
            or (sep[fe] - exps - exp_signed < 2).any()):
        return None

    tokens = np.fromstring(text.translate(_TOKENS, b"."), dtype=np.int64, sep=",")
    is_exp = np.zeros(tokens.size, bool)
    is_exp[fe + np.arange(1, fe.size + 1)] = True
    m = tokens[~is_exp]  # saturated at +-(2**63 - 1) or -2**63 past int64
    q = np.zeros(n, np.int64)
    q[fd] = dots + 1 - end[fd]
    q[fe] += np.clip(tokens[is_exp], -1 << 62, 1 << 62)  # no overflow, still far out
    slow = (m >= _MAX_M) | (m <= -_MAX_M) | (np.abs(q) > _MAX_Q)
    power = _POW10[np.minimum(np.abs(q), _MAX_Q)]
    mantissa = m.astype(np.longdouble)
    rounded = mantissa / power
    up = np.flatnonzero(q > 0)
    rounded[up] = mantissa[up] * power[up]
    values = rounded.astype(np.float64)
    slow |= _halfway(rounded)
    slow |= (values.view(np.uint64) & _FRACTION_BITS) == 0  # powers of two
    zero = m == 0  # exact for any q; the sign is the field's first byte
    slow &= ~zero
    values[zero & neg] = -0.0
    slow = np.flatnonzero(slow)
    if slow.size > n * _SLOW_SHARE:
        return None
    for i in slow.tolist():
        values[i] = float(text[start[i]:sep[i]])
    return values


def _halfway(rounded: np.ndarray) -> np.ndarray:
    """Where long doubles lie halfway between two doubles of their binade;
    the midpoint below 2**k rounds to 2**k, a power of two."""
    return (rounded.view(np.uint64)[_LOW_WORD::2] & _ROUND_MASK) == _ROUND_HALF


# ---------------------------------------------------------------- writing

# format_rows builds words of little-endian bytes; on big-endian machines it
# formats every value with '%'
_WRITE_EXACT = _EXACT_LONGDOUBLE and sys.byteorder == "little"
# The tables below are built in Python or with the numpy loops format_rows
# runs anyway: each other loop maps 64 KB or more of numpy into memory.
# Leading decimal exponents e for which 10**(16 - e) is one entry of _POW10,
# and per e the factor and divisor that scale by it, one of them 1.
_EXPONENTS = range(16 - _MAX_Q, 16 + _MAX_Q + 1)
_SCALE_UP = _POW10.take([max(16 - e, 0) for e in _EXPONENTS])
_SCALE_DOWN = _POW10.take([max(e - 16, 0) for e in _EXPONENTS])
# whether 0..99 is one leading digit
_LEADING_DIGIT = np.array([False] + [True] * 9 + [False] * 90)
# '%.17g' writes 17 digits less trailing zeros after the '.': in fixed form
# where -4 <= e < 17, else as d.ddde+XX (|e| < 100 here)
_FIXED = [-4 <= e < 17 for e in _EXPONENTS]


def _words(texts) -> np.ndarray:
    """Byte strings of 8 or 24 bytes as rows of uint64 words."""
    return np.frombuffer(b"".join(texts), np.uint64).reshape(len(texts), -1)


# A value's text sits in four words, its unused bytes NUL, which format_rows
# drops at the end: the sign and any "0.000" head, right-aligned in word 0;
# 18 bytes of digits and '.'; the exponent; the separator.
_HEAD = _words([(sign + ("0." + "0" * (-e - 1) if f and e < 0 else "")).encode().rjust(8, b"\0")
                for sign in ("", "-") for e, f in zip(_EXPONENTS, _FIXED)])[:, 0]
_TAIL = _words([b"\0\0" + (b"" if f else b"e%+03d" % e).ljust(4, b"\0") + sep + b"\0"
                for sep in (b",", b"\n") for e, f in zip(_EXPONENTS, _FIXED)])[:, 0]
# the four digits of 0..9999 as bytes in one word, and their trailing zeros
_TENS, _UNITS = np.divmod(np.arange(100), 10)
_PAIRS = 48 + _TENS + (48 + _UNITS) * 256
_GROUP = (_PAIRS[:, None] + _PAIRS * 65536).ravel().view(np.uint64)
_PAIR_ZEROS = np.array([2 - len(f"{k:02d}".rstrip("0")) for k in range(100)])
_PAIR_IS_00 = np.array([1] + [0] * 99)
_GROUP_ZEROS = (_PAIR_ZEROS + _PAIR_IS_00 * _PAIR_ZEROS[:, None]).ravel()


def _block(e: int, fixed: bool, last: int) -> tuple[bytes, bytes, bytes]:
    """Three 24-byte masks of a value's digits and '.', for its leading
    exponent e and the index `last` of its last nonzero digit: the bytes
    taken from the digits, those taken from the digits one byte later, and
    the '.'.  A '.' follows the integer digits where a nonzero digit follows
    them; no digit after `last` is written but an integer digit."""
    int_digits = max(e + 1, 0) if fixed else 1
    dot = int_digits if 0 < int_digits <= last else 24
    kept = max(last, int_digits - 1) + 1 + (dot < 24)  # bytes up to the last one kept
    if dot == 24:
        return b"\xff" * kept + b"\0" * (24 - kept), bytes(24), bytes(24)
    return (b"\xff" * dot + b"\0" * (24 - dot),
            b"\0" * (dot + 1) + b"\xff" * (kept - dot - 1) + b"\0" * (24 - kept),
            b"\0" * dot + b"." + b"\0" * (23 - dot))


# per exponent and last nonzero digit (row 17 * e + last), each word of the
# three masks in one table
_KEEP, _KEEP_SHIFTED, _DOT = (
    _words([_block(e, f, last)[i] for e, f in zip(_EXPONENTS, _FIXED) for last in range(17)])
    .T.copy() for i in range(3))
_B8, _B24, _B40, _B56 = (np.uint64(b) for b in (8, 24, 40, 56))


def format_rows(rows: np.ndarray) -> bytes:
    """The CSV text of a 2-d numeric array: each value as '%.17g' writes it,
    ',' between the values of a row and '\n' after each row.

    A finite x with leading decimal exponent e (a guess from log10) is
    D * 10**(e - 16), D the 17-digit integer nearest |x| * 10**(16 - e).
    Where |16 - e| <= _MAX_Q that product is one long-double operation,
    and D its rounding unless the product falls outside [10**16, 10**17)
    (a wrong guess, or D = 10**17) or has a fraction of exactly 1/2.  Those
    values, zeros, non-finite values and the rest go to '%'.  Integer work
    stays in int64 and uint64: each other dtype would map more of numpy's
    loops into memory on the first call, 64 KB or more each.
    """
    if not (_WRITE_EXACT and rows.shape[1] and rows.dtype.kind in "biuf"
            and rows.dtype.itemsize <= 8):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return ((line * rows.shape[0]) % tuple(rows.ravel().tolist())).encode()
    with np.errstate(invalid="ignore", divide="ignore"):  # float32 nan, log10(0)
        x = np.asarray(rows, np.float64).ravel()
        mag = np.abs(x)
        e = np.log10(mag)
    np.floor(e, out=e)
    fast = (e >= _EXPONENTS.start) & (e < _EXPONENTS.stop)  # not 0, nan or inf
    e[~fast] = 0
    mag[~fast] = 1.0
    row = e.astype(np.intp)  # the exponent's row in the tables
    divide = e.max() > 16  # only values from 1e17 up are divided
    row -= _EXPONENTS.start
    del e
    y = mag.astype(np.longdouble)
    del mag
    y *= _SCALE_UP.take(row)
    if divide:
        y /= _SCALE_DOWN.take(row)
    digits = y.astype(np.int64)  # truncated
    # y < 10**18 < 2**63, so k + 1/2 is a long double and, rounding being
    # monotone, y's fraction is above or below 1/2 where the exact one is;
    # a fraction of 1/2 may be a rounded one, so '%' decides it.  Rounding
    # the fraction to a double keeps its side of 1/2.
    frac = (y - digits).astype(np.float64)
    fast &= (y >= 1e16) & (frac != 0.5)  # below 1e16 e was guessed too high
    del y
    digits += np.rint(frac).astype(np.int64)  # 0 or 1: ties go to '%'
    del frac

    # D is a digit d0, then four groups of four, g1 to g4; a d0 past 9 is
    # a guess of e too low or D = 10**17.  The digits of values for '%' are
    # left as they come: '%' overwrites their text.
    high, low = np.divmod(digits, 10**8)
    del digits
    d0, high = np.divmod(high, 10**8)
    fast &= _LEADING_DIGIT.take(d0, mode="clip")
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    del high, low
    # a group has 4 trailing zeros only when it is 0, and 4 >> 2 == 1
    z4, z3, z2, z1 = (_GROUP_ZEROS.take(g) for g in (g4, g3, g2, g1))
    zeros = z4 + (z4 >> 2) * (z3 + (z3 >> 2) * (z2 + (z2 >> 2) * z1))
    block = row * 17 + (16 - zeros)  # the exponent's and the last nonzero digit's
    del z4, z3, z2, z1, zeros
    g1, g2, g3, g4 = (_GROUP.take(g) for g in (g1, g2, g3, g4))
    # the digits as bytes 0-16 of three words, and one byte later
    a0 = d0.view(np.uint64)
    del d0
    a0 += np.uint64(48)
    a0 |= g1 << _B8
    a0 |= g2 << _B40
    a1 = g2 >> _B24
    a1 |= g3 << _B8
    a1 |= g4 << _B40
    a2 = g4 >> _B24
    del g1, g2, g3, g4
    shifted = (a0 << _B8, (a1 << _B8) | (a0 >> _B56), (a2 << _B8) | (a1 >> _B56))

    out = np.empty((x.size, 4), np.uint64)
    signed = np.where(x < 0, row + len(_EXPONENTS), row)
    out[:, 0] = _HEAD.take(signed)
    for w, (a, b) in enumerate(zip((a0, a1, a2), shifted)):
        a &= _KEEP[w].take(block)
        b &= _KEEP_SHIFTED[w].take(block)
        a |= b
        a |= _DOT[w].take(block)
        out[:, w + 1] = a
    del a0, a1, a2, a, b, shifted, block, signed
    row.reshape(rows.shape)[:, -1] += len(_EXPONENTS)  # '\n' ends a row
    out[:, 3] |= _TAIL.take(row)
    text = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow, :30] = np.array(["%.17g" % v for v in x[slow].tolist()], "S30"
                                   ).view(np.uint8).reshape(-1, 30)
    return text[text != 0].tobytes()
