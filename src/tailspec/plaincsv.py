"""Exact vectorized parse of plain decimal CSV text, the first reader of
cli.read_csv.

Plain text is bytes that are only digits, '+', '-', '.', 'e'/'E', ',' and
line ends ('\n', or '\r\n' throughout), with every line as wide as the
first and no field empty.  Every value is what float() gives for its field,
bit for bit; other text is left to the readers of cli.read_csv.

The parse rounds in a long double stored in 16 bytes, x87 extended on x86-64
or IEEE quad on aarch64 and s390x, and reads ties from its low significand
bits; on other machines read_plain_csv declines every file.
"""

from __future__ import annotations

import sys
from typing import BinaryIO

import numpy as np

# bytes read at a time; 256 KB blocks parsed no faster and raised the peak
# RSS of `estimate` by 0.2 MB
_BLOCK = 1 << 17
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
    output.  The second reads _BLOCK bytes at a time, cut after the last
    newline, and parses each block into the next rows of the output.
    """
    if not _EXACT_LONGDOUBLE:
        return None
    lines, size, last = 0, 0, b"\n"
    while chunk := fh.read(_BLOCK):
        lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
        size += len(chunk)
        last = chunk[-1:]
    rows = lines + (last != b"\n") - skip_header
    if rows < 1:
        return None
    fh.seek(0)
    out, width, filled, carry, header = None, 0, 0, b"", skip_header
    while True:
        chunk = fh.read(_BLOCK)
        text = carry + chunk
        if not text:
            break
        if len(chunk) == _BLOCK:  # not the end of the file
            cut = text.rfind(b"\n") + 1
            if not cut:  # a line longer than a block
                return None
            text, carry = text[:cut], text[cut:]
        else:
            carry = b""
            if not text.endswith(b"\n"):
                text += b"\n"
        if b"\r" in text:
            # the other readers end a line at a lone '\r' too
            if text.count(b"\r") != text.count(b"\r\n"):
                return None
            text = text.replace(b"\r\n", b"\n")
        if header:
            text, header = text[text.index(b"\n") + 1:], False
            if not text:
                continue
        if out is None:
            width = text.count(b",", 0, text.index(b"\n")) + 1
            if 2 * rows * width > size + 1:  # a field takes 2 bytes
                return None
            out = np.empty(rows * width)
        values = _block_values(text, width)
        if values is None or filled + values.size > out.size:
            return None
        out[filled:filled + values.size] = values
        filled += values.size
    if filled != rows * width:
        return None
    return out.reshape(rows, width)


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
