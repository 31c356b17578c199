"""Partition a sample into n = [N^r] groups of m = [N/n] and summarize maxima.

Groups are contiguous blocks in input order; the trailing N - n*m rows are
dropped and accounted for in the scheme.  Ties for the largest norm go to the
lowest row index, and the second-largest norm is taken after removing exactly
one maximizing vector.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateGroup, EstimationWarning, GroupTooSmall, InvalidR
from .types import _BLOCK_ROWS, DataMatrix, GroupScheme, GroupStats

# Groups of up to this many rows find their maximiser column by column: on
# 2x10^5 norms in groups of 2, 3 and 4 rows that took 0.4, 0.9 and 1.05 ms
# against 2.0, 1.6-2.0 and 1.5-1.7 ms for argmax and its gather; at 5-7 rows
# the two were even, and from 8 the tournament was mostly slower.
_TOURNAMENT_GROUP = 4


def plan_grouping(N: int, r: float, *, min_group: int = 2) -> GroupScheme:
    """Build the (r, n, m, discarded) plan for a sample of N rows.

    n = [N^r], m = [N/n].  Raises GroupTooSmall when m < min_group; callers
    that only need the group maximum (not the second largest) may pass
    ``min_group=1``.
    """
    if not (0.0 < r < 1.0):
        raise InvalidR(f"r={r} outside (0,1)")
    if N < 4:
        raise GroupTooSmall(f"need at least 4 rows, got {N}")
    if min_group not in (1, 2):
        raise ValueError("min_group must be 1 or 2")
    # N**r can land one ulp below an exact integer; nudge before flooring
    n = int(math.floor(N ** r + 1e-9))
    m = N // n
    if m < min_group:
        raise GroupTooSmall(
            f"m={m} < {min_group} for N={N}, r={r}; decrease r"
        )
    if n == 1:
        warnings.warn(
            f"degenerate grouping: n=1 group for N={N}, r={r}",
            EstimationWarning,
            stacklevel=2,
        )
    return GroupScheme(r=r, n=n, m=m, discarded=N - n * m)


def summarize_groups(data: DataMatrix, scheme: GroupScheme) -> GroupStats:
    """Per-group (M1, M2, kappa, theta) statistics, in group-index order.

    Group i holds rows i*m .. (i+1)*m - 1.  theta is the maximizing vector
    divided by the stored M1 (never re-normalized).  The groups' norms are a
    view of the sample's cached row norms; M2 and kappa are computed from
    them when first read.  Raises DegenerateGroup if any group consists
    entirely of zero vectors.
    """
    if data.rows != scheme.total_rows:
        raise ValueError(
            f"scheme is for {scheme.total_rows} rows, data has {data.rows}"
        )
    n, m = scheme.n, scheme.m
    norms = data.norms[: n * m].reshape(n, m)
    if m == 1:  # each row is its group's maximiser
        j1, m1 = np.zeros(n, np.intp), norms[:, 0]
        theta = data.values[:n].copy()
    else:
        j1, m1 = _group_maxima(norms)
        rows = np.arange(n)
        rows *= m
        rows += j1  # each maximizer's row in the sample
        theta = data.values.take(rows, axis=0)  # 6x faster than values[rows]
    if (m1 == 0.0).any():
        bad = int(np.nonzero(m1 == 0.0)[0][0])
        raise DegenerateGroup(f"group {bad} has zero maximum norm")
    if data.dim > 2:
        theta /= m1[:, None]
    else:  # numpy broadcasts m1 over a short row one row at a time
        for col in theta.T:
            col /= m1
    return GroupStats(m1=m1, theta=theta, argmax=j1, norms=norms)


def _group_maxima(norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``norms.argmax(axis=1)`` and the norms it picks, bit for bit: the
    lowest index on ties, the first NaN where a row has one.

    numpy reduces a short axis one row at a time, so groups of up to
    _TOURNAMENT_GROUP rows run a tournament over columns instead, in blocks
    of _BLOCK_ROWS groups.
    """
    n, m = norms.shape
    if m > _TOURNAMENT_GROUP:
        j1 = norms.argmax(axis=1)
        return j1, norms[np.arange(n), j1]
    j1, m1 = np.empty(n, np.intp), np.empty(n)
    for lo in range(0, n, _BLOCK_ROWS):
        block, j, best = (a[lo:lo + _BLOCK_ROWS] for a in (norms, j1, m1))
        # a strict > keeps the lowest index on a tie
        np.greater(block[:, 1], block[:, 0], out=j, casting="unsafe")
        np.maximum(block[:, 0], block[:, 1], out=best)
        for k in range(2, m):
            col = block[:, k]
            j[col > best] = k
            np.maximum(best, col, out=best)
        if np.isnan(best).any():  # maximum carries any NaN of a row into best
            block.argmax(axis=1, out=j)
    return j1, m1
