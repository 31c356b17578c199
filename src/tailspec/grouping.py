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
from .types import DataMatrix, GroupScheme, GroupStats


def plan_grouping(N: int, r: float, *, min_group: int = 2) -> GroupScheme:
    """Build the (r, n, m, discarded) plan for a sample of N rows.

    n = [N^r], m = [N/n].  Raises GroupTooSmall when m < min_group; callers
    that only need the group maximum (not the second largest) may pass
    ``min_group=1``.
    """
    if not (0.0 < r < 1.0) or math.isnan(r):
        raise InvalidR(f"r={r} outside (0,1)")
    if N < 4:
        raise GroupTooSmall(f"need at least 4 rows, got {N}")
    if min_group not in (1, 2):
        raise ValueError("min_group must be 1 or 2")
    # N**r can land one ulp below an exact integer; nudge before flooring
    n = int(math.floor(N ** r + 1e-9))
    n = max(n, 1)
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
    rows = np.arange(n)
    j1 = norms.argmax(axis=1)  # argmax returns the lowest index on ties
    m1 = norms[rows, j1]
    if (m1 == 0.0).any():
        bad = int(np.nonzero(m1 == 0.0)[0][0])
        raise DegenerateGroup(f"group {bad} has zero maximum norm")
    rows *= m
    rows += j1  # each maximizer's row in the sample
    theta = data.values[rows]
    theta /= m1[:, None]
    return GroupStats(m1=m1, theta=theta, argmax=j1, norms=norms)
