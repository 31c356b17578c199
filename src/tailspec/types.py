"""Shared domain types: samples, grouping plans, per-group maxima and models.

All containers are frozen dataclasses; ndarray fields are read-only views made
at construction (the caller's own array stays writable and is not copied),
columns computed on first read are read-only too, and both stay read-only
after unpickling, so instances can be shared freely between threads or
processes.  Regions and densities are plain data too, so they pickle into
worker processes: a region (an Arc or a Halfspace) has one membership rule,
its vectorized ``mask``, and a density model holds the name of a registered
shape, which the registry below is the only code to evaluate.

Kernels that read every row (row norms, the unit-norm checks, second maxima
and region masks) run over blocks of _BLOCK_ROWS rows (for second maxima, one
kernel at every group size, whole groups of about as many norms) and write
each block's result into its slice of the output: their scratch is a fixed
number of rows, not a copy of the sample, and every row gets the same bits
as the one-shot formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    InvalidModel,
    NonFiniteEntry,
    NormOverflow,
)

UNIT_NORM_TOL = 1e-12

# Rows per block of the blocked kernels.  8192 rows of a bivariate sample are
# 128 kB of float64, so a block and its temporaries stay in a core's L2 cache,
# and 10^5 rows take 13 blocks: the Python loop costs microseconds per call
# while the scratch no longer grows with N.
_BLOCK_ROWS = 8192


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype).view()
    a.setflags(write=False)
    return a


class _ReadOnlyArrays:
    """Base of the containers that hold arrays.  numpy does not pickle the
    read-only flag, so unpickling makes every array in the state, cached
    columns included, read-only again."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


def _by_blocks(kernel, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``kernel(a[lo:hi], out[lo:hi])`` over consecutive blocks of
    _BLOCK_ROWS rows; returns ``out``."""
    for lo in range(0, a.shape[0], _BLOCK_ROWS):
        kernel(a[lo:lo + _BLOCK_ROWS], out[lo:lo + _BLOCK_ROWS])
    return out


# Row norms in this range are the one-shot formula's; the squares of a row
# outside it can overflow or fall below float64's normal range.
_NORM_LO, _NORM_HI = 2.0 ** -500, 2.0 ** 500


def _norms_kernel(b: np.ndarray, out: np.ndarray) -> None:
    if b.shape[1] == 1:
        # sqrt(x*x) rounds to |x| wherever x*x is a normal double
        np.abs(b[:, 0], out=out)
        return
    if b.shape[1] > 2:
        (b * b).sum(axis=1, out=out)
    else:
        # numpy reduces a short axis one row at a time; a sum of two squares
        # is one rounding in either order, so columns give the same bits at
        # twice the speed or more
        x, y = b[:, 0], b[:, 1]
        np.multiply(x, x, out=out)
        out += y * y
    np.sqrt(out, out=out)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D float64 array,
    ``sqrt((v*v).sum(axis=1))`` bit for bit, computed by blocks; |x| for a
    row of one entry x, which is that wherever x*x is a normal double."""
    return _by_blocks(_norms_kernel, v, np.empty(v.shape[0]))


def _sample_row_norms(v: np.ndarray) -> np.ndarray:
    """_row_norms of a sample, safe at any scale.

    A norm in [_NORM_LO, _NORM_HI] is _row_norms' bit for bit.  A row outside
    that range, a zero row included, is taken again divided by the power of
    two just above its largest |entry|, so that its squares neither overflow
    nor underflow, and the norm is scaled back: the norm of 2^k times a row
    is then 2^k times its norm wherever both stay normal.  A row whose norm
    exceeds float64 raises NormOverflow; a row with a NaN or an infinite
    entry keeps its NaN or infinite norm.
    """
    with np.errstate(over="ignore"):  # the rows whose squares overflow are redone
        out = _row_norms(v)
        if (np.fmin.reduce(out, initial=np.inf) >= _NORM_LO
                and np.fmax.reduce(out, initial=0.0) <= _NORM_HI):
            return out
        far = np.flatnonzero((out < _NORM_LO) | (out > _NORM_HI))
        for lo in range(0, far.size, _BLOCK_ROWS):
            rows = far[lo:lo + _BLOCK_ROWS]
            top = np.abs(v[rows]).max(axis=1)
            keep = (top > 0.0) & (top < np.inf)
            rows, exp = rows[keep], np.frexp(top[keep])[1]
            norms = _row_norms(np.ldexp(v[rows], -exp[:, None]))
            out[rows] = norms = np.ldexp(norms, exp)
            if np.isinf(norms).any():
                raise NormOverflow(int(rows[np.isinf(norms)][0]))
    return out


def _unit_norm_error(a: np.ndarray) -> float:
    """Largest |norm - 1| over the rows of ``a`` whose norm is not NaN."""
    err = _row_norms(a)
    err -= 1.0
    return float(np.fmax.reduce(np.abs(err, out=err)))


@dataclass(frozen=True)
class DataMatrix(_ReadOnlyArrays):
    """An N x d sample of real vectors.

    ``values`` is coerced to a read-only float64 array of shape (N, d);
    1-D input is treated as a single-column (d=1) sample.  ``norms``, the
    Euclidean norm of each row, is computed on first read and kept, so
    groupings of one sample at several r share one norm pass; rows at
    extreme scales are rescaled for it (_sample_row_norms).
    """

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.ndim != 2:
            raise InvalidModel(f"expected a 2-D sample, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise EmptySample(f"sample shape {a.shape} has an empty axis")
        object.__setattr__(self, "values", _frozen(a))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @cached_property
    def norms(self) -> np.ndarray:
        return _frozen(_sample_row_norms(self.values))


def validate_data(data: DataMatrix) -> DataMatrix:
    """Return ``data`` unchanged after checking every entry is finite.

    Raises NonFiniteEntry with the 0-based position of the first bad entry.
    """
    a = data.values
    for lo in range(0, a.shape[0], _BLOCK_ROWS):
        finite = np.isfinite(a[lo:lo + _BLOCK_ROWS])
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise NonFiniteEntry(lo + int(row), int(col))
    return data


@dataclass(frozen=True)
class GroupScheme:
    """Partition plan: n groups of m consecutive rows, trailing rows dropped.

    ``m >= 2`` is required by every statistic that uses the second-largest
    norm; schemes with m == 1 are only produced on request (theta-only paths).
    """

    r: float
    n: int
    m: int
    discarded: int

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise InvalidModel(f"r={self.r} outside (0,1)")
        if self.n < 1 or self.m < 1:
            raise InvalidModel("group counts must be positive")
        if not (0 <= self.discarded < self.n):
            raise InvalidModel(
                f"discarded={self.discarded} outside [0, n={self.n})"
            )

    @property
    def total_rows(self) -> int:
        return self.n * self.m + self.discarded


@dataclass(frozen=True, eq=False, kw_only=True)
class GroupStats(_ReadOnlyArrays):
    """Per-group maxima statistics of n groups, one read-only column each.

    ``m1`` has shape (n,), ``theta`` (n, d), ``argmax`` holds each
    maximiser's row within its group and ``norms`` the (n, m) row norms of
    the groups.  ``m2`` and ``kappa`` have shape (n,), or are None for
    singleton groups (m == 1); only the tail-index estimator reads them, so
    they are computed from ``norms`` on first read and kept.  The checks run
    once over whole columns.
    """

    m1: np.ndarray
    theta: np.ndarray
    argmax: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        m1, theta, norms = _frozen(self.m1), _frozen(self.theta), _frozen(self.norms)
        argmax = _frozen(self.argmax, np.intp)
        n = m1.shape[0] if m1.ndim == 1 else -1
        if (n < 0 or theta.ndim != 2 or theta.shape[0] != n or argmax.shape != (n,)
                or norms.ndim != 2 or norms.shape[0] != n):
            raise InvalidModel("group statistics need one row per group in every column")
        if n == 0:
            raise EmptySample("no groups")
        if (m1 <= 0.0).any():
            raise InvalidModel("m1 must be positive")
        if _unit_norm_error(theta) > UNIT_NORM_TOL:
            raise InvalidModel("theta is not unit-norm")
        for name, value in (("m1", m1), ("theta", theta), ("argmax", argmax),
                            ("norms", norms)):
            object.__setattr__(self, name, value)

    @cached_property
    def m2(self) -> np.ndarray | None:
        """Second-largest norm of each group: one maximiser removed, so a
        tied maximum gives m2 == m1."""
        n, m = self.norms.shape
        if m < 2:
            return None
        m2 = np.empty(n)
        # faster than np.partition(norms, m - 2, axis=1)[:, -2] at every m,
        # and the same value.  Each block, whole groups of about _BLOCK_ROWS
        # norms, is copied with its longer axis contiguous, so max(axis=0)
        # loops along each column of m or more groups, else along each group.
        step = max(1, _BLOCK_ROWS // m)
        for lo in range(0, n, step):
            block = self.norms[lo:lo + step]
            cols = block.T.copy(order="C" if len(block) >= m else "F")
            cols[self.argmax[lo:lo + step], np.arange(len(block))] = -np.inf
            cols.max(axis=0, out=m2[lo:lo + step])
        return _frozen(m2)

    @cached_property
    def kappa(self) -> np.ndarray | None:
        """m2 / m1 of each group."""
        m2 = self.m2
        return None if m2 is None else _frozen(m2 / self.m1)


@dataclass(frozen=True)
class SpectralEstimate(_ReadOnlyArrays):
    """Atomic probability measure (1/n on each of n unit directions)."""

    atoms: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=np.float64)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.shape[0] < 1:
            raise EmptySample("spectral estimate needs at least one atom")
        if _unit_norm_error(a) > UNIT_NORM_TOL:
            raise InvalidModel("atoms must be unit vectors")
        object.__setattr__(self, "atoms", _frozen(a))

    @classmethod
    def _of_unit_rows(cls, atoms: np.ndarray) -> SpectralEstimate:
        est = object.__new__(cls)
        object.__setattr__(est, "atoms", atoms)
        return est

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def angles_2d(self) -> np.ndarray:
        """Planar angles of the atoms in [0, 2*pi), d=2 only."""
        if self.dim != 2:
            raise DimensionMismatch(f"angles need d=2, have d={self.dim}")
        return _planar_angles(self.atoms)


@dataclass(frozen=True)
class Interval:
    """A confidence interval; endpoints may be +-inf, never clamped silently."""

    lo: float
    hi: float
    level: float

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise InvalidModel("level must be in (0,1)")
        if self.lo > self.hi:
            raise InvalidModel(f"lo={self.lo} > hi={self.hi}")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def halfwidth(self) -> float:
        return (self.hi - self.lo) / 2.0


_TWO_PI = 2.0 * math.pi


def _planar_angles(v: np.ndarray) -> np.ndarray:
    """Angle of each row of an (n, 2) array in [0, 2*pi): arctan2 reduced
    like ``np.mod(a, 2*pi)``, bit for bit, at about half its cost.  Only a
    negative angle moves; adding 0.0 turns -0.0 into +0.0, as np.mod does."""
    a = np.arctan2(v[:, 1], v[:, 0])
    np.add(a, _TWO_PI, out=a, where=a < 0.0)
    return np.add(a, 0.0, out=a)


class _BlockedMask:
    """A region whose ``mask`` runs its ``_mask_rows`` kernel block by block."""

    def mask(self, atoms: np.ndarray) -> np.ndarray:
        """Membership of each row of (n, d) atoms as a bool array."""
        atoms = np.asarray(atoms, dtype=np.float64)
        return _by_blocks(self._mask_rows, atoms, np.empty(atoms.shape[0], bool))


@dataclass(frozen=True)
class Arc(_BlockedMask):
    """Directions whose planar angle lies in [start, end) within [0, 2*pi),
    wrapping through 0 when start > end (d=2).  Both ends are reduced mod
    2*pi at construction; an angle exactly on start is inside, on end out.
    A direction's angle is numpy's arctan2 reduced as ``np.mod(a, 2*pi)``
    does, the angle of the d=2 cdf."""

    start: float
    end: float

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start) % _TWO_PI)
        object.__setattr__(self, "end", float(self.end) % _TWO_PI)

    def _mask_rows(self, atoms: np.ndarray, inside: np.ndarray) -> None:
        a = _planar_angles(atoms)
        if self.start <= self.end:
            np.logical_and(self.start <= a, a < self.end, out=inside)
        else:
            np.logical_or(a >= self.start, a < self.end, out=inside)


@dataclass(frozen=True)
class Halfspace(_BlockedMask):
    """Directions v with <v, u> > c, the sum v_1 u_1 + ... + v_d u_d taken
    left to right with one rounding per multiply and per add, so its bits
    do not depend on a BLAS summation order or fused multiply-adds."""

    u: tuple[float, ...]
    c: float

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "c", float(self.c))

    def _mask_rows(self, atoms: np.ndarray, inside: np.ndarray) -> None:
        # rows of another dimension raise ValueError, as atoms @ u would
        terms = zip(atoms.T, self.u, strict=True)
        x, w = next(terms)
        dots = x * w
        for x, w in terms:
            dots += x * w
        np.greater(dots, self.c, out=inside)


Region = Arc | Halfspace


def _abscos2t(theta, total: float):
    # |cos 2 theta| / 4 integrates to 1 over [0, 2*pi)
    return total * np.abs(np.cos(2.0 * theta)) / 4.0


def _uniform(theta, total: float):
    return np.full_like(np.asarray(theta, dtype=float), total / (2.0 * math.pi))


# named angular density shapes, each integrating to ``total`` over [0, 2*pi)
_DENSITY_SHAPES = {"abscos2t": _abscos2t, "uniform": _uniform}


def density_shape(name) -> Callable[[np.ndarray, float], np.ndarray]:
    """The registered shape ``f(theta, total)`` called ``name``, else InvalidModel."""
    if not isinstance(name, str) or name not in _DENSITY_SHAPES:
        raise InvalidModel(f"unknown density {name!r}; choices: {sorted(_DENSITY_SHAPES)}")
    return _DENSITY_SHAPES[name]


# number of midpoint nodes used when integrating an angular density
_DENSITY_QUAD_CELLS = 1 << 15


@dataclass(frozen=True)
class ModelSpec(_ReadOnlyArrays):
    """Ground truth for simulation and tuning.

    Give either ``atoms``, a (K, d) array of unit directions, with
    ``weights``, a (K,) array of positive weights summing to ``total_mass``
    (both stored as read-only float64 arrays), or ``density``, the name of a
    registered angular density shape on [0, 2*pi) (``abscos2t``, |cos 2t|/4,
    or ``uniform``), scaled to integrate to ``total_mass`` (d=2 only).  Every
    number must be finite, except ``beta``, which may be +inf.  The slowly
    varying factor is the constant 1 throughout.  ``beta`` is the
    second-order exponent that tunes r (tuning.auto_r); None means 2*alpha.
    """

    alpha: float
    total_mass: float
    beta: float | None = None
    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None
    density: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.total_mass)):
            raise InvalidModel("alpha and total_mass must be finite")
        if self.alpha <= 0.0:
            raise InvalidModel("alpha must be positive")
        if self.total_mass <= 0.0:
            raise InvalidModel("total_mass must be positive")
        if self.beta is not None and not self.beta > self.alpha:
            raise InvalidModel("beta must exceed alpha (use +inf if exact)")
        if (self.atoms is None) == (self.density is None):
            raise InvalidModel("specify exactly one of atoms or density")
        if (self.atoms is None) != (self.weights is None):
            raise InvalidModel("atoms and weights go together")
        if self.atoms is not None:
            atoms, weights = _frozen(self.atoms), _frozen(self.weights)
            if atoms.size == 0:
                raise InvalidModel("need at least one atom")
            if atoms.ndim != 2 or weights.shape != atoms.shape[:1]:
                raise InvalidModel("atoms must be a (K, d) array with K weights")
            if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
                raise InvalidModel("atoms and weights must be finite")
            if _unit_norm_error(atoms) > 1e-9:
                raise InvalidModel("atoms must be unit vectors")
            if (weights <= 0.0).any():
                raise InvalidModel("atom weights must be positive")
            total = sum(weights.tolist())
            if abs(total - self.total_mass) > 1e-9 * self.total_mass:
                raise InvalidModel(
                    f"atom weights sum to {total}, expected {self.total_mass}"
                )
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "weights", weights)
        else:
            density_shape(self.density)

    def density_at(self, theta: np.ndarray) -> np.ndarray:
        """The shape ``density`` at the angles ``theta``, scaled to total_mass."""
        return density_shape(self.density)(theta, self.total_mass)

    @property
    def dim(self) -> int:
        return 2 if self.atoms is None else self.atoms.shape[1]

    # Sums of weights below run left to right, as Python's sum does, so
    # their bits do not depend on np.sum's pairwise blocking.

    @property
    def rho(self) -> float:
        """(sigma(+1) - sigma(-1)) / sigma(S) for d=1 atom models."""
        if self.atoms is None or self.dim != 1:
            raise DimensionMismatch("rho is defined for d=1 atom models")
        pos = sum(self.weights[self.atoms[:, 0] > 0].tolist())
        neg = sum(self.weights[self.atoms[:, 0] < 0].tolist())
        return (pos - neg) / self.total_mass

    def normalized_mass(self, region: Region) -> float:
        """sigma~(B) = sigma(B)/sigma(S) for an Arc or Halfspace B."""
        if self.atoms is not None:
            inside = region.mask(self.atoms)
            return sum(self.weights[inside].tolist()) / self.total_mass
        mids, step = _density_grid()
        vals = self.density_at(mids)
        inside = region.mask(np.c_[np.cos(mids), np.sin(mids)])
        with np.errstate(over="ignore"):
            mass = (vals * inside).sum()
        if not np.isfinite(mass):
            raise InvalidModel(f"total_mass={self.total_mass} is too large: the density's "
                               f"mass in the region overflows float64")
        return float(mass * step / self.total_mass)

    def spectral_cdf(self, angles: Sequence[float]) -> np.ndarray:
        """Exact normalized spectral cdf at the given angles (d=2 only).

        Atom mass sitting exactly at an angle is included (closed [0, a]).
        """
        if self.dim != 2:
            raise DimensionMismatch("spectral cdf needs d=2")
        a = np.asarray(angles, dtype=np.float64)
        if self.atoms is not None:
            at = _planar_angles(self.atoms)
            order = np.argsort(at, kind="stable")
            cum = np.concatenate([[0.0], np.cumsum(self.weights[order])]) / self.total_mass
            return cum[np.searchsorted(at[order], a, side="right")]
        mids, step = _density_grid()
        vals = self.density_at(mids) * step
        edges_cum = np.concatenate([[0.0], np.cumsum(vals)])
        edges = np.linspace(0.0, 2 * math.pi, len(mids) + 1)
        # normalize by the quadrature total so the cdf ends exactly at 1
        return np.interp(a, edges, edges_cum) / edges_cum[-1]


def _density_grid() -> tuple[np.ndarray, float]:
    step = 2.0 * math.pi / _DENSITY_QUAD_CELLS
    mids = (np.arange(_DENSITY_QUAD_CELLS) + 0.5) * step
    return mids, step
