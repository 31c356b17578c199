"""Shared domain types: samples, grouping plans, per-group maxima and models.

All containers are frozen dataclasses; ndarray fields are read-only views made
at construction (the caller's own array stays writable and is not copied), and
columns computed on first read are read-only too, so instances can be shared
freely between threads or processes.  Regions and named densities are plain
data too, so they pickle into worker processes.

Kernels that read every row (row norms, the unit-norm checks, second maxima
and region masks) run over blocks of _BLOCK_ROWS rows and write each block's
result into its slice of the output: their scratch is a fixed number of
rows, not a copy of the sample, and every row gets the same bits as the
one-shot formula.
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
)

UNIT_NORM_TOL = 1e-12

# Rows per block of the blocked kernels.  8192 rows of a bivariate sample are
# 128 kB of float64, so a block and its temporaries stay in a core's L2 cache,
# and 10^5 rows take 13 blocks: the Python loop costs microseconds per call
# while the scratch no longer grows with N.
_BLOCK_ROWS = 8192

AngularDensity = Callable[[np.ndarray], np.ndarray]
Region = Callable[[np.ndarray], bool]


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype).view()
    a.setflags(write=False)
    return a


def _by_blocks(kernel, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``kernel(a[lo:hi], out[lo:hi])`` over consecutive blocks of
    _BLOCK_ROWS rows; returns ``out``."""
    for lo in range(0, a.shape[0], _BLOCK_ROWS):
        kernel(a[lo:lo + _BLOCK_ROWS], out[lo:lo + _BLOCK_ROWS])
    return out


def _norms_kernel(b: np.ndarray, out: np.ndarray) -> None:
    np.sqrt((b * b).sum(axis=1, out=out), out=out)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D float64 array,
    ``sqrt((v*v).sum(axis=1))`` bit for bit, computed by blocks."""
    return _by_blocks(_norms_kernel, v, np.empty(v.shape[0]))


def _unit_norm_error(a: np.ndarray) -> float:
    """Largest |norm - 1| over the rows of ``a`` whose norm is not NaN."""
    err = _row_norms(a)
    err -= 1.0
    return float(np.fmax.reduce(np.abs(err, out=err)))


@dataclass(frozen=True)
class DataMatrix:
    """An N x d sample of real vectors.

    ``values`` is coerced to a read-only float64 array of shape (N, d);
    1-D input is treated as a single-column (d=1) sample.  ``norms``, the
    Euclidean norm of each row, is computed on first read and kept, so
    groupings of one sample at several r share one norm pass.
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
        return _frozen(_row_norms(self.values))


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
class GroupStats:
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
        # faster than np.partition(norms, m - 2, axis=1)[:, -2] at every m,
        # 5-10x at m >= 100; both select the same value.  Each block copies
        # the norms of whole groups, about _BLOCK_ROWS of them and at least m.
        step = max(1, _BLOCK_ROWS // m)
        m2 = np.empty(n)
        for lo in range(0, n, step):
            rest = self.norms[lo:lo + step].copy()
            rest[np.arange(len(rest)), self.argmax[lo:lo + step]] = -np.inf
            rest.max(axis=1, out=m2[lo:lo + step])
        return _frozen(m2)

    @cached_property
    def kappa(self) -> np.ndarray | None:
        """m2 / m1 of each group."""
        m2 = self.m2
        return None if m2 is None else _frozen(m2 / self.m1)


@dataclass(frozen=True)
class SpectralEstimate:
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

    @property
    def weight(self) -> float:
        return 1.0 / self.n

    def angles_2d(self) -> np.ndarray:
        """Planar angles of the atoms in [0, 2*pi), d=2 only."""
        if self.dim != 2:
            raise DimensionMismatch(f"angles need d=2, have d={self.dim}")
        a = np.arctan2(self.atoms[:, 1], self.atoms[:, 0])
        return np.mod(a, 2.0 * math.pi, out=a)


@dataclass(frozen=True)
class NormalizedStat:
    """A centered estimator value with its plug-in variance and sample count."""

    point: float
    variance_hat: float
    n: int

    def __post_init__(self):
        if self.variance_hat < 0.0:
            raise InvalidModel("variance_hat must be nonnegative")
        if self.n < 1:
            raise EmptySample("n must be positive")

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance_hat / self.n)


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

# Arc.mask recomputes with the scalar rule every atom whose vectorized angle
# lies within this distance of start, end, 0 or 2*pi.  numpy's arctan2 (SIMD
# code documented within 4 ulp) and libm's atan2 (within 1 ulp) differ by at
# most 5 ulp(pi) = 2.2e-15 on a raw angle in [-pi, pi], and moving a negative
# angle up by 2*pi rounds each once more, by at most ulp(2*pi)/2 = 4.4e-16.
# The two reduced angles therefore differ by less than 3.2e-15, i.e. 3.6
# ulp(2*pi), so an atom farther than 16 ulp(2*pi) from start and end falls on
# the same side of both either way.  Raw angles of opposite sign lie within
# that bound of 0 and reduce to next to 0 or next to 2*pi, hence the wrap.
_ARC_GUARD = 16 * math.ulp(_TWO_PI)


@dataclass(frozen=True)
class Arc:
    """Directions whose planar angle lies in [start, end) within [0, 2*pi),
    wrapping through 0 when start > end (d=2).  Both ends are reduced mod
    2*pi at construction; an angle exactly on start is inside, on end out."""

    start: float
    end: float

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start) % _TWO_PI)
        object.__setattr__(self, "end", float(self.end) % _TWO_PI)

    def __call__(self, v: np.ndarray) -> bool:
        a = math.atan2(v[1], v[0]) % _TWO_PI
        if self.start <= self.end:
            return self.start <= a < self.end
        return a >= self.start or a < self.end

    def mask(self, atoms: np.ndarray) -> np.ndarray:
        """``[self(v) for v in atoms]`` as a bool array, for (n, 2) atoms."""
        atoms = np.asarray(atoms, dtype=np.float64)
        return _by_blocks(self._mask_rows, atoms, np.empty(atoms.shape[0], bool))

    def _mask_rows(self, atoms: np.ndarray, inside: np.ndarray) -> None:
        a = np.arctan2(atoms[:, 1], atoms[:, 0])
        np.mod(a, _TWO_PI, out=a)
        if self.start <= self.end:
            np.logical_and(self.start <= a, a < self.end, out=inside)
        else:
            np.logical_or(a >= self.start, a < self.end, out=inside)
        gap = np.abs(a - self.start)
        np.minimum(gap, np.abs(a - self.end), out=gap)
        np.minimum(gap, a, out=gap)
        np.minimum(gap, _TWO_PI - a, out=gap)
        # "not gap > guard" also sends NaN angles to the scalar rule
        for i in np.flatnonzero(~(gap > _ARC_GUARD)):
            inside[i] = self(atoms[i])


@dataclass(frozen=True)
class Halfspace:
    """Directions v with <v, u> > c."""

    u: tuple[float, ...]
    c: float

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "c", float(self.c))

    def __call__(self, v: np.ndarray) -> bool:
        return float(np.dot(v, self.u)) > self.c

    def mask(self, atoms: np.ndarray) -> np.ndarray:
        """``[self(v) for v in atoms]`` as a bool array, for (n, d) atoms."""
        atoms = np.asarray(atoms, dtype=np.float64)
        return _by_blocks(self._mask_rows, atoms, np.empty(atoms.shape[0], bool))

    def _mask_rows(self, atoms: np.ndarray, inside: np.ndarray) -> None:
        u = np.asarray(self.u)
        dots = atoms @ u
        np.greater(dots, self.c, out=inside)
        # Every evaluation order of a d-term dot product, fused multiply-adds
        # or not, lies within gamma_d * sum|v_i u_i| of the exact value, with
        # gamma_d = d*2^-53 / (1 - d*2^-53), plus less than the smallest normal
        # number for products that underflow.  The matrix product and the
        # scalar np.dot thus differ by under twice that, which the guard
        # bounds with room to spare; rows farther than it from c compare the
        # same way under both, and the rest (NaN included) use the scalar rule.
        d = len(self.u)
        guard = (4.0 * d * 2.0**-53 * (np.abs(atoms) @ np.abs(u))
                 + np.finfo(np.float64).tiny)
        for i in np.flatnonzero(~(np.abs(dots - self.c) > guard)):
            inside[i] = self(atoms[i])


def region_mask(region: Region, atoms: np.ndarray) -> np.ndarray:
    """Membership of each row of ``atoms`` as a bool array.

    Uses ``region.mask`` when the region has one (Arc, Halfspace).  Any other
    predicate is called once per row: a plain ``lambda v: v[0] > v[1]`` would
    mean something else if handed the whole array.
    """
    mask = getattr(region, "mask", None)
    if mask is not None:
        return mask(atoms)
    return np.fromiter((bool(region(v)) for v in atoms), dtype=bool, count=len(atoms))


def _abscos2t(theta, total: float):
    # |cos 2 theta| / 4 integrates to 1 over [0, 2*pi)
    return total * np.abs(np.cos(2.0 * theta)) / 4.0


def _uniform(theta, total: float):
    return np.full_like(np.asarray(theta, dtype=float), total / (2.0 * math.pi))


# named angular density shapes, each integrating to ``total`` over [0, 2*pi)
_DENSITY_SHAPES = {"abscos2t": _abscos2t, "uniform": _uniform}


@dataclass(frozen=True)
class NamedDensity:
    """The registered density shape ``name`` scaled to integrate to ``total``."""

    name: str
    total: float

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in _DENSITY_SHAPES:
            raise InvalidModel(
                f"unknown density {self.name!r}; choices: {sorted(_DENSITY_SHAPES)}")

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return _DENSITY_SHAPES[self.name](theta, self.total)


# number of midpoint nodes used when integrating an angular density
_DENSITY_QUAD_CELLS = 1 << 15


@dataclass(frozen=True)
class ModelSpec:
    """Ground truth for simulation and tuning.

    Exactly one of ``atoms`` (list of (unit vector, positive weight) pairs,
    weights summing to ``total_mass``) or ``density`` (angular density on
    [0, 2*pi) integrating to ``total_mass``, d=2 only) must be given.  The
    slowly varying factor is the constant 1 throughout.  ``beta`` is the
    second-order exponent that tunes r (tuning.auto_r); None means 2*alpha.
    """

    alpha: float
    total_mass: float
    beta: float | None = None
    atoms: tuple[tuple[np.ndarray, float], ...] | None = None
    density: AngularDensity | None = None

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise InvalidModel("alpha must be positive")
        if self.total_mass <= 0.0:
            raise InvalidModel("total_mass must be positive")
        if self.beta is not None and self.beta <= self.alpha:
            raise InvalidModel("beta must exceed alpha (use +inf if exact)")
        if (self.atoms is None) == (self.density is None):
            raise InvalidModel("specify exactly one of atoms or density")
        if self.atoms is not None:
            if len(self.atoms) == 0:
                raise InvalidModel("need at least one atom")
            cooked = []
            for vec, w in self.atoms:
                v = np.atleast_1d(np.asarray(vec, dtype=np.float64))
                if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                    raise InvalidModel(f"atom {v} is not a unit vector")
                if w <= 0.0:
                    raise InvalidModel("atom weights must be positive")
                cooked.append((_frozen(v), float(w)))
            dims = {v.shape[0] for v, _ in cooked}
            if len(dims) != 1:
                raise InvalidModel("atoms have mixed dimensions")
            total = sum(w for _, w in cooked)
            if abs(total - self.total_mass) > 1e-9:
                raise InvalidModel(
                    f"atom weights sum to {total}, expected {self.total_mass}"
                )
            object.__setattr__(self, "atoms", tuple(cooked))
        else:
            total = self._density_integral()
            if abs(total - self.total_mass) > 1e-6:
                raise InvalidModel(
                    f"density integrates to {total}, expected {self.total_mass}"
                )

    def _density_integral(self) -> float:
        mids, step = _density_grid()
        vals = np.asarray(self.density(mids), dtype=np.float64)
        if (vals < 0).any():
            raise InvalidModel("density takes negative values")
        return float(vals.sum() * step)

    @property
    def dim(self) -> int:
        if self.atoms is not None:
            return self.atoms[0][0].shape[0]
        return 2

    @property
    def rho(self) -> float:
        """(sigma(+1) - sigma(-1)) / sigma(S) for d=1 atom models."""
        if self.atoms is None or self.dim != 1:
            raise DimensionMismatch("rho is defined for d=1 atom models")
        pos = sum(w for v, w in self.atoms if v[0] > 0)
        neg = sum(w for v, w in self.atoms if v[0] < 0)
        return (pos - neg) / self.total_mass

    def normalized_mass(self, region: Region) -> float:
        """sigma~(B) = sigma(B)/sigma(S) for a membership predicate B."""
        if self.atoms is not None:
            inside = region_mask(region, np.stack([v for v, _ in self.atoms]))
            hit = sum(w for (_, w), is_in in zip(self.atoms, inside) if is_in)
            return hit / self.total_mass
        mids, step = _density_grid()
        vals = np.asarray(self.density(mids), dtype=np.float64)
        inside = region_mask(region, np.c_[np.cos(mids), np.sin(mids)])
        return float((vals * inside).sum() * step / self.total_mass)

    def spectral_cdf(self, angles: Sequence[float]) -> np.ndarray:
        """Exact normalized spectral cdf at the given angles (d=2 only).

        Atom mass sitting exactly at an angle is included (closed [0, a]).
        """
        if self.dim != 2:
            raise DimensionMismatch("spectral cdf needs d=2")
        a = np.asarray(angles, dtype=np.float64)
        if self.atoms is not None:
            at = np.mod(np.arctan2([v[1] for v, _ in self.atoms],
                                   [v[0] for v, _ in self.atoms]), 2 * math.pi)
            order = np.argsort(at, kind="stable")
            w = np.array([wt for _, wt in self.atoms])[order]
            cum = np.concatenate([[0.0], np.cumsum(w)]) / self.total_mass
            return cum[np.searchsorted(at[order], a, side="right")]
        mids, step = _density_grid()
        vals = np.asarray(self.density(mids), dtype=np.float64) * step
        edges_cum = np.concatenate([[0.0], np.cumsum(vals)])
        edges = np.linspace(0.0, 2 * math.pi, len(mids) + 1)
        # normalize by the quadrature total so the cdf ends exactly at 1
        return np.interp(a, edges, edges_cum) / edges_cum[-1]


def _density_grid() -> tuple[np.ndarray, float]:
    step = 2.0 * math.pi / _DENSITY_QUAD_CELLS
    mids = (np.arange(_DENSITY_QUAD_CELLS) + 0.5) * step
    return mids, step
