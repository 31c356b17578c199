"""Exception and warning types shared across the package."""

from __future__ import annotations

import warnings
from contextlib import contextmanager


class TailspecError(Exception):
    """Base class for all errors raised by this package."""


class EmptySample(TailspecError):
    """Raised when a data matrix has no rows."""


class NonFiniteEntry(TailspecError):
    """A NaN or infinity was found in the data.

    Carries the 0-based (row, col) position of the first offending entry.
    """

    def __init__(self, row: int, col: int):
        self.row = int(row)
        self.col = int(col)
        super().__init__(f"non-finite entry at row {self.row}, column {self.col}")


class NormOverflow(TailspecError):
    """A row of finite entries has a Euclidean norm past the float64 range.

    Carries the 0-based row.
    """

    def __init__(self, row: int):
        self.row = int(row)
        super().__init__(f"row {self.row}: Euclidean norm exceeds the float64 range")


class InvalidR(TailspecError):
    """Grouping exponent r outside the open interval (0, 1)."""


class GroupTooSmall(TailspecError):
    """Group size m is below what the requested statistic needs."""


class DegenerateGroup(TailspecError):
    """A group's largest norm is zero (all-zero vectors)."""


class AllKappaOne(TailspecError):
    """Every second/first maximum ratio equals one; the tail index is undefined."""


class ZeroVariance(TailspecError):
    """A studentized statistic has zero plug-in variance."""


class DegenerateProportion(TailspecError):
    """An empirical spectral mass of exactly 0 or 1 admits no normal interval."""


class DimensionMismatch(TailspecError):
    """Operation requires a specific ambient dimension."""


class InvalidT(TailspecError):
    """Mass-estimator exponent t outside (0, alpha/2)."""


class InvalidAlpha(TailspecError):
    """Tail index must be strictly positive."""


class InvalidSecondOrder(TailspecError):
    """Second-order exponent beta incompatible with the requested tuning rule."""


class UnsupportedAlpha(TailspecError):
    """A sampler was called with an alpha outside its supported range, or
    with one so small that its sample overflows float64 to inf or NaN."""


class InvalidModel(TailspecError):
    """Ground-truth model specification is inconsistent."""


class DomainError(TailspecError):
    """Special-function argument outside the supported domain."""


class EmptyExperiment(TailspecError):
    """An experiment was requested with zero replications."""


class CsvParseError(TailspecError):
    """A CSV input line failed to parse.

    Carries the 1-based line number.
    """

    def __init__(self, line: int, message: str):
        self.line = int(line)
        super().__init__(f"line {self.line}: {message}")


class EstimationWarning(UserWarning):
    """Non-fatal degeneracy encountered while estimating (result still returned)."""


@contextmanager
def recorded_warnings():
    """Yield a list that gets, when the block ends, the text of each
    EstimationWarning raised in it; no warning raised in it is shown."""
    texts: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EstimationWarning)
        yield texts
    texts.extend(str(w.message) for w in caught if issubclass(w.category, EstimationWarning))
