"""Exception types shared across the package, and the one [0, 1] weight check."""
from __future__ import annotations


class ModelError(ValueError):
    """Base class for domain validation failures."""


class DimensionMismatch(ModelError):
    """Operands live in different Hilbert space dimensions."""


class NoInterferenceSolution(ModelError):
    """The angle-extraction cosine fell outside [-1, 1].

    Carries the offending argument so callers can see how far outside the
    admissible range the data sits.
    """

    def __init__(self, message: str, argument: float | None = None):
        super().__init__(message)
        self.argument = argument


class ConstructionInapplicable(ModelError):
    """Input weights violate a constructive precondition."""


class CollapseImpossible(ModelError):
    """Projection produced (numerically) zero probability."""


class PlacementError(ModelError):
    """Level curves of the two intensity constraints do not intersect."""


class DataError(ModelError):
    """Input-file validation failure; carries 1-based line number and column."""

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


def check_unit_interval(pairs, prefix: str = ""):
    """Raise ModelError unless every (label, value) pair lies in [0, 1].

    NaN fails the check too. ``prefix`` leads the message, e.g. an exemplar
    name.
    """
    for label, value in pairs:
        if not (0.0 <= value <= 1.0):
            raise ModelError(f"{prefix}{label} must lie in [0, 1], got {value!r}")
