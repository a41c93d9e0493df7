"""Measure estimates tagged with how they were produced, and the input checks all modules share."""

import math
from dataclasses import dataclass

__all__ = [
    "MeasureEstimate",
    "NonFiniteError",
    "BudgetExceededError",
    "CLOSED_FORM",
    "QUADRATURE",
    "COVERING",
]

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"
COVERING = "covering"

_METHODS = (CLOSED_FORM, QUADRATURE, COVERING)


class NonFiniteError(ValueError):
    """A parameter or a computed value is NaN or infinite."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


def require_finite(name: str, *values: float) -> None:
    """Raise NonFiniteError unless every value is a finite number."""
    if not all(math.isfinite(v) for v in values):
        raise NonFiniteError(f"{name} must be finite")


def require_int(name: str, value, least: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int, a bool not counting as one.

    With ``least``, also unless ``value >= least``; the type is checked first.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def require_axis(axis, dim: int) -> None:
    """Raise ValueError unless ``axis`` is an int in 1..dim."""
    require_int("axis", axis)
    if not 1 <= axis <= dim:
        raise ValueError(f"axis {axis} out of range 1..{dim}")


def _sum_in_order(values) -> float:
    """Add floats left to right from 0.0, as ``sum()`` does up to CPython 3.11.

    From 3.12 on ``sum()`` of floats is compensated, so reports that add with
    it would print different totals on different interpreters.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def require_tolerance(tol: float) -> None:
    """Raise NonFiniteError unless ``tol`` is finite, ValueError unless it is positive."""
    require_finite("tolerance", tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class MeasureEstimate:
    """A non-negative measure value with an error bound and a method tag.

    Covering estimates are covering sums, which bound the measure from above
    only in the limit of fine grids, not at a fixed resolution (see
    ``covering_bound``); they must never be compared as two-sided values, and
    the ``upper_bound_only`` flag keeps the two kinds apart in reports.
    Quadrature estimates also record whether the error bound met the
    requested tolerance and how many integrand evaluations they cost.
    """

    value: float
    method: str
    error_bound: float = 0.0
    upper_bound_only: bool = False
    converged: bool = True
    evaluations: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        require_finite("measure estimates", self.value, self.error_bound)
        if self.value < 0:
            raise ValueError("measure values are non-negative")
        if self.error_bound < 0:
            raise ValueError("error bounds are non-negative")
