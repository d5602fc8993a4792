"""Exception types shared across the package, and the finiteness and integer
checks that raise one."""

import numbers

import numpy as np


class BnpolicyError(Exception):
    """Base class for all package errors."""


class DataValidationError(BnpolicyError):
    """Raised when input data violates a structural invariant."""


class RankDeficiencyError(BnpolicyError):
    """Raised when a regression design is rank deficient.

    Carries the index of the first dependent column so callers can name
    the offending term.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class SingularSystemError(BnpolicyError):
    """Raised when an estimating-equation system is (near-)singular."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class EstimationError(BnpolicyError):
    """Raised when an estimator cannot be run on the supplied data."""


def _finite(arr, what, remedy):
    """``arr``, checked to hold finite values only; LAPACK and numpy would not check.

    Raises EstimationError "the <what> overflows to a non-finite value;
    <remedy>", where ``remedy`` names the input to rescale.
    """
    if not np.all(np.isfinite(arr)):
        raise EstimationError(f"the {what} overflows to a non-finite value; {remedy}")
    return arr


def _integer(value, name, least=1):
    """``value``, checked to be an integer of at least ``least``, 1 or 0; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise DataValidationError(f"{name} must be a {kind} integer, got {value!r}")
    return value
