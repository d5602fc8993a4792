"""Core data model: interference map, unit tables, basis expansions, scaling.

Arrays are validated once at construction; every type is immutable after
that, so instances can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError

# column blocks of each basis kind after the intercept, by name suffix, and
# the transform that fills each block from all input coordinates
_BASIS_SUFFIXES = {"linear": ("",), "quadratic": ("", "^2"),
                   "cubic": ("", "^2", "^3"), "trig": ("", ":sin", ":cos")}
_BLOCKS = {"": lambda x: x, "^2": lambda x: x**2, "^3": lambda x: x**3,
           ":sin": np.sin, ":cos": np.cos}
BASIS_KINDS = tuple(_BASIS_SUFFIXES)


def _as_2d_float(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise DataValidationError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    return arr


def _as_1d_float(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DataValidationError(f"{name} must be a 1-d array, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class InterferenceMap:
    """Dense nonnegative n x J matrix of transport weights.

    Rows index outcome units, columns index intervention units.  Columns
    with no transport at all are legal here but flagged by
    ``validate_bundle`` and rejected by per-unit effect estimation.
    """

    h: np.ndarray

    def __post_init__(self):
        h = _as_2d_float(self.h, "h")
        if h.shape[0] < 1 or h.shape[1] < 1:
            raise DataValidationError("interference map must have n >= 1 and J >= 1")
        if not np.all(np.isfinite(h)):
            raise DataValidationError("interference map contains non-finite entries")
        if np.any(h < 0):
            raise DataValidationError("interference map contains negative entries")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def j(self) -> int:
        return self.h.shape[1]

    def zero_columns(self) -> np.ndarray:
        """Indices of intervention units with no transport to any outcome unit."""
        return np.flatnonzero(~np.any(self.h > 0, axis=0))


@dataclass(frozen=True)
class OutcomeTable:
    """Outcome-unit covariates, observed outcomes, optional person-years."""

    x: np.ndarray
    y: np.ndarray
    person_years: np.ndarray | None = None

    def __post_init__(self):
        x = _as_2d_float(self.x, "x")
        y = _as_1d_float(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise DataValidationError(
                f"outcome covariates have {x.shape[0]} rows but y has {y.shape[0]}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DataValidationError("outcome table contains non-finite entries")
        py = self.person_years
        if py is not None:
            py = _as_1d_float(py, "person_years")
            if py.shape[0] != y.shape[0]:
                raise DataValidationError("person_years length does not match y")
            if not np.all(np.isfinite(py)) or np.any(py <= 0):
                raise DataValidationError("person_years must be finite and > 0")
            py.flags.writeable = False
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "person_years", py)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class InterventionTable:
    """Intervention-unit covariates, treatments, optional per-unit costs.

    Treatment values are stored as given; binariness is a semantic
    requirement reported by ``validate_bundle`` and enforced by the
    estimators, so that a malformed file can still be loaded and
    diagnosed.
    """

    x: np.ndarray
    a: np.ndarray
    cost: np.ndarray | None = None

    def __post_init__(self):
        x = _as_2d_float(self.x, "x")
        a = _as_1d_float(self.a, "a")
        if x.shape[0] != a.shape[0]:
            raise DataValidationError(
                f"intervention covariates have {x.shape[0]} rows but a has {a.shape[0]}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(a)):
            raise DataValidationError("intervention table contains non-finite entries")
        cost = self.cost
        if cost is not None:
            cost = _as_1d_float(cost, "cost")
            if cost.shape[0] != a.shape[0]:
                raise DataValidationError("cost length does not match treatments")
            if not np.all(np.isfinite(cost)) or np.any(cost < 0):
                raise DataValidationError("costs must be finite and >= 0")
            cost.flags.writeable = False
        x.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "cost", cost)

    @property
    def j(self) -> int:
        return self.a.shape[0]

    @property
    def q(self) -> int:
        return self.x.shape[1]

    def nonbinary_indices(self) -> np.ndarray:
        return np.flatnonzero((self.a != 0.0) & (self.a != 1.0))


@dataclass(frozen=True)
class FeatureMap:
    """Deterministic per-coordinate basis expansion with a leading intercept.

    kind         columns (per input coordinate)
    linear       x
    quadratic    x, x^2
    cubic        x, x^2, x^3
    trig         x, sin x, cos x
    """

    kind: str

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise DataValidationError(
                f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")

    def dim(self, p: int) -> int:
        return 1 + len(_BASIS_SUFFIXES[self.kind]) * p

    def names(self, p: int, stem: str) -> list[str]:
        """Column names of ``expand`` on p coordinates named stem1..stemp."""
        return ["intercept"] + [f"{stem}{k + 1}{suffix}"
                                for suffix in _BASIS_SUFFIXES[self.kind] for k in range(p)]

    def expand(self, x: np.ndarray) -> np.ndarray:
        x = _as_2d_float(x, "x")
        return np.hstack([np.ones((x.shape[0], 1))]
                         + [_BLOCKS[suffix](x) for suffix in _BASIS_SUFFIXES[self.kind]])


@dataclass(frozen=True)
class Standardizer:
    """Column-wise centering and scaling with the n-1 divisor.

    Constant columns get sd 1 so the transform stays invertible; their
    indices are kept for reporting.
    """

    means: np.ndarray
    sds: np.ndarray
    constant_columns: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_2d_float(x, "x")
        if not np.all(np.isfinite(x)):
            raise DataValidationError("cannot standardize non-finite input")
        return (x - self.means) / self.sds


def fit_standardizer(x: np.ndarray) -> Standardizer:
    x = _as_2d_float(x, "x")
    if not np.all(np.isfinite(x)):
        raise DataValidationError("cannot standardize non-finite input")
    means = x.mean(axis=0)
    if x.shape[0] > 1:
        sds = x.std(axis=0, ddof=1)
    else:
        sds = np.zeros(x.shape[1])
    constant = np.flatnonzero(sds == 0.0)
    sds = np.where(sds == 0.0, 1.0, sds)
    return Standardizer(means=means, sds=sds, constant_columns=constant)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``validate_bundle``; empty issue list means usable."""

    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_bundle(h: InterferenceMap, out: OutcomeTable,
                    intv: InterventionTable) -> ValidationReport:
    """Cross-check a data bundle and report every problem found.

    Pure reporting: the same inputs always give the same report, and
    nothing is raised here; downstream operations reject bad bundles.
    """
    issues: list[str] = []
    if h.n != out.n:
        issues.append(f"interference map has {h.n} rows but outcome table has {out.n}")
    if h.j != intv.j:
        issues.append(
            f"interference map has {h.j} columns but intervention table has {intv.j}")
    for col in h.zero_columns():
        issues.append(f"column {col} has no transport")
    for idx in intv.nonbinary_indices():
        issues.append(f"non-binary treatment at index {idx}")
    return ValidationReport(issues=tuple(issues))
