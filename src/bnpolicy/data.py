"""Core data model: interference map, unit tables, basis expansions, scaling.

The interference map owns the one convention by which units meet: the
exposure of the outcome units is (1/J) H v and the aggregate over them
is (1/J) H^T w, so ``InterferenceMap.exposure`` and ``aggregate`` are
the only products with H in the package.

Arrays are validated once at construction, and each table holds a
read-only view of them, not a copy: writing to an array you passed in
changes the table.  No table writes to its arrays, so instances can be
shared freely across threads.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError

# column blocks of each basis kind after the intercept, by name suffix, and
# the transform that fills each block from all input coordinates
_BASIS_SUFFIXES = {"linear": ("",), "quadratic": ("", "^2"),
                   "cubic": ("", "^2", "^3"), "trig": ("", ":sin", ":cos")}
_BLOCKS = {"": lambda x: x, "^2": lambda x: x**2, "^3": lambda x: x**3,
           ":sin": np.sin, ":cos": np.cos}
BASIS_KINDS = tuple(_BASIS_SUFFIXES)


def _as_float(x, name, ndim):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise DataValidationError(f"{name} must be a {ndim}-d array, got ndim={arr.ndim}")
    return arr


def _read_only(arr):
    """A view of ``arr`` that cannot be written through; ``arr`` stays writable."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class InterferenceMap:
    """Nonnegative n x J matrix of transport weights.

    ``h`` is a numpy array, or a ``scipy.sparse.csr_array`` when it is
    built from a scipy sparse array or matrix; ``exposure``, ``aggregate``
    and ``row_mass`` return numpy arrays either way.  Rows index outcome
    units, columns index intervention units.  Columns with no transport at
    all are legal here but flagged by ``validate_bundle`` and rejected by
    per-unit effect estimation.
    """

    h: np.ndarray

    def __post_init__(self):
        # scipy.sparse is loaded only by callers that build a sparse map
        scipy_sparse = sys.modules.get("scipy.sparse")
        if scipy_sparse is not None and scipy_sparse.issparse(self.h):
            h = scipy_sparse.csr_array(self.h, dtype=float)
            if not h.has_canonical_format:  # sort a copy, not the caller's arrays
                h = h.copy()
                h.sum_duplicates()
            h.data, h.indices, h.indptr = map(_read_only, (h.data, h.indices, h.indptr))
            values = h.data
        else:
            h = values = _read_only(_as_float(self.h, "h", 2))
        if h.shape[0] < 1 or h.shape[1] < 1:
            raise DataValidationError("interference map must have n >= 1 and J >= 1")
        if not np.all(np.isfinite(values)):
            raise DataValidationError("interference map contains non-finite entries")
        if np.any(values < 0):
            raise DataValidationError("interference map contains negative entries")
        object.__setattr__(self, "h", h)

    @property
    def sparse(self) -> bool:
        return not isinstance(self.h, np.ndarray)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def j(self) -> int:
        return self.h.shape[1]

    def _rows(self, v, size, name) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[:1] != (size,):
            raise DataValidationError(f"{name} operand must have {size} rows to match "
                                      f"the interference map, got shape {v.shape}")
        return v

    def exposure(self, v) -> np.ndarray:
        """(1/J) H v: what each outcome unit receives from the intervention units.

        ``v`` is a J-vector (treatments or propensities) or a (J, k) matrix,
        whose columns are mapped one by one.
        """
        return self.h @ self._rows(v, self.j, "exposure") / self.j

    def aggregate(self, w) -> np.ndarray:
        """(1/J) H^T w: what each intervention unit delivers, summed over outcome units.

        ``w`` is an n-vector (per-unit effects) or an (n, k) matrix.
        """
        return self.h.T @ self._rows(w, self.n, "aggregate") / self.j

    def row_mass(self) -> np.ndarray:
        """Per-unit transport mass c_i = (1/J) sum_j H_ij."""
        return (self.h @ np.ones(self.j) if self.sparse else self.h.sum(axis=1)) / self.j

    def zero_columns(self) -> np.ndarray:
        """Indices of intervention units with no transport to any outcome unit."""
        if self.sparse:
            reached = np.bincount(self.h.indices[self.h.data > 0], minlength=self.j)
            return np.flatnonzero(reached == 0)
        return np.flatnonzero(~np.any(self.h > 0, axis=0))

    def keep_columns(self, kept) -> InterferenceMap:
        """The map of the intervention units ``kept`` alone."""
        if self.sparse:
            return InterferenceMap(self.h[:, kept])
        # a column index comes out column-major; the copy is row-major, as
        # every other dense map is
        return InterferenceMap(self.h[:, kept].copy())


@dataclass(frozen=True)
class OutcomeTable:
    """Outcome-unit covariates, observed outcomes, optional person-years."""

    x: np.ndarray
    y: np.ndarray
    person_years: np.ndarray | None = None

    def __post_init__(self):
        x = _read_only(_as_float(self.x, "x", 2))
        y = _read_only(_as_float(self.y, "y", 1))
        if x.shape[0] != y.shape[0]:
            raise DataValidationError(
                f"outcome covariates have {x.shape[0]} rows but y has {y.shape[0]}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DataValidationError("outcome table contains non-finite entries")
        py = self.person_years
        if py is not None:
            py = _read_only(_as_float(py, "person_years", 1))
            if py.shape[0] != y.shape[0]:
                raise DataValidationError("person_years length does not match y")
            if not np.all(np.isfinite(py)) or np.any(py <= 0):
                raise DataValidationError("person_years must be finite and > 0")
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
        x = _read_only(_as_float(self.x, "x", 2))
        a = _read_only(_as_float(self.a, "a", 1))
        if x.shape[0] != a.shape[0]:
            raise DataValidationError(
                f"intervention covariates have {x.shape[0]} rows but a has {a.shape[0]}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(a)):
            raise DataValidationError("intervention table contains non-finite entries")
        cost = self.cost
        if cost is not None:
            cost = _read_only(_as_float(cost, "cost", 1))
            if cost.shape[0] != a.shape[0]:
                raise DataValidationError("cost length does not match treatments")
            if not np.all(np.isfinite(cost)) or np.any(cost < 0):
                raise DataValidationError("costs must be finite and >= 0")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "cost", cost)

    @property
    def j(self) -> int:
        return self.a.shape[0]

    @property
    def q(self) -> int:
        return self.x.shape[1]


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
        x = _as_float(x, "x", 2)
        return np.hstack([np.ones((x.shape[0], 1))]
                         + [_BLOCKS[suffix](x) for suffix in _BASIS_SUFFIXES[self.kind]])


def standardize(x: np.ndarray) -> np.ndarray:
    """Column-wise (x - mean) / sd with the n-1 divisor; a constant column gets sd 1."""
    x = _as_float(x, "x", 2)
    if not np.all(np.isfinite(x)):
        raise DataValidationError("cannot standardize non-finite input")
    sds = x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1])
    return (x - x.mean(axis=0)) / np.where(sds == 0.0, 1.0, sds)


def validate_bundle(h: InterferenceMap, out: OutcomeTable,
                    intv: InterventionTable) -> tuple[str, ...]:
    """Cross-check a data bundle: every problem found, none when it is usable.

    Pure reporting: the same inputs always give the same issues, and
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
    for idx in np.flatnonzero((intv.a != 0.0) & (intv.a != 1.0)):
        issues.append(f"non-binary treatment at index {idx}")
    return tuple(issues)
