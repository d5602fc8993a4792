"""Core data model: interference map, unit tables, basis expansions, scaling.

The interference map owns the one convention by which units meet: the
exposure of the outcome units is (1/J) H v and the aggregate over them
is (1/J) H^T w, so ``InterferenceMap.exposure`` and ``aggregate`` are
the only products with H in the package.

Arrays are validated once at construction, and each table holds a
read-only view of them, not a copy: writing to an array you passed in
changes the table.  A sparse interference map is the exception: it holds
sorted copies of its triplets.  No table writes to its arrays, so
instances can be shared freely across threads.
"""
from __future__ import annotations

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
    """Nonnegative n x J matrix of transport weights, dense or sparse.

    A dense map holds H in ``h``, a numpy array.  A sparse map holds
    ``h`` = None and the triplets H[rows[k], cols[k]] = data[k] of its
    stored values, with ``shape`` = (n, J).  The triplets may be given in
    any order; the map holds them sorted by row, then column, and rejects
    a pair that is outside n x J or given twice.  ``exposure``,
    ``aggregate`` and ``row_mass`` return numpy arrays either way; on a
    sparse map they add the stored products in that order, as scipy's CSR
    products do, so they give scipy's bits without importing scipy.  Rows
    index outcome units, columns index intervention units.  Columns with
    no transport at all are legal here: ``validate_bundle`` reports them,
    so the CLI rejects such a bundle, and ``effect_table`` marks them
    ``structural_zero``.
    """

    h: np.ndarray | None = None
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    data: np.ndarray | None = None
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        h, triplets, shape = self.h, (self.rows, self.cols, self.data), self.shape
        given = [arr is not None for arr in (*triplets, shape)]
        if any(given) if h is not None else not all(given):
            raise DataValidationError("give h, or rows, cols, data and shape")
        if h is not None:
            h = _read_only(_as_float(h, "h", 2))
            shape = h.shape
        shape = tuple(int(d) for d in shape)
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise DataValidationError("interference map must have n >= 1 and J >= 1")
        if h is None:
            for name, arr in zip(("rows", "cols", "data"), _sorted_triplets(shape, *triplets)):
                object.__setattr__(self, name, arr)
        values = self.data if h is None else h
        if not np.all(np.isfinite(values)):
            raise DataValidationError("interference map contains non-finite entries")
        if np.any(values < 0):
            raise DataValidationError("interference map contains negative entries")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "shape", shape)

    @property
    def sparse(self) -> bool:
        return self.h is None

    @property
    def n(self) -> int:
        return self.shape[0]

    @property
    def j(self) -> int:
        return self.shape[1]

    def _operand(self, v, size, name) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != size:
            raise DataValidationError(f"{name} operand must have {size} rows to match "
                                      f"the interference map, got shape {v.shape}")
        return v

    def _sum_into(self, target, size, source, v) -> np.ndarray:
        """sum over stored (t, s) of H[t, s] v[s], per column of v, in storage order.

        A matrix's columns are gathered from a contiguous copy of v^T into
        the rows of a (k, size) buffer; the result is C-ordered, as the
        products that read it expect.
        """
        if v.ndim == 1:
            return np.bincount(target, weights=self.data * v[source], minlength=size)
        columns = np.ascontiguousarray(v.T)
        out = np.empty((v.shape[1], size))
        for k, column in enumerate(columns):
            out[k] = np.bincount(target, weights=self.data * column[source], minlength=size)
        return np.ascontiguousarray(out.T)

    def exposure(self, v) -> np.ndarray:
        """(1/J) H v: what each outcome unit receives from the intervention units.

        ``v`` is a J-vector (treatments or propensities) or a (J, k) matrix,
        whose columns are mapped one by one.
        """
        v = self._operand(v, self.j, "exposure")
        if self.sparse:
            return self._sum_into(self.rows, self.n, self.cols, v) / self.j
        return self.h @ v / self.j

    def aggregate(self, w) -> np.ndarray:
        """(1/J) H^T w: what each intervention unit delivers, summed over outcome units.

        ``w`` is an n-vector (per-unit effects) or an (n, k) matrix.
        """
        w = self._operand(w, self.n, "aggregate")
        if self.sparse:
            return self._sum_into(self.cols, self.j, self.rows, w) / self.j
        return self.h.T @ w / self.j

    def row_mass(self) -> np.ndarray:
        """Per-unit transport mass c_i = (1/J) sum_j H_ij."""
        if self.sparse:
            return np.bincount(self.rows, weights=self.data, minlength=self.n) / self.j
        return self.h.sum(axis=1) / self.j

    def zero_columns(self) -> np.ndarray:
        """Indices of intervention units with no transport to any outcome unit."""
        if self.sparse:
            reached = np.bincount(self.cols[self.data > 0], minlength=self.j)
            return np.flatnonzero(reached == 0)
        return np.flatnonzero(~np.any(self.h > 0, axis=0))

    def keep_columns(self, kept) -> InterferenceMap:
        """The map of the intervention units ``kept`` alone, in ascending order."""
        kept = np.asarray(kept)
        if (kept.ndim != 1 or not np.issubdtype(kept.dtype, np.integer)
                or np.any((kept < 0) | (kept >= self.j)) or np.any(kept[1:] <= kept[:-1])):
            raise DataValidationError(
                f"kept columns must be distinct and ascending integers in [0, {self.j})")
        if not self.sparse:
            # a column index comes out column-major; the copy is row-major, as
            # every other dense map is
            return InterferenceMap(self.h[:, kept].copy())
        new_col = np.full(self.j, -1)
        new_col[kept] = np.arange(kept.size)
        cols = new_col[self.cols]
        stays = cols >= 0
        return InterferenceMap(rows=self.rows[stays], cols=cols[stays], data=self.data[stays],
                               shape=(self.n, kept.size))


def _sorted_triplets(shape, rows, cols, data):
    """Read-only copies of the triplets, sorted by row, then column; pairs checked."""
    n, j = shape
    rows, cols = np.asarray(rows), np.asarray(cols)
    for name, arr in (("rows", rows), ("cols", cols)):
        if arr.ndim != 1 or not (arr.size == 0 or np.issubdtype(arr.dtype, np.integer)):
            raise DataValidationError(f"{name} must be a 1-d integer array")
    data = _as_float(data, "data", 1)
    if not rows.size == cols.size == data.size:
        raise DataValidationError("rows, cols and data must have the same length")
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= j)
    if outside.any():
        k = int(np.argmax(outside))
        raise DataValidationError(f"triplet ({rows[k]}, {cols[k]}) outside {n}x{j}")
    rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
    keys = rows * j + cols
    if np.all(keys[1:] > keys[:-1]):  # row-major and no pair twice: kept as given
        return tuple(_read_only(arr.copy()) for arr in (rows, cols, data))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeat = keys[1:] == keys[:-1]
    if repeat.any():
        dup = divmod(int(keys[np.argmax(repeat)]), j)
        raise DataValidationError(f"duplicate triplet (i, j) = {dup}")
    return tuple(_read_only(arr[order]) for arr in (rows, cols, data))


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
