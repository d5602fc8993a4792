"""What the fits on one bundle share, each computed once.

A replication of the Monte Carlo lab fits six estimator cells to one
dataset, and a bundle command fits once and then reports effects from the
same tables.  Those fits read the same derived quantities:

- the realized exposure abar = (1/J) H a and the row mass c_i = (1/J) sum_j H_ij;
- each basis kind's expansion of the outcome covariates, and the
  regressors D = [F0 | abar * FA] of each pair of outcome bases;
- per propensity basis kind, the fitted propensity model (which holds its
  expansion of the intervention covariates), the exposure
  abar_hat = (1/J) H e it implies and that exposure's sensitivity
  d abar_hat / d gamma.

``PreparedData`` checks once that H has one row per outcome unit and one
column per intervention unit and that each treatment is 0 or 1.  It computes
each derived quantity on first use, keeps it read-only and hands the same
value to every later fit.  Each value comes from the operations a fit on its
own would run, on the same inputs, so sharing it keeps every bit.
``fit_q``, the effect functions and ``simlab.run_cell`` take it; the lab
builds one per replication and a command one per run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMap, InterferenceMap, InterventionTable, OutcomeTable, _read_only
from .errors import DataValidationError
from .propensity import PropensityFit, fit_propensity


def gamma_sensitivity(h: InterferenceMap, e: np.ndarray,
                      prop_basis_matrix: np.ndarray) -> np.ndarray:
    """d abar_hat_i / d gamma as an (n, dim gamma) matrix.

    The weights e(1 - e) scale the (J, dim gamma) basis, not H, so no
    n x J temporary is built.
    """
    e = np.asarray(e, dtype=float)
    if e.shape != np.shape(prop_basis_matrix)[:1]:
        raise DataValidationError(f"propensities of shape {e.shape} do not match the "
                                  f"basis matrix of shape {np.shape(prop_basis_matrix)}")
    return h.exposure((e * (1.0 - e))[:, None] * prop_basis_matrix)


@dataclass(frozen=True)
class PropensityTerms:
    """The propensity side of an A-learning fit: abar_hat = (1/J) H e for the
    propensities e, and for a fitted model the fit and the sensitivity
    d abar_hat / d gamma, both None when the propensities are known.
    """

    abar_hat: np.ndarray
    fit: PropensityFit | None = None
    sensitivity: np.ndarray | None = None


class PreparedData:
    """An outcome table, and optionally its intervention table and map, with
    what the fits derive from them.

    ``abar`` is given for a fit on a supplied exposure, as
    ``PreparedData(out, abar=abar)`` for ``fit_q``; otherwise it is the
    realized exposure of ``intv.a`` under ``h``, computed when first read.
    The constructor rejects a map whose shape does not match the tables, a
    treatment other than 0 or 1 and an ``abar`` without one entry per outcome
    unit.  The object fills itself as it is read, so one thread at a time uses it.
    """

    def __init__(self, out: OutcomeTable, intv: InterventionTable | None = None,
                 h: InterferenceMap | None = None, abar=None):
        if h is not None and h.n != out.n:
            raise DataValidationError(f"interference map has {h.n} rows but the outcome "
                                      f"table has {out.n}")
        if h is not None and intv is not None and h.j != intv.j:
            raise DataValidationError(f"interference map has {h.j} columns but the "
                                      f"intervention table has {intv.j}")
        if intv is not None and np.any((intv.a != 0.0) & (intv.a != 1.0)):
            raise DataValidationError("treatments must be exactly 0 or 1")
        self.out, self.intv, self.h = out, intv, h
        self._memo = {}
        if abar is not None:
            abar = np.asarray(abar, dtype=float)
            if abar.shape != (out.n,):
                raise DataValidationError(f"abar must have shape ({out.n},) to match "
                                          f"the outcome table, got {abar.shape}")
            self._memo["abar"] = _read_only(abar)

    def _once(self, key, compute):
        if key not in self._memo:  # a compute that raises stores nothing
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def abar(self) -> np.ndarray:
        """The exposure of the outcome units, one entry per unit."""
        if "abar" not in self._memo and (self.h is None or self.intv is None):
            raise DataValidationError("the exposure needs an abar, or the intervention "
                                      "table and the interference map")
        return self._once("abar", lambda: _read_only(self.h.exposure(self.intv.a)))

    def row_mass(self) -> np.ndarray:
        """The per-unit transport mass c_i = (1/J) sum_j H_ij."""
        return self._once("row mass", lambda: _read_only(self.h.row_mass()))

    def outcome_basis(self, basis: FeatureMap) -> np.ndarray:
        """``basis`` expanded at the outcome covariates: the one expansion of ``out.x``."""
        return self._once(("outcome basis", basis.kind),
                          lambda: _read_only(basis.expand(self.out.x)))

    def design(self, basis_f0: FeatureMap, basis_fa: FeatureMap):
        """(D = [F0 | abar * FA], FA): the regressors of either fit and the effect basis."""
        def compute():
            abar = self.abar
            f0, fa = self.outcome_basis(basis_f0), self.outcome_basis(basis_fa)
            return _read_only(np.hstack([f0, abar[:, None] * fa])), fa
        return self._once(("design", basis_f0.kind, basis_fa.kind), compute)

    def _terms(self, e, fit=None) -> PropensityTerms:
        # a fitted propensity can round to 0 or 1 under separation
        if e.shape != (self.intv.j,) or not np.all((e > 0.0) & (e < 1.0)):
            raise DataValidationError("propensities must lie strictly in (0, 1)")
        sensitivity = (None if fit is None
                       else _read_only(gamma_sensitivity(self.h, e, fit.basis_matrix)))
        return PropensityTerms(_read_only(self.h.exposure(e)), fit, sensitivity)

    def propensity(self, basis: FeatureMap) -> PropensityTerms:
        """The propensity model in ``basis``, fitted to ``intv``, and its exposure terms."""
        def compute():
            fit = fit_propensity(self.intv.x, self.intv.a, basis)
            return self._terms(fit.fitted, fit)
        return self._once(("propensity", basis.kind), compute)

    def known_propensities(self, e) -> PropensityTerms:
        """The exposure terms of supplied propensities, computed on each call."""
        return self._terms(np.asarray(e, dtype=float))
