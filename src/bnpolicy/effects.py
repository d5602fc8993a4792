"""Per-intervention-unit effect quantities: totals, tests, intervals, ratios."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, ndtri
from .data import FeatureMap
from .errors import DataValidationError, EstimationError
from .prepared import PreparedData


@dataclass(frozen=True)
class EffectTable:
    """Per-unit aggregate effects with uncertainty.

    ``p_one_sided`` tests H0: effect >= 0 against the protective
    alternative, so it is small when the effect is strongly negative.
    ``structural_zero`` marks units whose interference column is entirely
    zero (no transport, effect structurally absent).
    """

    total_effect: np.ndarray
    se: np.ndarray
    p_one_sided: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    benefit_cost: np.ndarray | None
    structural_zero: np.ndarray
    level: float


def _effect_basis(data: PreparedData, beta, basis_fa: FeatureMap):
    """(FA, beta): the prepared effect basis at the outcome units, and beta checked
    against it; ``data`` must hold the interference map."""
    if data.h is None:
        raise DataValidationError("the effects need the interference map of the bundle")
    beta = np.asarray(beta, dtype=float)
    fa = data.outcome_basis(basis_fa)
    if beta.shape != fa.shape[1:]:
        raise DataValidationError(f"beta must have shape ({fa.shape[1]},) to match the "
                                  f"effect basis, got {beta.shape}")
    return fa, beta


def total_effects(data: PreparedData, beta, basis_fa: FeatureMap) -> np.ndarray:
    """Aggregate effect of treating each unit: (1/J) sum_i H_ij fa(x_i) . beta."""
    fa, beta = _effect_basis(data, beta, basis_fa)
    return data.h.aggregate(fa @ beta)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def effect_table(data: PreparedData, beta, cov_beta: np.ndarray, basis_fa: FeatureMap,
                 cost=None, level: float = 0.95) -> EffectTable:
    """Assemble the full per-unit effect report on the bundle ``data``.

    The totals are W beta with rows w_j = (1/J) sum_i H_ij fa(x_i), so their
    standard errors are sqrt(w_j' cov_beta w_j); ``cov_beta`` must already be
    on the per-sample scale (the variance of beta_hat itself).
    """
    if not 0.0 < level < 1.0:
        raise DataValidationError("confidence level must lie in (0, 1)")
    h = data.h
    fa, beta = _effect_basis(data, beta, basis_fa)
    k = beta.shape[0]
    cov_beta = np.asarray(cov_beta, dtype=float)
    if cov_beta.shape != (k, k):
        raise DataValidationError(f"cov_beta must have shape ({k}, {k}) to match beta, "
                                  f"got {cov_beta.shape}")
    te = h.aggregate(fa @ beta)
    w = h.aggregate(fa)
    variances = np.einsum("jk,kl,jl->j", w, cov_beta, w)
    bad = variances < 0
    if np.any(bad):
        raise EstimationError(
            f"negative effect variance at unit {int(np.flatnonzero(bad)[0])}: "
            "the beta covariance block is not positive semidefinite")
    se = np.sqrt(variances)
    if not (np.all(np.isfinite(te)) and np.all(np.isfinite(se))):
        raise EstimationError("a total effect or its standard error overflows to a "
                              "non-finite value")
    z = ndtri(0.5 + level / 2.0)
    # degenerate se = 0: the one-sided p collapses to an indicator
    safe = np.where(se > 0, se, 1.0)
    p = np.where(se > 0, ndtr(te / safe),
                 np.where(te < 0, 0.0, np.where(te > 0, 1.0, 0.5)))
    ci_low = te - z * se
    ci_high = te + z * se
    bc = None if cost is None else benefit_cost(te, cost)
    zero_cols = np.zeros(h.j, dtype=bool)
    zero_cols[h.zero_columns()] = True
    return EffectTable(total_effect=te, se=se, p_one_sided=p, ci_low=ci_low,
                       ci_high=ci_high, benefit_cost=bc,
                       structural_zero=zero_cols, level=level)


def benefit_cost(te, cost) -> np.ndarray:
    """Elementwise effect-to-cost ratio; NaN where the cost is not positive.

    Units with nonpositive cost are excluded from ratio-based ranking by
    the policy module, so the NaN marker is deliberate rather than an
    error here.
    """
    te = np.asarray(te, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if te.shape != cost.shape:
        raise DataValidationError("total effects and costs must have equal length")
    out = np.full(te.shape, np.nan)
    ok = cost > 0
    out[ok] = te[ok] / cost[ok]
    return out
