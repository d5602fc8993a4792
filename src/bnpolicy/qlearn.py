"""Outcome-regression (plug-in) route: least squares with sandwich covariance.

The mean model is linear in the exposure,

    mu_i = f0(x_i) . alpha + abar_i * fa(x_i) . beta,

so the fit is one least-squares solve of the stacked design
D = [F0 | abar * FA].  The covariance is the M-estimation sandwich
Sigma_d^{-1} Sigma_phi Sigma_d^{-T} / n with bread Sigma_d = (1/n) D'D
and meat Sigma_phi = (1/n) sum_i d_i d_i' r_i^2, stored already divided
by n so standard errors read directly off the diagonal.  One pivoted QR
of D gives the rank check, the coefficients and the sandwich.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import pivoted_qr, solve_upper
from .data import FeatureMap
from .errors import EstimationError, RankDeficiencyError, _finite
from .prepared import PreparedData

RANK_RTOL = 1e-10
# what to rescale when an outcome-model fit overflows
RESCALE_BUNDLE = "rescale the outcomes, covariates or transport weights"


@dataclass(frozen=True)
class OutcomeModelSpec:
    basis_f0: FeatureMap
    basis_fa: FeatureMap


@dataclass(frozen=True)
class OutcomeFit:
    """theta = (alpha, beta) and its per-sample-scale covariance, from either route."""

    alpha: np.ndarray
    beta: np.ndarray
    cov_theta: np.ndarray
    spec: OutcomeModelSpec

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    def cov_beta(self) -> np.ndarray:
        da = self.alpha.shape[0]
        return self.cov_theta[da:, da:]

    def standard_errors(self) -> np.ndarray:
        """Square roots of the covariance diagonal; a variance that rounding
        leaves below 0 gives 0."""
        return np.sqrt(np.clip(np.diag(self.cov_theta), 0.0, None))


def _block(col, d_alpha):
    return "baseline" if col < d_alpha else "treatment"


def _check_scales(design, d_alpha):
    """Reject a design whose nonzero columns differ in scale by more than 1/RANK_RTOL.

    The rank test compares each diagonal entry of R with the largest, so
    beyond that span it cannot tell a small column from a dependent one.
    """
    scale = np.max(np.abs(design), axis=0)
    big = int(np.argmax(scale))
    if scale[big] * RANK_RTOL > np.min(scale[scale > 0]):
        raise EstimationError(
            f"{_block(big, d_alpha)} column {big} of the design is over {1 / RANK_RTOL:.0e} "
            "times the scale of another column, too wide a span to judge the rank; "
            "rescale the covariates or transport weights")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def fit_q(data: PreparedData, spec: OutcomeModelSpec) -> OutcomeFit:
    """Least-squares fit of the linear-exposure outcome model to ``data``.

    A caller with its own exposure passes ``PreparedData(out, abar=abar)``.
    Solved through one pivoted QR, D[:, piv] = Q R, rather than normal
    equations; a diagonal entry of R at or below RANK_RTOL times the
    largest declares rank deficiency and names the dependent column, unless
    the design's column scales alone span more than 1/RANK_RTOL.
    """
    out = data.out
    design, _ = data.design(spec.basis_f0, spec.basis_fa)
    n, k = design.shape
    if n <= k:
        raise EstimationError(f"need more outcome units ({n}) than parameters ({k})")
    d_alpha = spec.basis_f0.dim(out.p)
    q, r, piv = pivoted_qr(_finite(design, "design matrix", RESCALE_BUNDLE))
    _finite(r, "R factor of the design", RESCALE_BUNDLE)
    diag = np.abs(np.diag(r))
    deficient = np.flatnonzero(diag <= RANK_RTOL * diag[0])
    if deficient.size:
        _check_scales(design, d_alpha)
        col = int(piv[deficient[0]])
        raise RankDeficiencyError(
            f"rank-deficient design: {_block(col, d_alpha)} column {col} is linearly "
            "dependent", column=col)
    theta = np.empty(k)
    theta[piv] = solve_upper(r, _finite(q.T @ out.y, "projected outcome Q'y", RESCALE_BUNDLE))
    resid = _finite(out.y - design @ theta, "residual", RESCALE_BUNDLE)

    # (D'D)^{-1} D' diag(r^2) D (D'D)^{-1} = P (R^{-1} Q' diag(r)) (...)' P'
    half = solve_upper(r, (q * resid[:, None]).T)
    cov = np.empty((k, k))
    cov[np.ix_(piv, piv)] = half @ half.T
    cov = _finite(0.5 * (cov + cov.T), "sandwich covariance", RESCALE_BUNDLE)
    return OutcomeFit(alpha=theta[:d_alpha], beta=theta[d_alpha:], cov_theta=cov,
                      spec=spec)

