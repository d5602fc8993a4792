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
import scipy.linalg

from .data import FeatureMap, OutcomeTable
from .errors import DataValidationError, EstimationError, RankDeficiencyError

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class OutcomeModelSpec:
    basis_f0: FeatureMap
    basis_fa: FeatureMap


@dataclass(frozen=True)
class QFit:
    alpha: np.ndarray
    beta: np.ndarray
    cov_theta: np.ndarray
    residuals: np.ndarray
    spec: OutcomeModelSpec

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    def cov_beta(self) -> np.ndarray:
        da = self.alpha.shape[0]
        return self.cov_theta[da:, da:]

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov_theta))


def q_design(out: OutcomeTable, abar: np.ndarray, spec: OutcomeModelSpec) -> np.ndarray:
    abar = np.asarray(abar, dtype=float)
    if abar.shape != (out.n,):
        raise DataValidationError("exposure vector length does not match outcomes")
    f0 = spec.basis_f0.expand(out.x)
    fa = spec.basis_fa.expand(out.x)
    return np.hstack([f0, abar[:, None] * fa])


def fit_q(out: OutcomeTable, abar, spec: OutcomeModelSpec) -> QFit:
    """Least-squares fit of the linear-exposure outcome model.

    Solved through one pivoted QR, D[:, piv] = Q R, rather than normal
    equations; a diagonal entry of R at or below RANK_RTOL times the
    largest declares rank deficiency and names the dependent column.
    """
    design = q_design(out, np.asarray(abar, dtype=float), spec)
    n, k = design.shape
    if n <= k:
        raise EstimationError(f"need more outcome units ({n}) than parameters ({k})")
    d_alpha = spec.basis_f0.dim(out.p)
    q, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0:
        raise RankDeficiencyError("design matrix is identically zero", column=int(piv[0]))
    deficient = np.flatnonzero(diag <= RANK_RTOL * diag[0])
    if deficient.size:
        col = int(piv[deficient[0]])
        block = "baseline" if col < d_alpha else "treatment"
        raise RankDeficiencyError(
            f"rank-deficient design: {block} column {col} is linearly dependent",
            column=col)
    theta = np.empty(k)
    theta[piv] = scipy.linalg.solve_triangular(r, q.T @ out.y)
    resid = out.y - design @ theta

    # (D'D)^{-1} D' diag(r^2) D (D'D)^{-1} = P (R^{-1} Q' diag(r)) (...)' P'
    half = scipy.linalg.solve_triangular(r, (q * resid[:, None]).T)
    cov = np.empty((k, k))
    cov[np.ix_(piv, piv)] = half @ half.T
    cov = 0.5 * (cov + cov.T)
    return QFit(alpha=theta[:d_alpha], beta=theta[d_alpha:], cov_theta=cov,
                residuals=resid, spec=spec)


def q_score_norm(fit: QFit, out: OutcomeTable, abar) -> float:
    """Max-norm of design' residuals; small at any proper least-squares solution."""
    design = q_design(out, np.asarray(abar, dtype=float), fit.spec)
    return float(np.max(np.abs(design.T @ fit.residuals)))
