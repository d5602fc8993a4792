"""Logistic treatment model: IRLS fit, sandwich covariance, trimming, calibration."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMap, InterferenceMap, InterventionTable, _read_only
from .errors import DataValidationError, EstimationError, SingularSystemError, _finite

SCORE_TOL = 1e-8
MAX_ITER = 100
SEPARATION_EPS = 1e-10
RESCALE_Z = "rescale the intervention covariates"  # when the fit overflows


def logistic(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class PropensityFit:
    """Fitted logistic model for treatment assignment.

    cov_gamma estimates the covariance of sqrt(J) * (gamma_hat - gamma0),
    i.e. it is not yet divided by J.  basis_matrix is the (J, dim gamma)
    expansion of the intervention covariates that the model was fitted on.
    """

    gamma: np.ndarray
    fitted: np.ndarray
    cov_gamma: np.ndarray
    converged: bool
    iterations: int
    separation_flag: bool
    basis: FeatureMap
    basis_matrix: np.ndarray

    def standard_errors(self) -> np.ndarray:
        """Per-coefficient standard errors on the gamma_hat scale."""
        return np.sqrt(np.diag(self.cov_gamma) / self.fitted.shape[0])


@dataclass(frozen=True)
class TrimReport:
    threshold: float
    kept: np.ndarray
    dropped: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def fit_propensity(x_int: np.ndarray, a: np.ndarray, basis: FeatureMap) -> PropensityFit:
    """Fit the logistic propensity model by iteratively reweighted least squares.

    Iterates Newton steps until the mean score has max-norm <= 1e-8 or 100
    iterations.  The returned covariance is the sandwich
    V_d^{-1} V_phi V_d^{-T} with V_d the average negative score Jacobian
    and V_phi the average score outer product.
    """
    x_int = np.asarray(x_int, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any((a != 0.0) & (a != 1.0)):
        raise DataValidationError("treatments must be exactly 0 or 1")
    if a.min() == a.max():
        raise EstimationError("cannot fit a propensity model: all treatments identical")
    b = basis.expand(x_int)
    j, d = b.shape
    if j <= d:
        raise EstimationError(
            f"need more intervention units ({j}) than propensity parameters ({d})")

    gamma = np.zeros(d)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        e = logistic(b @ gamma)
        score = b.T @ (a - e) / j
        if np.max(np.abs(score)) <= SCORE_TOL:
            converged = True
            break
        w = np.clip(e * (1.0 - e), 1e-12, None)
        hess = (b * w[:, None]).T @ b / j
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "singular information matrix in the propensity fit") from exc
        gamma = gamma + step

    e = logistic(b @ gamma)
    # checked before the sandwich, since LAPACK would not check
    _finite(gamma, "propensity fit", RESCALE_Z)
    _finite(e, "propensity fit", RESCALE_Z)
    separation = bool(np.any(e < SEPARATION_EPS) | np.any(e > 1.0 - SEPARATION_EPS))
    w = e * (1.0 - e)
    v_d = (b * w[:, None]).T @ b / j
    resid = a - e
    v_phi = (b * (resid**2)[:, None]).T @ b / j
    try:
        v_d_inv = np.linalg.inv(v_d)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("singular V_d in the propensity sandwich") from exc
    cov = v_d_inv @ v_phi @ v_d_inv.T
    cov = 0.5 * (cov + cov.T)
    _finite(cov, "propensity fit", RESCALE_Z)
    return PropensityFit(gamma=gamma, fitted=e, cov_gamma=cov, converged=converged,
                         iterations=iterations, separation_flag=separation, basis=basis,
                         basis_matrix=_read_only(b))


def trim_by_propensity(fit: PropensityFit, quantile: float) -> TrimReport:
    """Drop units with fitted propensity strictly below the given quantile.

    The threshold uses linear interpolation between order statistics, so a
    degenerate (all-equal) distribution trims nothing.  Quantile 0 is the
    no-op boundary: the threshold is the minimum and nothing is dropped.
    """
    if not 0.0 <= quantile < 1.0:
        raise DataValidationError("trim quantile must lie in [0, 1)")
    threshold = float(np.quantile(fit.fitted, quantile))
    dropped = np.flatnonzero(fit.fitted < threshold)
    kept = np.flatnonzero(fit.fitted >= threshold)
    return TrimReport(threshold=threshold, kept=kept, dropped=dropped)


def apply_trim(h: InterferenceMap, intv: InterventionTable,
               report: TrimReport) -> tuple[InterferenceMap, InterventionTable]:
    """Subset H columns and intervention rows consistently after trimming."""
    kept = report.kept
    cost = None if intv.cost is None else intv.cost[kept]
    return (h.keep_columns(kept),
            InterventionTable(x=intv.x[kept], a=intv.a[kept], cost=cost))


def calibrate_propensity_intercept(x_int: np.ndarray, basis: FeatureMap,
                                   gamma_slopes: np.ndarray, target_mean: float,
                                   tol: float) -> float:
    """Find the intercept matching the average propensity to a target.

    The average fitted propensity is strictly increasing in the intercept
    with limits 0 and 1, so bisection on an expanding bracket always
    terminates.  The bracket is shrunk well past ``tol`` so the achieved
    mean is essentially exact.
    """
    if not 0.0 < target_mean < 1.0:
        raise DataValidationError("target mean propensity must lie in (0, 1)")
    if tol <= 0.0:
        raise DataValidationError("calibration tolerance must be positive")
    b = basis.expand(np.asarray(x_int, dtype=float))
    slopes = np.asarray(gamma_slopes, dtype=float)
    if slopes.shape[0] != b.shape[1] - 1:
        raise DataValidationError(
            f"expected {b.shape[1] - 1} slope coefficients, got {slopes.shape[0]}")
    offset = b[:, 1:] @ slopes

    def mean_at(c):
        return float(np.mean(logistic(c + offset)))

    lo, hi = -2.0, 2.0
    while mean_at(lo) > target_mean:
        lo *= 2.0
    while mean_at(hi) < target_mean:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = mean_at(mid)
        if abs(m - target_mean) <= min(tol, 1e-12) or (hi - lo) < 1e-14:
            break
        if m < target_mean:
            lo = mid
        else:
            hi = mid
    return mid
