"""Doubly robust route: joint estimating equations with augmented sandwich.

The treatment-effect coefficients solve

    (1/n) sum_i lam_i (Y_i - mu_i) (abar_i - abar_hat_i) = 0,

jointly with the baseline block (1/n) sum_i f0_i (Y_i - mu_i) = 0, where
abar_hat is the exposure implied by fitted (or supplied) propensities and
lam_i = c_i * fa(x_i) with c_i the per-unit transport mass.  With bases
linear in their parameters both blocks are linear in (alpha, beta), so the
root is one square solve.

The covariance adds the propensity-estimation term:

    cov = (Omega_phi + Omega_gamma) / n
    Omega_phi   = S^{-1} Sigma_phi S^{-T}
    Omega_gamma = (1/R) (S^{-1} Sigma_gamma) Omega_eps (S^{-1} Sigma_gamma)^T

with S the mean Jacobian of the stacked equations, Sigma_phi the mean
outer product of per-unit scores, Sigma_gamma the mean sensitivity to the
propensity coefficients, R = J/n, and Omega_eps the propensity sandwich on
the sqrt(J) scale.  Omega_gamma is zero when propensities are supplied as
known.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import FeatureMap, InterferenceMap, InterventionTable, OutcomeTable
from .errors import DataValidationError, EstimationError, SingularSystemError
from .exposure import expected_exposure, exposure_map, exposure_row_mass
from .propensity import PropensityFit, fit_propensity
from .qlearn import OutcomeModelSpec

COND_WARN = 1e10
COND_FAIL = 1e14
EQ_TOL = 1e-8


@dataclass(frozen=True)
class AFit:
    alpha: np.ndarray
    beta: np.ndarray
    gamma_fit: PropensityFit | None
    cov_alphabeta: np.ndarray
    omega_phi: np.ndarray
    omega_gamma: np.ndarray
    ratio_r: float
    diagnostics: dict
    spec: OutcomeModelSpec

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    def cov_beta(self) -> np.ndarray:
        da = self.alpha.shape[0]
        return self.cov_alphabeta[da:, da:]

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov_alphabeta))


def _system_parts(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
                  spec: OutcomeModelSpec):
    f0 = spec.basis_f0.expand(out.x)
    fa = spec.basis_fa.expand(out.x)
    c = exposure_row_mass(h)
    lam = c[:, None] * fa
    w = c * (abar - abar_hat)
    return f0, fa, lam, w


def a_system(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
             spec: OutcomeModelSpec):
    """Mean-form linear system M theta = rhs for the stacked equations."""
    f0, fa, lam, w = _system_parts(out, h, abar, abar_hat, spec)
    n = out.n
    ta = abar[:, None] * fa
    wfa = w[:, None] * fa
    da = f0.shape[1]
    db = fa.shape[1]
    m = np.empty((da + db, da + db))
    m[:da, :da] = f0.T @ f0 / n
    m[:da, da:] = f0.T @ ta / n
    m[da:, :da] = wfa.T @ f0 / n
    m[da:, da:] = wfa.T @ ta / n
    rhs = np.concatenate([f0.T @ out.y / n, wfa.T @ out.y / n])
    return m, rhs


def a_equations(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
                spec: OutcomeModelSpec, alpha, beta) -> np.ndarray:
    """Averaged estimating equations at (alpha, beta); zero at the fit."""
    f0, fa, lam, w = _system_parts(out, h, abar, abar_hat, spec)
    resid = out.y - f0 @ alpha - abar * (fa @ beta)
    return np.concatenate([f0.T @ resid / out.n,
                           (w[:, None] * fa).T @ resid / out.n])


def gamma_sensitivity(h: InterferenceMap, e: np.ndarray,
                      prop_basis_matrix: np.ndarray) -> np.ndarray:
    """d abar_hat_i / d gamma as an (n, dim gamma) matrix.

    The weights e(1 - e) scale the (J, dim gamma) basis, not H, so no
    n x J temporary is built.
    """
    return h.h @ ((e * (1.0 - e))[:, None] * prop_basis_matrix) / h.j


def a_covariance(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
                 spec: OutcomeModelSpec, alpha, beta, m,
                 e=None, prop_basis_matrix=None, cov_gamma=None):
    """Plug-in covariance blocks for a solved system.

    Returns (cov_alphabeta, omega_phi, omega_gamma, sigma_gamma).  The
    propensity pieces may be omitted, in which case omega_gamma is zero
    (known-propensity analysis).
    """
    f0, fa, lam, w = _system_parts(out, h, abar, abar_hat, spec)
    n = out.n
    resid = out.y - f0 @ alpha - abar * (fa @ beta)
    delta = abar - abar_hat
    phi = np.hstack([f0 * resid[:, None], lam * (resid * delta)[:, None]])
    sigma_phi = phi.T @ phi / n
    # mean Jacobian of the stacked equations is -m; the sign cancels in
    # both quadratic forms below
    try:
        m_inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("singular bread matrix in covariance") from exc
    omega_phi = m_inv @ sigma_phi @ m_inv.T
    dth = m.shape[0]
    da = f0.shape[1]
    omega_gamma = np.zeros((dth, dth))
    sigma_gamma = None
    if cov_gamma is not None:
        g = gamma_sensitivity(h, e, prop_basis_matrix)
        sigma_gamma = np.vstack([np.zeros((da, g.shape[1])),
                                 -(lam * resid[:, None]).T @ g / n])
        ratio = h.j / n
        core = m_inv @ sigma_gamma
        omega_gamma = core @ cov_gamma @ core.T / ratio
    cov = (omega_phi + omega_gamma) / n
    cov = 0.5 * (cov + cov.T)
    return cov, omega_phi, omega_gamma, sigma_gamma


def fit_a(out: OutcomeTable, intv: InterventionTable, h: InterferenceMap,
          spec: OutcomeModelSpec, prop_basis: FeatureMap | None = None,
          propensities=None) -> AFit:
    """Doubly robust joint fit of (alpha, beta).

    Either ``prop_basis`` is given and the propensity model is estimated
    from ``intv``, or ``propensities`` supplies known treatment
    probabilities, in which case the propensity-noise covariance term is
    identically zero.
    """
    if (prop_basis is None) == (propensities is None):
        raise DataValidationError(
            "provide exactly one of prop_basis or propensities")
    if h.n != out.n or h.j != intv.j:
        raise DataValidationError("bundle dimensions do not match")
    if np.any((intv.a != 0.0) & (intv.a != 1.0)):
        raise DataValidationError("treatments must be exactly 0 or 1")

    gamma_fit = None
    bprop = None
    cov_gamma = None
    if propensities is not None:
        e = np.asarray(propensities, dtype=float)
        if e.shape != (intv.j,) or np.any(e <= 0.0) or np.any(e >= 1.0):
            raise DataValidationError("propensities must lie strictly in (0, 1)")
    else:
        gamma_fit = fit_propensity(intv.x, intv.a, prop_basis)
        e = gamma_fit.fitted
        bprop = prop_basis.expand(intv.x)
        cov_gamma = gamma_fit.cov_gamma

    abar = exposure_map(h, intv.a)
    abar_hat = expected_exposure(h, e)
    if np.max(np.abs(abar - abar_hat)) < 1e-14:
        raise SingularSystemError(
            "no treatment variation beyond the propensity model: "
            "abar - abar_hat is identically zero")

    m, rhs = a_system(out, h, abar, abar_hat, spec)
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > COND_FAIL:
        raise SingularSystemError(
            f"singular joint estimating system (condition estimate {cond:.3e})",
            condition=cond)
    if cond > COND_WARN:
        warnings.warn(f"ill-conditioned estimating system (condition {cond:.3e})",
                      RuntimeWarning, stacklevel=2)
    try:
        theta = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"singular joint estimating system (condition estimate {cond:.3e})",
            condition=cond) from exc

    da = spec.basis_f0.dim(out.p)
    alpha, beta = theta[:da], theta[da:]
    eq = a_equations(out, h, abar, abar_hat, spec, alpha, beta)
    scale = max(1.0, float(np.max(np.abs(out.y))))
    diagnostics = {
        "condition": float(cond),
        "baseline_block_norm": float(np.max(np.abs(eq[:da]))),
        "effect_block_norm": float(np.max(np.abs(eq[da:]))),
        "equation_scale": scale,
    }
    if diagnostics["baseline_block_norm"] > EQ_TOL * scale or \
            diagnostics["effect_block_norm"] > EQ_TOL * scale:
        raise EstimationError(
            "estimating equations not solved to tolerance; system is too "
            f"ill-conditioned (condition {cond:.3e})")

    cov, omega_phi, omega_gamma, _ = a_covariance(
        out, h, abar, abar_hat, spec, alpha, beta, m,
        e=e, prop_basis_matrix=bprop, cov_gamma=cov_gamma)
    return AFit(alpha=alpha, beta=beta, gamma_fit=gamma_fit, cov_alphabeta=cov,
                omega_phi=omega_phi, omega_gamma=omega_gamma,
                ratio_r=h.j / out.n, diagnostics=diagnostics, spec=spec)
