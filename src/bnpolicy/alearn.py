"""Doubly robust route: A-learning as one just-identified instrumental-variable system.

The coefficients theta = (alpha, beta) solve

    (1/n) Z^T (y - D theta) = 0,

with regressors D = [F0 | abar * FA] and instruments
Z = [F0 | c (abar - abar_hat) * FA].  F0 and FA are the baseline and effect
bases at the outcome units, abar is the realized exposure, abar_hat the
exposure implied by fitted (or supplied) propensities and c_i the per-unit
transport mass; lam_i = c_i * fa(x_i).  With bases linear in their
parameters the root is theta = M^{-1} Z^T y / n with M = Z^T D / n, and one
SVD of M gives its condition number, the root and the bread M^{-1}.

The covariance adds the propensity-estimation term:

    cov = (Omega_phi + Omega_gamma) / n
    Omega_phi   = M^{-1} Sigma_phi M^{-T},   Sigma_phi = Z^T diag(r^2) Z / n
    Omega_gamma = (1/R) (M^{-1} Sigma_gamma) Omega_eps (M^{-1} Sigma_gamma)^T

with r = y - D theta, -M the mean Jacobian of the equations (the sign
cancels in both quadratic forms), Sigma_gamma the mean sensitivity of the
equations to the propensity coefficients, R = J/n, and Omega_eps the
propensity sandwich on the sqrt(J) scale.  Omega_gamma is zero when
propensities are supplied as known.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import FeatureMap, InterferenceMap, InterventionTable, OutcomeTable
from .errors import DataValidationError, EstimationError, SingularSystemError
from .propensity import PropensityFit, fit_propensity
from .qlearn import OutcomeFit, OutcomeModelSpec, _finite, q_design

COND_WARN = 1e10
COND_FAIL = 1e14
EQ_TOL = 1e-8


@dataclass(frozen=True)
class AFit(OutcomeFit):
    gamma_fit: PropensityFit | None
    omega_phi: np.ndarray
    omega_gamma: np.ndarray
    diagnostics: dict


def _iv_system(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
               spec: OutcomeModelSpec):
    """Regressors D and FA from ``q_design``, instruments Z and lam = c * FA.

    Z is D with its effect block replaced by c (abar - abar_hat) * FA.
    """
    if h.n != out.n:
        raise DataValidationError(f"interference map has {h.n} rows but the outcome "
                                  f"table has {out.n}")
    abar, abar_hat = np.asarray(abar, dtype=float), np.asarray(abar_hat, dtype=float)
    if abar_hat.shape != (out.n,):
        raise DataValidationError(f"abar_hat must have shape ({out.n},) to match the "
                                  f"outcome table, got {abar_hat.shape}")
    d, fa = q_design(out, abar, spec)
    c = h.row_mass()
    z = d.copy()
    np.multiply((c * (abar - abar_hat))[:, None], fa, out=z[:, d.shape[1] - fa.shape[1]:])
    return d, z, c[:, None] * fa


def _factor(m):
    """2-norm condition number and inverse of M from one SVD M = U S V^T.

    V S^{-1} U^T alone is accurate only to eps * cond(M), which loses digits
    when the columns of M differ in scale (the effect block is much smaller
    than the baseline block); one Newton step X + X (I - M X) restores the
    accuracy of an LU inverse.
    """
    try:
        u, s, vt = np.linalg.svd(_finite(m, "estimating system"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"SVD of the joint estimating system failed: {exc}") from exc
    cond = s[0] / s[-1] if s[-1] > 0.0 else np.inf
    if not cond <= COND_FAIL:
        raise SingularSystemError(
            f"singular joint estimating system (condition estimate {cond:.3e})",
            condition=cond)
    if cond > COND_WARN:
        warnings.warn(f"ill-conditioned estimating system (condition {cond:.3e})",
                      RuntimeWarning, stacklevel=3)
    x = (vt.T / s) @ u.T
    return cond, x + x @ (np.eye(s.shape[0]) - m @ x)


def a_system(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
             spec: OutcomeModelSpec):
    """Mean-form linear system M theta = rhs: M = Z^T D / n, rhs = Z^T y / n."""
    d, z, _ = _iv_system(out, h, abar, abar_hat, spec)
    return z.T @ d / out.n, z.T @ out.y / out.n


def a_equations(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
                spec: OutcomeModelSpec, alpha, beta) -> np.ndarray:
    """Averaged estimating equations Z^T (y - D theta) / n; zero at the fit."""
    d, z, _ = _iv_system(out, h, abar, abar_hat, spec)
    return z.T @ (out.y - d @ np.concatenate([alpha, beta])) / out.n


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


def _covariance(z, lam, r, m_inv, h: InterferenceMap, e, prop_basis_matrix,
                cov_gamma):
    """(cov_theta, omega_phi, omega_gamma, sigma_gamma) at residual r."""
    n = r.shape[0]
    omega_phi = m_inv @ ((z.T * r**2) @ z / n) @ m_inv.T
    dth = m_inv.shape[0]
    omega_gamma = np.zeros((dth, dth))
    sigma_gamma = None
    if cov_gamma is not None:
        g = gamma_sensitivity(h, e, prop_basis_matrix)
        sigma_gamma = np.vstack([np.zeros((dth - lam.shape[1], g.shape[1])),
                                 -(lam * r[:, None]).T @ g / n])
        ratio = h.j / n
        core = m_inv @ sigma_gamma
        omega_gamma = core @ cov_gamma @ core.T / ratio
    cov = (omega_phi + omega_gamma) / n
    cov = 0.5 * (cov + cov.T)
    return cov, omega_phi, omega_gamma, sigma_gamma


def a_covariance(out: OutcomeTable, h: InterferenceMap, abar, abar_hat,
                 spec: OutcomeModelSpec, alpha, beta, m,
                 e=None, prop_basis_matrix=None, cov_gamma=None):
    """Plug-in covariance blocks for a solved system.

    Returns (cov_theta, omega_phi, omega_gamma, sigma_gamma).  The
    propensity pieces may be omitted, in which case omega_gamma is zero
    (known-propensity analysis).
    """
    d, z, lam = _iv_system(out, h, abar, abar_hat, spec)
    return _covariance(z, lam, out.y - d @ np.concatenate([alpha, beta]),
                       _factor(m)[1], h, e, prop_basis_matrix, cov_gamma)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
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
    else:
        gamma_fit = fit_propensity(intv.x, intv.a, prop_basis)
        e = gamma_fit.fitted
        bprop = prop_basis.expand(intv.x)
        cov_gamma = gamma_fit.cov_gamma
    # a fitted propensity can round to 0 or 1 under separation
    if e.shape != (intv.j,) or not np.all((e > 0.0) & (e < 1.0)):
        raise DataValidationError("propensities must lie strictly in (0, 1)")

    abar = h.exposure(intv.a)
    abar_hat = h.exposure(e)
    if np.max(np.abs(abar - abar_hat)) < 1e-14:
        raise SingularSystemError(
            "no treatment variation beyond the propensity model: "
            "abar - abar_hat is identically zero")

    d, z, lam = _iv_system(out, h, abar, abar_hat, spec)
    n = out.n
    cond, m_inv = _factor(z.T @ d / n)
    theta = _finite(m_inv @ (z.T @ out.y / n), "A-learning coefficient vector")
    r = out.y - d @ theta
    eq = z.T @ r / n
    da = spec.basis_f0.dim(out.p)
    scale = max(1.0, float(np.max(np.abs(out.y))))
    diagnostics = {
        "condition": float(cond),
        "baseline_block_norm": float(np.max(np.abs(eq[:da]))),
        "effect_block_norm": float(np.max(np.abs(eq[da:]))),
        "equation_scale": scale,
    }
    # NaN-safe: a norm that overflowed fails the test as well
    if not (diagnostics["baseline_block_norm"] <= EQ_TOL * scale
            and diagnostics["effect_block_norm"] <= EQ_TOL * scale):
        raise EstimationError(
            "estimating equations not solved to tolerance; system is too "
            f"ill-conditioned (condition {cond:.3e})")

    cov, omega_phi, omega_gamma, _ = _covariance(
        z, lam, r, m_inv, h, e, bprop, cov_gamma)
    _finite(cov, "A-learning covariance")
    return AFit(alpha=theta[:da], beta=theta[da:], gamma_fit=gamma_fit,
                cov_theta=cov, omega_phi=omega_phi, omega_gamma=omega_gamma,
                diagnostics=diagnostics, spec=spec)
