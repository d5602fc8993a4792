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

Only Z and what follows from it belong to one fit.  D, FA, abar and the
row mass, and for each propensity basis kind the fitted model, abar_hat
and d abar_hat / d gamma, come from a ``PreparedData`` that computes each
once: a replication of the lab shares one among its four A-learning cells,
so each propensity basis is fitted once per replication.  The table-form
``fit_a`` and ``a_covariance`` build their own for one call.
"""
from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .data import FeatureMap, InterferenceMap, InterventionTable, OutcomeTable
from .errors import DataValidationError, EstimationError, SingularSystemError, _finite
from .prepared import PreparedData, gamma_sensitivity
from .propensity import PropensityFit
from .qlearn import RESCALE_BUNDLE, OutcomeFit, OutcomeModelSpec

COND_WARN = 1e10
COND_FAIL = 1e14
EQ_TOL = 1e-8


@dataclass(frozen=True)
class AFit(OutcomeFit):
    gamma_fit: PropensityFit | None
    omega_phi: np.ndarray
    omega_gamma: np.ndarray
    diagnostics: dict


def _iv_system(data: PreparedData, abar_hat, spec: OutcomeModelSpec):
    """Regressors D and FA as ``data`` builds them, instruments Z and lam = c * FA.

    Z is D with its effect block replaced by c (abar - abar_hat) * FA.
    """
    out = data.out
    abar_hat = np.asarray(abar_hat, dtype=float)
    if abar_hat.shape != (out.n,):
        raise DataValidationError(f"abar_hat must have shape ({out.n},) to match the "
                                  f"outcome table, got {abar_hat.shape}")
    d, fa = data.design(spec.basis_f0, spec.basis_fa)
    c = data.row_mass()
    z = d.copy()
    np.multiply((c * (data.abar - abar_hat))[:, None], fa,
                out=z[:, d.shape[1] - fa.shape[1]:])
    return d, z, c[:, None] * fa


def _warn(message):
    """Warn at the first frame outside this module: the code that asked for the fit."""
    level, frame = 2, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == _warn.__code__.co_filename:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _factor(m):
    """2-norm condition number and inverse of M from one SVD M = U S V^T.

    V S^{-1} U^T alone is accurate only to eps * cond(M), which loses digits
    when the columns of M differ in scale (the effect block is much smaller
    than the baseline block); one Newton step X + X (I - M X) restores the
    accuracy of an LU inverse.
    """
    try:
        u, s, vt = np.linalg.svd(_finite(m, "estimating system", RESCALE_BUNDLE))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"SVD of the joint estimating system failed: {exc}") from exc
    cond = s[0] / s[-1] if s[-1] > 0.0 else np.inf
    if not cond <= COND_FAIL:
        raise SingularSystemError(
            f"singular joint estimating system (condition estimate {cond:.3e})",
            condition=cond)
    if cond > COND_WARN:
        _warn(f"ill-conditioned estimating system (condition {cond:.3e})")
    x = (vt.T / s) @ u.T
    return cond, x + x @ (np.eye(s.shape[0]) - m @ x)


def _covariance(z, lam, r, m_inv, j, g, cov_gamma):
    """(cov_theta, omega_phi, omega_gamma, sigma_gamma) at residual r.

    ``g`` is d abar_hat / d gamma; it and ``cov_gamma`` are None for known
    propensities.
    """
    n = r.shape[0]
    omega_phi = m_inv @ ((z.T * r**2) @ z / n) @ m_inv.T
    dth = m_inv.shape[0]
    omega_gamma = np.zeros((dth, dth))
    sigma_gamma = None
    if cov_gamma is not None:
        sigma_gamma = np.vstack([np.zeros((dth - lam.shape[1], g.shape[1])),
                                 -(lam * r[:, None]).T @ g / n])
        ratio = j / n
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
    d, z, lam = _iv_system(PreparedData(out, h=h, abar=abar), abar_hat, spec)
    r = out.y - d @ np.concatenate([alpha, beta])
    m_inv = _factor(m)[1]
    g = None if cov_gamma is None else gamma_sensitivity(h, e, prop_basis_matrix)
    return _covariance(z, lam, r, m_inv, h.j, g, cov_gamma)


def fit_a(out: OutcomeTable, intv: InterventionTable, h: InterferenceMap,
          spec: OutcomeModelSpec, prop_basis: FeatureMap | None = None,
          propensities=None) -> AFit:
    """Doubly robust joint fit of (alpha, beta).

    Either ``prop_basis`` is given and the propensity model is estimated
    from ``intv``, or ``propensities`` supplies known treatment
    probabilities, in which case the propensity-noise covariance term is
    identically zero.  Unlike ``fit_q`` it takes tables, not a ``PreparedData``,
    as the benchmark's memory probe (``perfbench/child.py``) calls it; the lab
    and the commands call ``_fit_a`` on the bundle they prepared.
    """
    return _fit_a(PreparedData(out, intv, h), spec, prop_basis, propensities)


def _fit_a(data: PreparedData, spec: OutcomeModelSpec,
           prop_basis: FeatureMap | None = None, propensities=None) -> AFit:
    """``fit_a`` on ``data``, which fits each propensity basis and builds each design once."""
    out, h = data.out, data.h
    if (prop_basis is None) == (propensities is None):
        raise DataValidationError(
            "provide exactly one of prop_basis or propensities")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        terms = (data.known_propensities(propensities) if prop_basis is None
                 else data.propensity(prop_basis))
        if np.max(np.abs(data.abar - terms.abar_hat)) < 1e-14:
            raise SingularSystemError(
                "no treatment variation beyond the propensity model: "
                "abar - abar_hat is identically zero")

        d, z, lam = _iv_system(data, terms.abar_hat, spec)
        n = out.n
        cond, m_inv = _factor(z.T @ d / n)
        theta = _finite(m_inv @ (z.T @ out.y / n), "A-learning coefficient vector",
                        RESCALE_BUNDLE)
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

        cov_gamma = None if terms.fit is None else terms.fit.cov_gamma
        cov, omega_phi, omega_gamma, _ = _covariance(
            z, lam, r, m_inv, h.j, terms.sensitivity, cov_gamma)
        _finite(cov, "A-learning covariance", RESCALE_BUNDLE)
    return AFit(alpha=theta[:da], beta=theta[da:], gamma_fit=terms.fit,
                cov_theta=cov, omega_phi=omega_phi, omega_gamma=omega_gamma,
                diagnostics=diagnostics, spec=spec)
