"""Estimating systems and design matrices, built from the package's own pieces.

The fits never form these as such: ``fit_q`` factors the design, and
``alearn._fit_a`` solves through the SVD of M.  The tests check a fit
against them, so each one is built on the same ``PreparedData`` that a fit
reads: the design through ``PreparedData.design`` and the instruments
through ``alearn._iv_system``.  A supplied exposure ``abar`` enters as
``PreparedData(out, h=h, abar=abar)``.  ``dense`` writes out an
interference map's H.
"""
import numpy as np

from bnpolicy import PreparedData
from bnpolicy.alearn import _iv_system


def dense(h) -> np.ndarray:
    """H of the interference map ``h`` as a dense array: ``h.h`` itself for a
    dense map, a new array for a sparse one."""
    if not h.sparse:
        return h.h
    out = np.zeros(h.shape)
    out[h.rows, h.cols] = h.data
    return out


def q_design(out, abar, spec):
    """(D = [F0 | abar * FA], FA) for a supplied exposure, as either fit builds them."""
    return PreparedData(out, abar=abar).design(spec.basis_f0, spec.basis_fa)


def q_score_norm(fit, out, abar) -> float:
    """Max-norm of design' residuals; small at any proper least-squares solution."""
    design, _ = q_design(out, abar, fit.spec)
    return float(np.max(np.abs(design.T @ (out.y - design @ fit.theta))))


def a_system(out, h, abar, abar_hat, spec):
    """Mean-form linear system M theta = rhs: M = Z^T D / n, rhs = Z^T y / n."""
    d, z, _ = _iv_system(PreparedData(out, h=h, abar=abar), abar_hat, spec)
    return z.T @ d / out.n, z.T @ out.y / out.n


def a_equations(out, h, abar, abar_hat, spec, alpha, beta) -> np.ndarray:
    """Averaged estimating equations Z^T (y - D theta) / n; zero at the fit."""
    d, z, _ = _iv_system(PreparedData(out, h=h, abar=abar), abar_hat, spec)
    return z.T @ (out.y - d @ np.concatenate([alpha, beta])) / out.n
