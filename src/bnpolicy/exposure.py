"""Exposure mappings: intervention-level treatments to outcome-level doses."""
from __future__ import annotations

import numpy as np

from .data import InterferenceMap
from .errors import DataValidationError


def _check_vector(h: InterferenceMap, v, name, lo, hi, open_interval=False):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != h.j:
        raise DataValidationError(
            f"{name} must have length {h.j} to match the interference map")
    if not np.all(np.isfinite(v)):
        raise DataValidationError(f"{name} contains non-finite values")
    if open_interval:
        if np.any(v <= lo) or np.any(v >= hi):
            raise DataValidationError(f"{name} must lie strictly in ({lo}, {hi})")
    elif np.any(v < lo) or np.any(v > hi):
        raise DataValidationError(f"{name} must lie in [{lo}, {hi}]")
    return v


def exposure_map(h: InterferenceMap, a) -> np.ndarray:
    """Weighted exposure per outcome unit: (1/J) sum_j H_ij a_j."""
    a = _check_vector(h, a, "treatments", 0.0, 1.0)
    return h.h @ a / h.j


def expected_exposure(h: InterferenceMap, e) -> np.ndarray:
    """Exposure under propensities instead of realized treatments."""
    e = _check_vector(h, e, "propensities", 0.0, 1.0, open_interval=True)
    return h.h @ e / h.j


def exposure_row_mass(h: InterferenceMap) -> np.ndarray:
    """Per-unit transport mass c_i = (1/J) sum_j H_ij.

    Used as the weighting scalar in the doubly robust estimating
    equation for the treatment-effect coefficients.
    """
    return h.row_sums() / h.j
