"""Evaluation metric ``rl2``; the predictive deviance is :func:`families.deviance_gof`."""

from __future__ import annotations

import numpy as np


def rl2(truth, estimate) -> float:
    """Relative squared-error loss ||truth - estimate||^2 / ||truth||^2."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError("truth and estimate have mismatched shapes")
    denom = float(np.sum(truth**2))
    if denom == 0.0:
        raise ValueError("relative loss undefined for zero-norm truth")
    return float(np.sum((truth - estimate) ** 2) / denom)
