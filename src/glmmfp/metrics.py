"""Evaluation metrics: relative squared-error loss and predictive deviance."""

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


def _xlog_ratio(a, b):
    """a log(a / b), taken as 0 where a = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0) / b), 0.0)


def deviance_gof(y_obs, y_hat, trials=None, variance=None) -> float:
    """Deviance goodness-of-fit of predicted responses.

    Poisson, without ``trials`` or ``variance``: 2 sum[y log(y / yhat)
    - (y - yhat)].  Binomial, with the trial counts m: 2 sum[y log(y / yhat)
    + (m - y) log((m - y) / (m - yhat))].  A term is 0 where its count
    (y, or m - y) is 0; predictions must be strictly positive, and below
    m for the binomial.  Gaussian, with the response ``variance``:
    sum (y - yhat)^2 / variance, for any real y and yhat.  Nonnegative.
    """
    y = np.asarray(y_obs, dtype=float)
    mu = np.asarray(y_hat, dtype=float)
    if y.shape != mu.shape:
        raise ValueError("observed and predicted vectors have mismatched shapes")
    if variance is not None:
        if trials is not None:
            raise ValueError("give trial counts or a variance, not both")
        if not variance > 0:
            raise ValueError("variance must be positive")
        return float(np.sum((y - mu) ** 2) / variance)
    if np.any(mu <= 0):
        raise ValueError("predictions must be strictly positive")
    if np.any(y < 0):
        raise ValueError("observed counts must be nonnegative")
    if trials is None:
        return float(2.0 * np.sum(_xlog_ratio(y, mu) - (y - mu)))
    m = np.asarray(trials, dtype=float)
    if m.shape != y.shape:
        raise ValueError("trial counts must match the observed vector")
    if np.any(y > m) or np.any(mu >= m):
        raise ValueError("binomial counts and predictions must stay within the trials")
    return float(2.0 * np.sum(_xlog_ratio(y, mu) + _xlog_ratio(m - y, m - mu)))
