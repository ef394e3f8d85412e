"""Exponential-family kernels for canonical-link mixed models.

Each kernel supplies the conditional mean ``b'`` and working weight
used by the Newton mode-finder, the full log-likelihood, the family-specific
starting values for the linear predictor and the deviance of predicted
responses, so that no other module branches on the family to choose a
formula.  Poisson (log link) and binomial (logit link) are the count families
of interest; a Gaussian kernel with fixed, known variance is included as the
conjugate case where every downstream quantity has a closed form.

All functions are pure and operate elementwise on numpy arrays, so they
are safe to call concurrently.  The logistic function is numpy's and
log-gamma is ``math.lgamma``, so this module loads no ``scipy.special``.

The count families' means, weights and third derivatives clamp the
predictor to ``+-ETA_CLAMP``, half the log of the largest double, so that
``e^|eta|`` is at most its square root: a mean, a weight, its reciprocal,
their pairwise products and ``y eta - e^eta`` stay finite and nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ETA_CLAMP = 0.5 * math.log(np.finfo(float).max)  # 354.9

POISSON = "poisson"
BINOMIAL = "binomial"
GAUSSIAN = "gaussian"
FAMILIES = (POISSON, BINOMIAL, GAUSSIAN)


@dataclass(frozen=True, eq=False)
class FamilyKernel:
    """Response family with canonical link.

    ``trials`` is required for the binomial family (per-observation trial
    counts, not proportions; empty for no observations) and must be
    absent otherwise.  ``variance`` is the fixed, known error variance of
    the Gaussian family and must be absent otherwise.
    """

    family: str
    trials: np.ndarray | None = None
    variance: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == BINOMIAL:
            if self.trials is None:
                raise ValueError("binomial kernel requires trial counts")
            m = np.asarray(self.trials, dtype=float)
            if m.ndim != 1:
                raise ValueError("trial counts must be a vector")
            if not np.all(np.isfinite(m)) or np.any(m < 1) or np.any(m != np.round(m)):
                raise ValueError("trial counts must be integers >= 1")
            object.__setattr__(self, "trials", m)
        elif self.trials is not None:
            raise ValueError(f"{self.family} kernel must not carry trial counts")
        if self.family == GAUSSIAN:
            if self.variance is None:
                raise ValueError("gaussian kernel requires a variance")
            if not np.isfinite(self.variance) or self.variance <= 0:
                raise ValueError("gaussian variance must be positive and finite")
        elif self.variance is not None:
            raise ValueError(f"{self.family} kernel must not carry a variance")

    @property
    def dispersion(self) -> float:
        """The Gaussian variance; 1 for the count families."""
        return self.variance if self.family == GAUSSIAN else 1.0


def poisson_kernel() -> FamilyKernel:
    return FamilyKernel(POISSON)


def binomial_kernel(trials) -> FamilyKernel:
    return FamilyKernel(BINOMIAL, trials=np.asarray(trials, dtype=float))


def gaussian_kernel(variance: float) -> FamilyKernel:
    return FamilyKernel(GAUSSIAN, variance=float(variance))


def _logistic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p = 1 / (1 + e^-x)`` and ``1 - p`` as ``e^-x p``: ``1 - p`` is 0 past ``x = 37``."""
    t = np.exp(-x)
    p = 1.0 / (1.0 + t)
    return p, t * p


def _log_gamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _clamped(eta) -> tuple[np.ndarray, np.ndarray]:
    """``eta``, checked finite, and ``eta`` clamped to ``+-ETA_CLAMP``."""
    eta = np.asarray(eta, dtype=float)
    if not np.isfinite(eta).all():
        raise ValueError("linear predictor contains non-finite entries")
    return eta, np.minimum(np.maximum(eta, -ETA_CLAMP), ETA_CLAMP)


def check_support(kernel: FamilyKernel, y) -> np.ndarray:
    """Validate that ``y`` lies in the support of the family."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("response contains non-finite entries")
    if kernel.family == POISSON:
        if (y < 0).any() or (y != y.round()).any():
            raise ValueError("poisson response must be nonnegative integer counts")
    elif kernel.family == BINOMIAL:
        if y.shape != kernel.trials.shape:
            raise ValueError("response and trial counts have mismatched length")
        if (y < 0).any() or (y > kernel.trials).any() or (y != y.round()).any():
            raise ValueError("binomial response must be counts in [0, trials]")
    return y


def mean_and_weight(kernel: FamilyKernel, eta) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean b'(eta) and working weight, elementwise.

    For the count families the weight equals the curvature b''(eta); for
    the Gaussian kernel the curvature is 1 and the weight is 1/variance.
    """
    eta, ec = _clamped(eta)
    if kernel.family == POISSON:
        mu = np.exp(ec)
        return mu, mu.copy()
    if kernel.family == BINOMIAL:
        p, q = _logistic(ec)
        return kernel.trials * p, kernel.trials * p * q
    return eta.copy(), np.full_like(eta, 1.0 / kernel.variance)


def score_and_weight(kernel: FamilyKernel, eta, y) -> tuple[np.ndarray, np.ndarray]:
    """The log-likelihood's score ``(y - b'(eta)) / phi`` in ``eta``, and the weight.

    The binomial score is ``y (1 - p) - (m - y) p``, which keeps its digits
    where ``y - m p`` rounds to 0, as ``p`` nears 1 at ``y = m``.
    """
    if kernel.family != BINOMIAL:
        mu, w = mean_and_weight(kernel, eta)
        return (y - mu) / kernel.dispersion, w
    p, q = _logistic(_clamped(eta)[1])
    m = kernel.trials
    return y * q - (m - y) * p, m * p * q


def third_derivative(kernel: FamilyKernel, eta) -> np.ndarray:
    """``b'''(eta)``, the derivative of the working weight, elementwise.

    ``mu`` for Poisson, ``m p (1 - p)(1 - 2p)`` for binomial and 0 for
    the Gaussian kernel, whose weight is constant.  Uses the same clamp
    and ``1 - p`` as :func:`mean_and_weight`.
    """
    eta, ec = _clamped(eta)
    if kernel.family == POISSON:
        return np.exp(ec)
    if kernel.family == BINOMIAL:
        p, q = _logistic(ec)
        return kernel.trials * p * q * (1.0 - 2.0 * p)
    return np.zeros_like(eta)


def initial_eta(kernel: FamilyKernel, y) -> tuple[np.ndarray, np.ndarray]:
    """Family-specific starting linear predictor and starting weights.

    Uses the standard IRLS-style starts: shifted log counts for Poisson,
    empirical logits for binomial, the response itself for Gaussian.  The
    count families' weights are b''(eta0), which the half-count shifts
    keep away from zero.  ``y`` is checked already (:func:`check_support`).
    """
    if kernel.family == POISSON:
        eta0 = np.log(y + 0.5)
        return eta0, y + 0.5
    if kernel.family == BINOMIAL:
        m = kernel.trials
        eta0 = np.log((y + 0.5) / (m - y + 0.5))
        w0 = m * (y + 0.5) * (m - y + 0.5) / (m + 1.0) ** 2
        return eta0, w0
    return y.copy(), np.full_like(y, 1.0 / kernel.variance)


def response_term(kernel: FamilyKernel, y) -> np.ndarray | float:
    """The terms of :func:`log_likelihood` in a checked ``y`` alone, per observation."""
    if kernel.family == POISSON:
        return -_log_gamma(y + 1.0)
    if kernel.family == BINOMIAL:
        m = kernel.trials
        return _log_gamma(m + 1.0) - _log_gamma(y + 1.0) - _log_gamma(m - y + 1.0)
    return -0.5 * np.log(2.0 * np.pi * kernel.variance)


def log_likelihood(kernel: FamilyKernel, eta, y, const=None) -> np.ndarray:
    """Full log-likelihood summed over observations.

    ``eta`` may be a batch of linear predictors with shape (..., n); the
    sum runs over the trailing axis.  A strided trailing axis, such as the
    transpose of an (n, K) array, is summed by adds of contiguous K-vectors,
    the same bits as a contiguous axis for fewer than 8 terms.  Extreme
    predictors map to -inf rather than raising, as the oracles'
    integrands need.  ``const`` is :func:`response_term`
    of a ``y`` already checked, such as a problem's cached one; without
    it ``y`` is checked and the term evaluated here.

    The binomial log-partition ``log(1 + e^eta)`` is taken in the
    ``log1pexp`` form ``max(eta, 0) + log1p(e^-|eta|)`` (Maechler 2012),
    which cannot overflow, with numpy's vectorized ``exp`` and ``log1p``
    in place in one array the size of ``eta``.  It is within 4.1e-16
    relative of ``np.logaddexp(0, eta)``, whose scalar loop costs six
    times as much per predictor.
    """
    eta = np.asarray(eta, dtype=float)
    if const is None:
        y = check_support(kernel, y)
        const = response_term(kernel, y)
    if kernel.family == POISSON:
        terms = y * eta
        with np.errstate(over="ignore"):
            terms -= np.exp(eta)
        terms += const
        return terms.sum(axis=-1)
    if kernel.family == BINOMIAL:
        partition = np.abs(eta)
        np.negative(partition, out=partition)
        np.exp(partition, out=partition)
        np.log1p(partition, out=partition)
        partition += np.maximum(eta, 0.0)
        partition *= kernel.trials
        terms = y * eta
        terms -= partition
        terms += const
        return terms.sum(axis=-1)
    terms = -0.5 * (y - eta) ** 2 / kernel.variance + const
    return terms.sum(axis=-1)


def _xlog_ratio(a, b):
    """a log(a / b), taken as 0 where a = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0) / b), 0.0)


def deviance_gof(kernel: FamilyKernel, y_obs, y_hat) -> float:
    """Deviance goodness-of-fit of the predicted responses ``y_hat``, nonnegative.

    ``y_obs`` is checked by :func:`check_support`.  Poisson: 2 sum[y log(y / yhat)
    - (y - yhat)].  Binomial, with the kernel's trial counts m: 2 sum[y log(y / yhat)
    + (m - y) log((m - y) / (m - yhat))].  A term is 0 where its count (y, or
    m - y) is 0; predictions must be strictly positive, and below m for the
    binomial.  Gaussian: sum (y - yhat)^2 / variance, for any real yhat.
    """
    y = check_support(kernel, y_obs)
    mu = np.asarray(y_hat, dtype=float)
    if y.shape != mu.shape:
        raise ValueError("observed and predicted vectors have mismatched shapes")
    if kernel.family == GAUSSIAN:
        return float(np.sum((y - mu) ** 2) / kernel.variance)
    if np.any(mu <= 0):
        raise ValueError("predictions must be strictly positive")
    if kernel.family == POISSON:
        return float(2.0 * np.sum(_xlog_ratio(y, mu) - (y - mu)))
    m = kernel.trials
    if np.any(mu >= m):
        raise ValueError("binomial predictions must stay within the trials")
    return float(2.0 * np.sum(_xlog_ratio(y, mu) + _xlog_ratio(m - y, m - mu)))
