"""Exponential-family kernels for canonical-link mixed models.

Each kernel supplies the conditional mean ``b'`` and working weight
used by the Newton mode-finder, the full log-likelihood, and the
family-specific starting values for the linear predictor.  Poisson (log
link) and binomial (logit link) are the count families of interest; a
Gaussian kernel with fixed, known variance is included as the conjugate
case where every downstream quantity has a closed form.

All functions are pure and operate elementwise on numpy arrays, so they
are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln

# Linear predictors are clamped to this window before exponentiation for
# the count families, which keeps the means finite and the working
# weights positive.
ETA_CLAMP = 30.0

POISSON = "poisson"
BINOMIAL = "binomial"
GAUSSIAN = "gaussian"
_FAMILIES = (POISSON, BINOMIAL, GAUSSIAN)


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
        if self.family not in _FAMILIES:
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


def _check_finite(eta: np.ndarray) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise ValueError("linear predictor contains non-finite entries")
    return eta


def check_support(kernel: FamilyKernel, y) -> np.ndarray:
    """Validate that ``y`` lies in the support of the family."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite entries")
    if kernel.family == POISSON:
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("poisson response must be nonnegative integer counts")
    elif kernel.family == BINOMIAL:
        if y.shape != kernel.trials.shape:
            raise ValueError("response and trial counts have mismatched length")
        if np.any(y < 0) or np.any(y > kernel.trials) or np.any(y != np.round(y)):
            raise ValueError("binomial response must be counts in [0, trials]")
    return y


def mean_and_weight(kernel: FamilyKernel, eta) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean b'(eta) and working weight, elementwise.

    For the count families the weight equals the curvature b''(eta); for
    the Gaussian kernel the curvature is 1 and the weight is 1/variance.
    """
    eta = _check_finite(eta)
    ec = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
    if kernel.family == POISSON:
        mu = np.exp(ec)
        return mu, mu.copy()
    if kernel.family == BINOMIAL:
        p = expit(ec)
        return kernel.trials * p, kernel.trials * p * (1.0 - p)
    return eta.copy(), np.full_like(eta, 1.0 / kernel.variance)


def third_derivative(kernel: FamilyKernel, eta) -> np.ndarray:
    """``b'''(eta)``, the derivative of the working weight, elementwise.

    ``mu`` for Poisson, ``m p (1 - p)(1 - 2p)`` for binomial and 0 for
    the Gaussian kernel, whose weight is constant.  Uses the same clamp
    as :func:`mean_and_weight`.
    """
    eta = _check_finite(eta)
    ec = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
    if kernel.family == POISSON:
        return np.exp(ec)
    if kernel.family == BINOMIAL:
        p = expit(ec)
        return kernel.trials * p * (1.0 - p) * (1.0 - 2.0 * p)
    return np.zeros_like(eta)


def initial_eta(kernel: FamilyKernel, y) -> tuple[np.ndarray, np.ndarray]:
    """Family-specific starting linear predictor and starting weights.

    Uses the standard IRLS-style starts: shifted log counts for Poisson,
    empirical logits for binomial, the response itself for Gaussian.  The
    count families' weights are b''(eta0), which the half-count shifts
    keep away from zero.
    """
    y = check_support(kernel, y)
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
        return -gammaln(y + 1.0)
    if kernel.family == BINOMIAL:
        m = kernel.trials
        return gammaln(m + 1.0) - gammaln(y + 1.0) - gammaln(m - y + 1.0)
    return -0.5 * np.log(2.0 * np.pi * kernel.variance)


def log_likelihood(kernel: FamilyKernel, eta, y, const=None) -> np.ndarray:
    """Full log-likelihood summed over observations.

    ``eta`` may be a batch of linear predictors with shape (..., n); the
    sum runs over the trailing axis.  Extreme predictors map to -inf
    rather than raising, which is the right behaviour for quadrature and
    importance-sampling integrands.  ``const`` is :func:`response_term`
    of a ``y`` already checked, such as a problem's cached one; without
    it ``y`` is checked and the term evaluated here.
    """
    eta = np.asarray(eta, dtype=float)
    if const is None:
        y = check_support(kernel, y)
        const = response_term(kernel, y)
    if kernel.family == POISSON:
        with np.errstate(over="ignore"):
            terms = y * eta - np.exp(eta) + const
        return np.sum(terms, axis=-1)
    if kernel.family == BINOMIAL:
        terms = y * eta - kernel.trials * np.logaddexp(0.0, eta) + const
        return np.sum(terms, axis=-1)
    terms = -0.5 * (y - eta) ** 2 / kernel.variance + const
    return np.sum(terms, axis=-1)
