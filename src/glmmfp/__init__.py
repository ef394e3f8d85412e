"""Posterior mode and Laplace covariance of random effects in non-Gaussian mixed models.

Core entry points:

* :func:`glmmfp.fixed_point.fit_posterior` - posterior mode of the random
  effects by Newton's method with step halving, and the Laplace
  covariance at the mode.
* :func:`glmmfp.spatial.fit_predict` - spatial prediction at unobserved
  sites under a blocked Matern prior.
* :mod:`glmmfp.oracle` - brute-force quadrature / importance-sampling
  references and the exactness adjudication.
* :mod:`glmmfp.simulate` - seeded Monte Carlo evaluation harness.
"""

from .covariance import BlockedCovariance, MaternParams, build_blocked, matern
from .families import (
    FamilyKernel,
    binomial_kernel,
    gaussian_kernel,
    poisson_kernel,
)
from .fixed_point import FitOptions, FitReport, GlmmProblem, fit_posterior
from .metrics import deviance_gof, rl2
from .oracle import adjudicate_exactness, moments_importance, moments_quadrature
from .spatial import SpatialData, SpatialProblem, conditional_mean, fit_predict

__all__ = [
    "BlockedCovariance",
    "FamilyKernel",
    "FitOptions",
    "FitReport",
    "GlmmProblem",
    "MaternParams",
    "SpatialData",
    "SpatialProblem",
    "adjudicate_exactness",
    "binomial_kernel",
    "build_blocked",
    "conditional_mean",
    "deviance_gof",
    "fit_posterior",
    "fit_predict",
    "gaussian_kernel",
    "matern",
    "moments_importance",
    "moments_quadrature",
    "poisson_kernel",
    "rl2",
]

__version__ = "0.1.0"
