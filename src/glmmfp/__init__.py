"""Posterior mode and Laplace covariance of random effects in non-Gaussian mixed models.

Core entry points:

* :func:`glmmfp.fixed_point.fit_posterior` - posterior mode of the random
  effects by Newton's method with step halving, and the Laplace
  covariance at the mode.
* :func:`glmmfp.spatial.krige` - spatial prediction at unobserved sites
  from a fit on the observed sites (:func:`glmmfp.spatial.site_problem`).
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
from .spatial import SpatialData, conditional_mean, krige, site_problem

__all__ = [
    "BlockedCovariance",
    "FamilyKernel",
    "FitOptions",
    "FitReport",
    "GlmmProblem",
    "MaternParams",
    "SpatialData",
    "adjudicate_exactness",
    "binomial_kernel",
    "build_blocked",
    "conditional_mean",
    "deviance_gof",
    "fit_posterior",
    "gaussian_kernel",
    "krige",
    "matern",
    "moments_importance",
    "moments_quadrature",
    "poisson_kernel",
    "rl2",
    "site_problem",
]

__version__ = "0.1.0"
