"""Posterior mode and Laplace covariance of random effects in non-Gaussian mixed models.

Core entry points:

* :func:`glmmfp.fixed_point.fit_posterior` - posterior mode of the random
  effects by Newton's method with step halving, and the Laplace
  covariance at the mode.
* :func:`glmmfp.spatial.krige` - spatial prediction at unobserved sites
  from a fit on the observed sites (:func:`glmmfp.spatial.site_problem`).
* :mod:`glmmfp.oracle` - the Gaussian factorization-identity suite,
  brute-force quadrature / elliptical slice sampling references and the
  exactness adjudication: every check ``glmmfp verify`` runs.
* :mod:`glmmfp.simulate` - seeded Monte Carlo evaluation harness.
"""

from .covariance import BlockedCovariance, MaternParams, build_blocked, matern
from .families import (
    FamilyKernel,
    binomial_kernel,
    deviance_gof,
    gaussian_kernel,
    poisson_kernel,
)
from .fixed_point import FitReport, GlmmProblem, fit_posterior
from .metrics import rl2
from .oracle import adjudicate_exactness, moments_quadrature, moments_slice
from .spatial import SpatialData, krige, site_problem

__all__ = [
    "BlockedCovariance",
    "FamilyKernel",
    "FitReport",
    "GlmmProblem",
    "MaternParams",
    "SpatialData",
    "adjudicate_exactness",
    "binomial_kernel",
    "build_blocked",
    "deviance_gof",
    "fit_posterior",
    "gaussian_kernel",
    "krige",
    "matern",
    "moments_quadrature",
    "moments_slice",
    "poisson_kernel",
    "rl2",
    "site_problem",
]

__version__ = "0.1.0"
