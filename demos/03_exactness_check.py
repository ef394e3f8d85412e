"""Compare the posterior mode against brute-force posterior moments.

The posterior mode can be checked directly at small random-effect
dimension: tensor-product Gauss-Hermite quadrature and elliptical slice
sampling both take the unnormalized posterior with no reference to the
solver, which only places the nodes and starts the chains.  This script runs the comparison on the simplest possible
instance (one Poisson observation, one random effect) and prints the
adjudicated verdict.
"""

import numpy as np

from glmmfp import (
    GlmmProblem,
    adjudicate_exactness,
    fit_posterior,
    moments_quadrature,
    moments_slice,
    poisson_kernel,
)

# one Poisson count y = 2 with a standard normal random-effect prior
problem = GlmmProblem(
    y=np.array([2.0]),
    X=np.zeros((1, 1)),
    Z=np.eye(1),
    D=np.eye(1),
    beta=np.zeros(1),
    kernel=poisson_kernel(),
)

fit = fit_posterior(problem)
print(f"posterior mode:     xi = {fit.xi[0]:.10f}, Xi = {fit.Xi[0, 0]:.10f}")

quad = moments_quadrature(problem, order=128)
print(
    f"quadrature oracle:  mean = {quad.mean[0]:.10f}, "
    f"var = {quad.cov[0, 0]:.10f}  (order-doubling error {quad.error_estimate:.1e})"
)

chains = moments_slice(problem, steps=2_000, seed=0)
print(
    f"slice oracle:       mean = {chains.mean[0]:.10f}, "
    f"var = {chains.cov[0, 0]:.10f}  (between-chain se {chains.error_estimate:.1e})"
)

report = adjudicate_exactness(problem)
print(f"\nmean gap: {report.mean_gap:.3e}")
print(f"cov  gap: {report.cov_gap:.3e}")
print(f"verdict:  {report.verdict}")
print(
    "\nThe solver returns the posterior mode; for a skewed count "
    "posterior the mode and the mean are measurably different, which is "
    "what the gap above quantifies.  The two oracles agree with each "
    "other to within their stated errors, so the gap is real."
)
