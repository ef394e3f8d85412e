"""Fit the posterior random effects of a small spatial count model.

Walks through the basic workflow: build a Matern prior over a handful of
sites, simulate Poisson counts on a latent Gaussian field, then find the
posterior mode with the Newton mode-finder and look at its trace.
"""

import numpy as np

from glmmfp import (
    GlmmProblem,
    MaternParams,
    build_blocked,
    fit_posterior,
    poisson_kernel,
)

rng = np.random.default_rng(42)

# --- simulate a tiny spatial dataset -----------------------------------
n = 15
coords = rng.uniform(0.0, 6.0, size=(n, 2))
omega = MaternParams(0.5, 1.0)          # exponential covariance, sill 1
blocked = build_blocked(omega, coords)

gamma = blocked.chol @ rng.standard_normal(n)   # the prior's own factor
beta = np.array([1.2])
X = np.ones((n, 1))
y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)
print("observed counts:", y.astype(int))

# --- fit ---------------------------------------------------------------
problem = GlmmProblem(
    y=y, X=X, Z=np.eye(n), D=blocked.d11, beta=beta, kernel=poisson_kernel()
)
report = fit_posterior(problem)

print(f"\nconverged: {report.converged} in {report.iterations} iterations"
      f" ({report.halvings} step halvings)")
print("iteration trace (step taken, full Newton step):")
for t, (step, newton) in enumerate(report.trace, start=1):
    print(f"  {t:3d}  step={step:.3e}  newton={newton:.3e}")

# --- inspect the answer ------------------------------------------------
print("\nposterior mode vs simulated truth (first 5 sites):")
for i in range(5):
    print(f"  site {i}:  xi={report.xi[i]:+.4f}   gamma={gamma[i]:+.4f}")

sd = np.sqrt(np.diag(report.Xi))
inside = np.mean(np.abs(report.xi - gamma) < 2 * sd)
print(f"\nfraction of sites within 2 Laplace sd of the truth: {inside:.2f}")
