"""Predict random effects and counts at sites that were never observed.

Simulates a latent field jointly over observed and unobserved locations,
fits the observed block, and compares three predictors at the held-out
sites: the fitted spatial predictor, the fixed-effects-only baseline,
and the infeasible conditional-mean predictor that knows the true field.
"""

import numpy as np

from glmmfp import (
    MaternParams,
    SpatialProblem,
    build_blocked,
    conditional_mean,
    fit_predict,
    poisson_kernel,
    rl2,
)

rng = np.random.default_rng(7)

n, n_star = 120, 60
side = 11.0
coords_obs = rng.uniform(0.0, side, size=(n, 2))
coords_new = rng.uniform(0.0, side, size=(n_star, 2))

omega = MaternParams(0.5, 1.0)
blocked = build_blocked(omega, coords_obs, coords_new)

# draw the latent field jointly so the held-out truth is consistent
gamma_all = np.linalg.cholesky(blocked.full) @ rng.standard_normal(n + n_star)
gamma, gamma_star = gamma_all[:n], gamma_all[n:]

beta = np.array([2.0])
X = np.ones((n, 1))
Xstar = np.ones((n_star, 1))
y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)

problem = SpatialProblem(
    y=y, X=X, Xstar=Xstar, blocked=blocked, beta=beta, kernel=poisson_kernel()
)
prediction = fit_predict(problem)
assert prediction.report.converged

print(f"fitted {n} observed sites in {prediction.report.iterations} iterations")
print(f"observed-site  RL2: {rl2(gamma, prediction.report.xi):.4f}")
print(f"held-out-site  RL2: {rl2(gamma_star, prediction.xi_star):.4f}")

# baselines
print(f"zero-predictor RL2: {rl2(gamma_star, np.zeros(n_star)):.4f}")
oracle = conditional_mean(gamma, blocked)
print(f"oracle (true field known) RL2: {rl2(gamma_star, oracle):.4f}")

print("\nsample of predicted counts at new sites:")
for i in range(5):
    print(
        f"  site {i}:  y_hat={prediction.y_hat_star[i]:7.2f}   "
        f"true mean={np.exp(beta[0] + gamma_star[i]):7.2f}"
    )
