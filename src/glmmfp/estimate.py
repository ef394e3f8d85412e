"""Approximate maximum likelihood for fixed effects and Matern hyperparameters.

The marginal log-likelihood of a count SGLMM has no closed form; this
module maximizes the Laplace-style surrogate

    log f(y | xi) + log pi(xi) + (r/2) log 2 pi + (1/2) log det Xi
        = log f(y | xi) - xi' D^-1 xi / 2 - (1/2) log det(R W),

where (xi, Xi) are the posterior mode and Laplace covariance at the
candidate parameters, W the working weights at the mode and
R = D + W^-1 (Rasmussen & Williams 2006, eq. 3.32): as
Xi^-1 = D^-1 R W, the prior's log det D and 2 pi terms cancel.  The
mode-finder's last iterate carries ``alpha = D^-1 xi`` and the
Cholesky factor of ``R``, so an evaluation factors nothing beyond the
fit itself.  For the Gaussian kernel the surrogate equals the exact
marginal normal log-likelihood.  Optimization is derivative-free
(Nelder-Mead) over (beta, logit omega1, log omega2); the smoothness is
held fixed.  This is support machinery for the parameter-estimation
simulation scenario and the validation workflow, not a reimplementation
of any external estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from . import families
from .covariance import MaternParams, build_blocked
from .families import FamilyKernel
from .fixed_point import FitOptions, GlmmProblem, fit_posterior


@dataclass(eq=False)
class SpatialData:
    """Observed sites only: response, fixed-effects design, coordinates."""

    y: np.ndarray
    X: np.ndarray
    coords: np.ndarray
    kernel: FamilyKernel

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        n = self.y.shape[0]
        if self.X.shape[0] != n or self.coords.shape[0] != n:
            raise ValueError("y, X, and coords must agree in length")


@dataclass(frozen=True)
class EstimateOptions:
    max_iter: int = 400
    simplex_tol: float = 1e-6
    fit_options: FitOptions = field(default_factory=FitOptions)


@dataclass(eq=False)
class EstimateResult:
    beta_hat: np.ndarray
    omega_hat: MaternParams
    objective_value: float
    iterations: int
    converged: bool
    sic_failures: int = 0


def _problem(data: SpatialData, beta, omega: MaternParams) -> GlmmProblem:
    blocked = build_blocked(omega, data.coords)
    return GlmmProblem(
        y=data.y,
        X=data.X,
        Z=np.eye(data.y.shape[0]),
        D=blocked.d11,
        beta=np.asarray(beta, dtype=float),
        kernel=data.kernel,
    )


def approx_loglik(
    data: SpatialData,
    beta,
    omega: MaternParams,
    fit_options: FitOptions = FitOptions(),
) -> float:
    """Laplace-style marginal log-likelihood surrogate at (beta, omega).

    Returns -inf when the inner mode-finder fails to converge.
    """
    report = fit_posterior(_problem(data, beta, omega), fit_options)
    if not report.converged:
        return -np.inf
    state = report.state
    loglik = families.log_likelihood(data.kernel, state.eta, data.y)
    logdet_r = 2.0 * np.sum(np.log(np.diag(state.factor[0])))
    logdet_rw = logdet_r + np.sum(np.log(state.w))
    return float(loglik - 0.5 * (state.xi @ state.alpha) - 0.5 * logdet_rw)

def estimate(
    data: SpatialData,
    init_beta,
    init_omega: MaternParams,
    options: EstimateOptions = EstimateOptions(),
    fit_omega: bool = True,
) -> EstimateResult:
    """Maximize the surrogate log-likelihood from the given start.

    With ``fit_omega=False`` only the fixed effects are optimized and
    the Matern hyperparameters stay at ``init_omega``.  Deterministic
    given the initialization and options.
    """
    init_beta = np.atleast_1d(np.asarray(init_beta, dtype=float))
    p = init_beta.shape[0]
    failures = 0

    def unpack(theta):
        beta = theta[:p]
        if fit_omega:
            omega = MaternParams(
                omega1=float(expit(theta[p])),
                omega2=float(np.exp(theta[p + 1])),
                omega3=init_omega.omega3,
            )
        else:
            omega = init_omega
        return beta, omega

    def objective(theta):
        nonlocal failures
        beta, omega = unpack(theta)
        value = approx_loglik(data, beta, omega, options.fit_options)
        if not np.isfinite(value):
            failures += 1
            return 1e12
        return -value

    theta0 = init_beta
    if fit_omega:
        theta0 = np.concatenate(
            [init_beta, [logit(init_omega.omega1), np.log(init_omega.omega2)]]
        )
    res = minimize(
        objective,
        theta0,
        method="Nelder-Mead",
        options={
            "xatol": options.simplex_tol,
            "fatol": 1e-10,
            "maxiter": options.max_iter,
            "maxfev": 4 * options.max_iter,
        },
    )
    beta_hat, omega_hat = unpack(res.x)
    return EstimateResult(
        beta_hat=beta_hat,
        omega_hat=omega_hat,
        objective_value=float(-res.fun),
        iterations=int(res.nit),
        converged=bool(res.success),
        sic_failures=failures,
    )
