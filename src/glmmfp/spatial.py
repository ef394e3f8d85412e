"""Prediction of spatial random effects and responses at unobserved sites.

The observed block of a spatial mixed model (random effect per site,
identity random-effects design) is fitted with the fixed-point solver;
the unobserved-site effects are then read off through the cross
covariance:

    xi* = D21 R11^-1 (u_xi - X beta),   R11 = W_xi^-1 + D11,

evaluated once at the converged observed-block solution.  The solver's
converged iterate already holds ``alpha = R11^-1 (u_xi - X beta)`` from
its one factorization of ``R11``, so the prediction is the product
``D21 alpha`` and does no second factorization.  The predicted
response is b'(X* beta + xi*), and the predicted working response is
X* beta + xi* (zero working residual, as no response exists at the
unobserved sites).  With zero cross covariance this degenerates to the
fixed-effects prediction, and in the noise-free limit to the
conditional-mean (kriging) predictor D21 D11^-1 gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import families
from .covariance import BlockedCovariance
from .families import FamilyKernel
from .fixed_point import FitOptions, FitReport, GlmmProblem, fit_posterior


@dataclass(eq=False)
class SpatialProblem:
    """Observed responses plus unobserved-site designs and blocked prior."""

    y: np.ndarray
    X: np.ndarray
    Xstar: np.ndarray
    blocked: BlockedCovariance
    beta: np.ndarray
    kernel: FamilyKernel

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Xstar = np.asarray(self.Xstar, dtype=float)
        if self.Xstar.size == 0:
            self.Xstar = self.Xstar.reshape(0, self.X.shape[1])
        self.Xstar = np.atleast_2d(self.Xstar)
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        n = self.y.shape[0]
        if self.blocked.n_observed != n:
            raise ValueError("observed covariance block does not match response length")
        if self.blocked.n_unobserved != self.Xstar.shape[0]:
            raise ValueError("unobserved covariance block does not match Xstar")
        if self.Xstar.shape[1] != self.X.shape[1]:
            raise ValueError("X and Xstar must share the fixed-effects dimension")


@dataclass(eq=False)
class SpatialPrediction:
    xi: np.ndarray
    xi_star: np.ndarray
    y_hat_star: np.ndarray
    u_hat_star: np.ndarray
    report: FitReport


def fit_predict(
    problem: SpatialProblem, options: FitOptions = FitOptions()
) -> SpatialPrediction:
    """Fit the observed block and predict effects/responses at new sites."""
    n = problem.y.shape[0]
    glmm = GlmmProblem(
        y=problem.y,
        X=problem.X,
        Z=np.eye(n),
        D=problem.blocked.d11,
        beta=problem.beta,
        kernel=problem.kernel,
    )
    report = fit_posterior(glmm, options)
    state = report.state
    xi_star = problem.blocked.d12.T @ state.alpha
    eta_star = problem.Xstar @ problem.beta + xi_star
    if problem.blocked.n_unobserved:
        y_hat_star, _ = families.mean_and_weight(problem.kernel, eta_star)
    else:
        y_hat_star = np.empty(0)
    return SpatialPrediction(
        xi=state.xi,
        xi_star=xi_star,
        y_hat_star=y_hat_star,
        u_hat_star=eta_star,
        report=report,
    )


def conditional_mean(gamma, blocked: BlockedCovariance) -> np.ndarray:
    """Noise-free predictor D21 D11^-1 gamma at the unobserved sites."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if gamma.shape[0] != blocked.n_observed:
        raise ValueError("gamma length must match the observed block")
    try:
        cf = cho_factor(blocked.d11, lower=True)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("observed covariance block is singular") from None
    return blocked.d12.T @ cho_solve(cf, gamma)
