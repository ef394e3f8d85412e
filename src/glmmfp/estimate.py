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
Cholesky factor of ``R``, so the value factors nothing beyond the fit
itself.  For the Gaussian kernel the surrogate equals the exact
marginal normal log-likelihood.

The data are the observed sites alone: a :class:`spatial.SpatialData`,
such as the ``observed`` half of a :class:`spatial.SpatialProblem`.

The optimizer is BFGS over (beta, logit omega1, log omega2) with the
exact gradient of the surrogate (Rasmussen & Williams 2006, Alg. 5.1,
eqs. 5.21-5.24), which costs one solve with the mode's factor of ``R``
per evaluation.  For a parameter ``theta_j`` of ``D`` with
``C_j = dD/dtheta_j``,

    dL/dtheta_j = alpha' C_j alpha / 2 - tr(R^-1 C_j) / 2
                  + s2' (I - D R^-1) C_j alpha,
    dL/dbeta    = X' alpha + ((I - Xi W) X)' s2,

where ``s2 = -(1/2) diag(Xi) * b'''(eta)`` carries the dependence of
``log det Xi`` on the mode (:func:`fixed_point.laplace_skew`).  The
smoothness is held fixed.  This is support machinery for the
parameter-estimation simulation scenario and the validation workflow,
not a reimplementation of any external estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs
from scipy.special import expit, logit

from .covariance import (
    BlockedCovariance,
    MaternParams,
    matern,
    matern_scale_derivative,
    site_distances,
)
from .fixed_point import FitOptions, FitReport, fit_posterior, laplace_skew
from .spatial import SpatialData, site_problem

BFGS_MAX_ITER = 400
BFGS_GTOL = 1e-5


@dataclass(eq=False)
class EstimateResult:
    """Outcome of :func:`estimate`.

    ``fits`` counts the mode fits, one per evaluation of the surrogate;
    ``failed_fits`` those that did not converge, each a trial point the
    line search rejected.  ``optimizer_iterations`` counts BFGS steps.
    """

    beta_hat: np.ndarray
    omega_hat: MaternParams
    objective_value: float
    converged: bool
    optimizer_iterations: int
    fits: int
    failed_fits: int


def _fit(data: SpatialData, beta, omega: MaternParams, fit_options: FitOptions, dist):
    """The mode at (beta, omega), on the prior over the checked site ``dist``."""
    blocked = BlockedCovariance(matern(omega, dist), len(dist))
    problem = site_problem(data, blocked, beta)
    return fit_posterior(problem, fit_options)


def _surrogate(report: FitReport) -> float:
    logdet_r = 2.0 * np.sum(np.log(np.diag(report.factor[0])))
    logdet_rw = logdet_r + np.sum(np.log(report.w))
    return float(report.log_posterior - 0.5 * logdet_rw)


def _surrogate_gradient(report: FitReport, dD) -> np.ndarray:
    """Gradient of :func:`_surrogate` in beta, then in each ``C_j`` of ``dD``."""
    problem, alpha = report.problem, report.alpha
    D, X = problem.D, problem.X
    # the site design Z is the identity, so this is R^-1, by the potrs of cho_solve
    Rinv = dpotrs(report.factor[0], problem.Z, lower=True)[0]
    DRinv = D @ Rinv
    s2 = laplace_skew(report, D.diagonal() - np.sum(DRinv * D, axis=1))
    WX = report.w[:, None] * X
    XiWX = D @ WX - DRinv @ (D @ WX)
    grad = list(X.T @ alpha + (X - XiWX).T @ s2)
    for C in dD:
        Ca = C @ alpha
        grad.append(0.5 * (alpha @ Ca - np.sum(Rinv * C)) + s2 @ (Ca - DRinv @ Ca))
    return np.array(grad)


def _value_and_gradient(data, beta, omega, fit_options, dist, fit_omega=True):
    """Surrogate and its gradient in (beta, logit omega1, log omega2).

    ``dist`` is the site distance matrix; the gradient covers beta alone
    unless ``fit_omega``.  Returns None when the mode fit does not converge.
    """
    report = _fit(data, beta, omega, fit_options, dist)
    if not report.converged:
        return None
    dD = ()
    if fit_omega:
        # the jitter is proportional to the sill, so dD/dlogit(omega1) = D
        dD = (report.problem.D, matern_scale_derivative(omega, dist))
    return _surrogate(report), _surrogate_gradient(report, dD)


def approx_loglik(
    data: SpatialData,
    beta,
    omega: MaternParams,
    fit_options: FitOptions = FitOptions(),
) -> float:
    """Laplace-style marginal log-likelihood surrogate at (beta, omega).

    Returns -inf when the inner mode-finder fails to converge.
    """
    report = _fit(data, beta, omega, fit_options, site_distances(data.coords))
    return _surrogate(report) if report.converged else -np.inf


def estimate(
    data: SpatialData,
    init_beta,
    init_omega: MaternParams,
    fit_options: FitOptions = FitOptions(),
    fit_omega: bool = True,
) -> EstimateResult:
    """Maximize the surrogate log-likelihood from the given start by BFGS.

    With ``fit_omega=False`` only the fixed effects are optimized and
    the Matern hyperparameters stay at ``init_omega``.  A trial point
    whose mode fit does not converge has value +inf in the minimized
    negative surrogate, so the line search backtracks from it.
    BFGS stops after ``BFGS_MAX_ITER`` steps or once the gradient's sup
    norm is below ``BFGS_GTOL``.  Deterministic given the initialization
    and ``fit_options``.
    """
    # deferred: only estimation runs BFGS, so no other command loads scipy.optimize
    from scipy.optimize import minimize

    init_beta = np.atleast_1d(np.asarray(init_beta, dtype=float))
    p = init_beta.shape[0]
    # the sites are checked once; each evaluation builds its prior from dist
    dist = site_distances(data.coords)
    fits = failed = 0

    def unpack(theta):
        if not fit_omega:
            return theta, init_omega
        omega = MaternParams(
            omega1=float(expit(theta[p])),
            omega2=float(np.exp(theta[p + 1])),
            omega3=init_omega.omega3,
        )
        return theta[:p], omega

    def objective(theta):
        nonlocal fits, failed
        fits += 1
        out = _value_and_gradient(data, *unpack(theta), fit_options, dist, fit_omega)
        if out is None:
            failed += 1
            return np.inf, np.full_like(theta, np.nan)
        value, grad = out
        return -value, -grad

    theta0 = init_beta
    if fit_omega:
        theta0 = np.concatenate(
            [init_beta, [logit(init_omega.omega1), np.log(init_omega.omega2)]]
        )
    res = minimize(
        objective,
        theta0,
        jac=True,
        method="BFGS",
        options={"gtol": BFGS_GTOL, "maxiter": BFGS_MAX_ITER},
    )
    beta_hat, omega_hat = unpack(res.x)
    return EstimateResult(
        beta_hat=beta_hat,
        omega_hat=omega_hat,
        objective_value=float(-res.fun),
        converged=bool(res.success),
        optimizer_iterations=int(res.nit),
        fits=fits,
        failed_fits=failed,
    )
