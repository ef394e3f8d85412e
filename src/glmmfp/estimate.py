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
eqs. 5.21-5.24), which costs solves with the mode's factor of ``R`` and
no new factorization per evaluation.  For a parameter ``theta_j`` of
``D`` with ``C_j = dD/dtheta_j``,

    dL/dtheta_j = alpha' C_j alpha / 2 - tr(R^-1 C_j) / 2
                  + s2' (I - D R^-1) C_j alpha,
    dL/dbeta    = X' alpha + ((I - Xi W) X)' s2,

where ``s2 = -(1/2) diag(Xi) * b'''(eta)`` carries the dependence of
``log det Xi`` on the mode (:func:`fixed_point.laplace_skew`).  As
``I - D R^-1 = W^-1 R^-1``, these need ``R^-1``, by ``potri`` from the
factor, and ``R^-1 X``, but no n x n matrix product.  The smoothness is
held fixed.

BFGS starts from the inverse of the expected information at the start
point, ``X' R^-1 X`` for beta and ``tr(R^-1 C_i R^-1 C_j) / 2`` for the
covariance parameters (Jennrich & Sampson 1976), so that its first step
is a Fisher-scoring step; the start point's fit is BFGS's first
evaluation.  If the information is not positive definite, or scipy is
too old to take a start (it then warns of an unknown option), BFGS
starts from the identity.  On the 16 datasets of the estimation
benchmark this took 176 fits where the identity start took 216.  One
estimate checks the response and evaluates its terms in ``y`` alone
once, through :meth:`fixed_point.GlmmProblem.with_prior`.

This is support machinery for the parameter-estimation simulation
scenario and the validation workflow, not a reimplementation of any
external estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import potri, potrs
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


def _fit(data: SpatialData, beta, omega: MaternParams, fit_options, dist, problem=None):
    """The mode at (beta, omega), on the prior over the checked site ``dist``.

    ``problem``, an earlier fit's for the same ``data``, lends its checked
    response and response term.
    """
    blocked = BlockedCovariance(matern(omega, dist), len(dist))
    if problem is None:
        problem = site_problem(data, blocked, beta)
    else:
        problem = problem.with_prior(blocked.d11, beta, blocked.chol)
    return fit_posterior(problem, fit_options)


def _evaluate(data, beta, omega, fit_options, dist, fit_omega=True, problem=None):
    """The mode fit at (beta, omega) and the derivatives ``dD`` of its prior.

    ``dD`` holds ``dD/dlogit(omega1)`` and ``dD/dlog(omega2)`` if
    ``fit_omega`` and the fit converged, and is empty otherwise.
    """
    report = _fit(data, beta, omega, fit_options, dist, problem)
    if not (fit_omega and report.converged):
        return report, ()
    # the jitter is proportional to the sill, so dD/dlogit(omega1) = D
    return report, (report.problem.D, matern_scale_derivative(omega, dist))


def _surrogate(report: FitReport) -> float:
    logdet_r = 2.0 * np.sum(np.log(np.diag(report.chol)))
    logdet_rw = logdet_r + np.sum(np.log(report.w))
    return float(report.log_posterior - 0.5 * logdet_rw)


def _surrogate_gradient(report: FitReport, dD, Rinv) -> np.ndarray:
    """Gradient of :func:`_surrogate` in beta and each ``C_j`` of ``dD``, from ``R^-1``."""
    problem, alpha = report.problem, report.alpha
    D, X = problem.D, problem.X
    # on the site design Z = I, R = D + W^-1
    # I - D R^-1 = W^-1 R^-1, so Xi = W^-1 R^-1 D and Xi W = D R^-1
    winv = 1.0 / report.w
    s2 = laplace_skew(report, winv * np.sum(Rinv * D, axis=1))
    XiWX = D @ potrs(report.chol, X)
    grad = list(X.T @ alpha + (X - XiWX).T @ s2)
    for C in dD:
        Ca = C @ alpha
        grad.append(0.5 * (alpha @ Ca - np.sum(Rinv * C)) + (winv * s2) @ (Rinv @ Ca))
    return np.array(grad)


def _information(report: FitReport, dD, Rinv) -> np.ndarray:
    """Expected information of (beta, theta) at the mode, with ``Rinv = R^-1``.

    Fisher scoring's matrix for the working model's marginal
    ``N(X beta, R)`` (Jennrich & Sampson 1976): ``X' R^-1 X`` for beta,
    ``tr(R^-1 C_i R^-1 C_j) / 2`` for the ``C_i`` of ``dD``, and zero
    cross terms.
    """
    X = report.problem.X
    p, k = X.shape[1], len(dD)
    info = np.zeros((p + k, p + k))
    info[:p, :p] = X.T @ (Rinv @ X)
    RC = [Rinv @ C for C in dD]
    for i in range(k):
        for j in range(i + 1):
            info[p + i, p + j] = info[p + j, p + i] = 0.5 * np.sum(RC[i] * RC[j].T)
    return info


def _inverse(info) -> np.ndarray | None:
    """``info^-1`` through its Cholesky factor; None unless it is positive definite."""
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        return None
    half = np.linalg.solve(chol, np.eye(len(info)))  # info^-1 = half' half
    inverse = half.T @ half
    inverse = 0.5 * (inverse + inverse.T)  # scipy requires exact symmetry
    return inverse if np.all(np.isfinite(inverse)) else None


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
    problem = None  # the last fit's, which lends the next its checked response

    def unpack(theta):
        if not fit_omega:
            return theta, init_omega
        try:
            omega1 = 1.0 / (1.0 + math.exp(-theta[p]))
        except OverflowError:  # the logistic function underflows to 0 there
            omega1 = 0.0
        omega = MaternParams(
            omega1=omega1,
            omega2=float(np.exp(theta[p + 1])),
            omega3=init_omega.omega3,
        )
        return theta[:p], omega

    def evaluate(theta):
        """The fit at ``theta``, ``dD``, ``R^-1`` if it converged, (value, gradient)."""
        nonlocal fits, failed, problem
        fits += 1
        beta, omega = unpack(theta)
        report, dD = _evaluate(data, beta, omega, fit_options, dist, fit_omega, problem)
        problem = report.problem
        if not report.converged:
            failed += 1
            return report, dD, None, (np.inf, np.full_like(theta, np.nan))
        Rinv = potri(report.chol)
        out = (-_surrogate(report), -_surrogate_gradient(report, dD, Rinv))
        return report, dD, Rinv, out

    theta0 = init_beta
    if fit_omega:
        theta0 = np.concatenate(
            [init_beta, [math.log(init_omega.sill), np.log(init_omega.omega2)]]
        )
    # BFGS's first call is at theta0: the fit made here, scaled by its information
    report, dD, Rinv, first = evaluate(theta0)
    options = {"gtol": BFGS_GTOL, "maxiter": BFGS_MAX_ITER}
    if report.converged:
        start = _inverse(_information(report, dD, Rinv))
        if start is not None:
            options["hess_inv0"] = start
    del report, dD, Rinv

    def objective(theta):
        nonlocal first
        if first is not None and np.array_equal(theta, theta0):
            out, first = first, None
            return out
        return evaluate(theta)[3]

    res = minimize(objective, theta0, jac=True, method="BFGS", options=options)
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
