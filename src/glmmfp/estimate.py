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
such as the ``observed`` sites of a :class:`simulate.SimDataset`.

Fisher scoring maximizes the surrogate over (beta, logit omega1,
log omega2) with its exact gradient (Rasmussen & Williams 2006,
Alg. 5.1, eqs. 5.21-5.24), which costs solves with the mode's factor of
``R`` and no new factorization per fit.  For a parameter ``theta_j`` of
``D`` with ``C_j = dD/dtheta_j``,

    dL/dtheta_j = alpha' C_j alpha / 2 - tr(R^-1 C_j) / 2
                  + s2' (I - D R^-1) C_j alpha,
    dL/dbeta    = X' alpha + ((I - Xi W) X)' s2,

where ``s2 = -(1/2) diag(Xi) * b'''(eta)`` carries the dependence of
``log det Xi`` on the mode (:func:`fixed_point.laplace_skew`).  As
``I - D R^-1 = W^-1 R^-1``, these need ``R^-1``, by ``potri`` from the
factor, and ``R^-1 X``, but no n x n matrix product.  The smoothness is
held fixed.

Each step from the accepted point is ``I^-1 g``, with ``g`` the gradient
and ``I`` the expected information, ``X' R^-1 X`` for beta and
``tr(R^-1 C_i R^-1 C_j) / 2`` for the covariance parameters (Jennrich &
Sampson 1976).  Where ``I`` is not positive definite, each entry of
``g`` is divided by ``I``'s diagonal entry if that is positive: at a
vanishing sill, the covariance block of ``I`` vanishes but beta's stays.
As in the mode-finder, the step is halved until the surrogate does not
fall, and a trial whose mode fit does not converge, or whose parameters
leave :class:`MaternParams`' range, is rejected like one where it falls.
On the 16 datasets of the estimation benchmark this took 179 fits.  One
estimate checks the response and evaluates its terms in ``y`` alone
once, through :meth:`fixed_point.GlmmProblem.with_prior`.

This is support machinery for the parameter-estimation simulation
scenario and the validation workflow, not a reimplementation of any
external estimator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import potri, potrs
from .covariance import (
    BlockedCovariance,
    MaternParams,
    build_blocked,
    matern,
    matern_scale_derivative,
    site_distances,
)
from .fixed_point import _MAX_HALVINGS, FitOptions, FitReport, fit_posterior, laplace_skew
from .spatial import SpatialData, site_problem

log = logging.getLogger(__name__)

SCORING_MAX_ITER = 400
SCORING_GTOL = 1e-5
# the scoring decrement g' I^-1 g / 2 at which the surrogate has no more to
# give, relative to 1 + |value|: the Newton decrement's stop (Boyd &
# Vandenberghe 2004, sec. 9.5.1), with the information for the Hessian
SCORING_DECREMENT = 1e-14


@dataclass(eq=False)
class EstimateResult:
    """Outcome of :func:`estimate`.

    ``fits`` counts the mode fits, one per point tried; ``failed_fits``
    those that did not converge, each a trial the step halving rejected.
    ``optimizer_iterations`` counts the accepted scoring steps, and
    ``report`` is the mode fit at (``beta_hat``, ``omega_hat``).
    """

    beta_hat: np.ndarray
    omega_hat: MaternParams
    objective_value: float
    converged: bool
    optimizer_iterations: int
    fits: int
    failed_fits: int
    report: FitReport


def _fit(
    data: SpatialData, beta, omega: MaternParams, fit_options, dist, problem=None,
    jitters=None,
):
    """The mode at (beta, omega), on the prior over the checked site ``dist``.

    ``problem``, an earlier fit's for the same ``data``, lends its checked
    response and response term; ``jitters``, a list, receives the jitter
    that the prior needed.
    """
    blocked = BlockedCovariance(matern(omega, dist), len(dist))
    if jitters is not None:
        jitters.append(blocked.jitter)
    if problem is None:
        problem = site_problem(data, blocked, beta)
    else:
        problem = problem.with_prior(blocked.d11, beta, blocked.chol)
    return fit_posterior(problem, fit_options)


def _prior_derivatives(problem, omega: MaternParams, dist) -> tuple:
    """``dD/dlogit(omega1)`` and ``dD/dlog(omega2)`` of ``problem``'s prior ``D``."""
    # the jitter is proportional to the sill, so dD/dlogit(omega1) = D
    return problem.D, matern_scale_derivative(omega, dist)


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


def _scoring_step(info, grad) -> np.ndarray:
    """``info^-1 grad`` if ``info`` is positive definite.

    Otherwise each entry of ``grad`` is divided by ``info``'s diagonal
    entry where that is positive.
    """
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        scale = np.diag(info)
        return np.divide(grad, scale, out=grad.copy(), where=scale > 0)
    step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
    return step if np.all(np.isfinite(step)) else grad


def approx_loglik(
    data: SpatialData,
    beta,
    omega: MaternParams,
    fit_options: FitOptions = FitOptions(),
) -> float:
    """Laplace-style marginal log-likelihood surrogate at (beta, omega).

    Returns -inf when the inner mode-finder fails to converge.
    """
    blocked = build_blocked(omega, data.coords)
    report = fit_posterior(site_problem(data, blocked, beta), fit_options)
    return _surrogate(report) if report.converged else -np.inf


def estimate(
    data: SpatialData,
    init_beta,
    init_omega: MaternParams,
    fit_options: FitOptions = FitOptions(),
    fit_omega: bool = True,
) -> EstimateResult:
    """Maximize the surrogate log-likelihood from the given start by Fisher scoring.

    With ``fit_omega=False`` only the fixed effects are estimated and
    the Matern hyperparameters stay at ``init_omega``.  Each scoring step
    is halved until the surrogate does not fall; a trial whose mode fit
    does not converge, or whose parameters leave :class:`MaternParams`'
    range, is rejected.  Scoring stops, converged, once the gradient's sup
    norm is at most ``SCORING_GTOL`` or the scoring decrement
    ``g' step / 2`` is at most ``SCORING_DECREMENT * (1 + |value|)``, and
    unconverged after ``SCORING_MAX_ITER`` steps, when no halving is
    accepted, or when an accepted step leaves the surrogate unchanged.
    Deterministic given the initialization and ``fit_options``.  If trial
    priors needed a jitter, one warning gives the largest and how many
    needed one.
    """
    init_beta = np.atleast_1d(np.asarray(init_beta, dtype=float))
    p = init_beta.shape[0]
    # the sites are checked once; each fit builds its prior from dist
    dist = site_distances(data.coords)
    fits = failed = steps = 0
    jitters = []  # one per trial prior, logged once at the end

    def unpack(theta):
        """``(beta, omega)`` at ``theta``, or None where omega leaves its range."""
        if not fit_omega:
            return theta, init_omega
        try:
            omega1 = 1.0 / (1.0 + math.exp(-theta[p]))
            omega = MaternParams(omega1, math.exp(theta[p + 1]), init_omega.omega3)
        except (OverflowError, ValueError):
            return None
        return theta[:p], omega

    def fit(params, problem=None):
        """The mode fit at ``params`` and its surrogate, -inf unless it converged."""
        nonlocal fits, failed
        fits += 1
        report = _fit(data, *params, fit_options, dist, problem, jitters)
        failed += not report.converged
        return report, _surrogate(report) if report.converged else -np.inf

    theta = init_beta
    if fit_omega:
        theta = np.concatenate(
            [init_beta, [math.log(init_omega.sill), math.log(init_omega.omega2)]]
        )
    params = (init_beta, init_omega)
    report, value = fit(params)
    converged = False
    while report.converged:
        dD = _prior_derivatives(report.problem, params[1], dist) if fit_omega else ()
        Rinv = potri(report.chol)
        grad = _surrogate_gradient(report, dD, Rinv)
        converged = bool(np.max(np.abs(grad)) <= SCORING_GTOL)
        if converged or steps == SCORING_MAX_ITER:
            break
        step = _scoring_step(_information(report, dD, Rinv), grad)
        converged = bool(grad @ step / 2.0 <= SCORING_DECREMENT * (1.0 + abs(value)))
        if converged:
            break
        # the loop holds the accepted fit and one trial, which borrows its problem
        del Rinv, dD
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial_params = unpack(theta + t * step)
            trial = trial_params and fit(trial_params, report.problem)
            if trial and trial[1] >= value:
                break
            trial = None
            t *= 0.5
        else:
            break
        theta, params = theta + t * step, trial_params
        unchanged = trial[1] == value
        report, value = trial
        steps += 1
        if unchanged:
            break
    needed = [j for j in jitters if j]
    if needed:
        log.warning(
            "covariance jitter escalated to %.3e at most, on %d of %d trial priors",
            max(needed), len(needed), fits,
        )
    beta_hat, omega_hat = params
    return EstimateResult(
        beta_hat=beta_hat,
        omega_hat=omega_hat,
        objective_value=value,
        converged=converged,
        optimizer_iterations=steps,
        fits=fits,
        failed_fits=failed,
        report=report,
    )
