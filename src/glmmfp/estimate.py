"""Approximate maximum likelihood for fixed effects and Matern hyperparameters.

The marginal log-likelihood of a count SGLMM has no closed form; this
module maximizes the Laplace-style surrogate

    log f(y | xi) + log pi(xi) + (r/2) log 2 pi + (1/2) log det Xi
        = log f(y | xi) - xi' D^-1 xi / 2 - (1/2) log det(R W),

where (xi, Xi) are the posterior mode and Laplace covariance at the
candidate parameters, W the working weights at the mode and
R = D + W^-1: :func:`fixed_point.laplace_marginal`, which ``verify``
checks against its quadrature.  The mode-finder's last iterate carries
``alpha = D^-1 xi`` and the Cholesky factor of ``R``, so the value
factors nothing beyond the fit itself.  For the Gaussian kernel the
surrogate equals the exact marginal normal log-likelihood.

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
Scoring converges only linearly near the optimum, so once its
decrement ``g' I^-1 g / 2`` is at most ``NEWTON_DECREMENT``, in the pure
Newton phase (Boyd & Vandenberghe 2004, sec. 9.5), the step tried first
is ``J^-1 g``, with ``J`` the observed information of the working model
``N(X beta, R)`` (Jennrich & Sampson 1976; Lindstrom & Bates 1988), if
``J`` is positive definite and the step finite
(:func:`_observed_information`).  A Newton trial that the surrogate
rejects falls back to the scoring step.  As in the mode-finder, that
step is halved until the surrogate does not fall, and a trial whose
mode fit does not converge, or whose parameters leave
:class:`MaternParams`' range, is rejected like one where it falls.  The
stops read the scoring decrement alone.  A step that no halving takes,
or that leaves the surrogate unchanged, has converged if its gain is
below the surrogate's roundoff.  Each trial's mode fit starts from the
accepted fit's predictor (Rasmussen & Williams 2006, Alg. 5.1), so the
estimate's fit is a fixed-parameter fit at its optimum to the mode-finder's
stop, not to the bit.  Every caller starts beta at :func:`initial_beta`.  Each
trial is posed as a new problem by :func:`spatial.site_problem`, as the first
fit is; only the accepted fit's predictor carries over.

This is support machinery for the parameter-estimation simulation
scenario and the validation workflow, not a reimplementation of any
external estimator.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import astuple, dataclass, replace
from functools import partial

import numpy as np

from ._lapack import potri, potrs
from .covariance import (
    BlockedCovariance,
    MaternParams,
    matern,
    matern_scale_derivative,
    site_distances,
)
from .families import check_support, initial_eta
from .fixed_point import _MAX_HALVINGS, FitReport, fit_posterior
from .fixed_point import laplace_marginal, laplace_skew
from .spatial import SpatialData, site_problem

log = logging.getLogger(__name__)

SCORING_MAX_ITER = 400
# the gradient stop also ends a walk toward a boundary where the surrogate keeps
# rising: without it simulate's seed 5, replication 0 (n = 60, n* = 40) took
# omega2 to 9.1e187 and failed with an OverflowError (README, stops)
SCORING_GTOL = 1e-5
# the scoring decrement g' I^-1 g / 2 at which the surrogate has no more to
# give, relative to 1 + |value|: the Newton decrement's stop (Boyd &
# Vandenberghe 2004, sec. 9.5.1), with the information for the Hessian
SCORING_DECREMENT = 1e-14
# trial surrogates scatter by about 2e-13 of their value (the mode fits' TOL): a
# step that stalls has converged if its decrement is this small relative to 1 + |value|
SCORING_RESOLUTION = 1e-12
# the scoring decrement at which the Newton step J^-1 g is tried first: the pure
# Newton phase (Boyd & Vandenberghe 2004, sec. 9.5); far from the optimum the
# observed information J can send the first step out to a vanishing scale
NEWTON_DECREMENT = 0.1
# the nearest-neighbour correlation below which a converged estimate is checked
# against the limit omega2 -> inf: in simulate at n = 60, n* = 40 (seeds 3, 5, 7,
# 11) the one boundary estimate read 1.3e-5, the 23 others 0.42-0.95
BOUNDARY_CORRELATION = 1e-4
# the stops at which scoring has converged, not stalled, step_limit or start_failed
CONVERGED_STOPS = ("gradient", "decrement", "resolution", "boundary")


@dataclass(eq=False)
class EstimateResult:
    """Outcome of :func:`estimate`.

    ``fits`` counts the mode fits, one per point tried; ``failed_fits``
    those that did not converge, each a trial the step halving rejected.
    ``optimizer_iterations`` counts the accepted steps, ``newton_steps``
    those that were Newton steps, and ``report`` is the mode fit at
    (``beta_hat``, ``omega_hat``).  ``stop`` names how scoring stopped:
    converged at the ``gradient``, ``decrement`` or ``resolution`` stop, or
    at one of them on the ``boundary`` ``omega2 -> inf`` (one more fit, at
    the limit prior ``sill * I``, reached the surrogate), or not, ``stalled``
    (no halving raised the surrogate, or one left it unchanged, above the
    resolution), at the ``step_limit`` or with ``start_failed`` (the first
    mode fit did not converge).  ``converged`` is read off ``stop``.
    """

    beta_hat: np.ndarray
    omega_hat: MaternParams
    objective_value: float
    optimizer_iterations: int
    newton_steps: int
    stop: str
    fits: int
    failed_fits: int
    report: FitReport

    @property
    def converged(self) -> bool:
        """Whether scoring stopped at one of :data:`CONVERGED_STOPS`."""
        return self.stop in CONVERGED_STOPS

    @property
    def record(self) -> dict:
        """The outcome in JSON types, as ``fit`` and ``sic_estimated`` records hold it."""
        return {
            "beta_hat": [float(b) for b in self.beta_hat],
            "omega_hat": list(astuple(self.omega_hat)),
            "objective": self.objective_value,
            "optimizer_converged": self.converged,
            "optimizer_iterations": self.optimizer_iterations,
            "newton_steps": self.newton_steps,
            "stop": self.stop,
            "fits": self.fits,
            "failed_fits": self.failed_fits,
        }

    def check_converged(self):
        """Raise ``RuntimeError``, naming the stop, steps and fits, unless it converged."""
        if not self.converged:
            raise RuntimeError(
                f"the estimate did not converge (stop: {self.stop}) in "
                f"{self.optimizer_iterations} scoring steps and {self.fits} fits"
            )


def _fit(data: SpatialData, beta, omega: MaternParams, dist, accepted, jitters):
    """The mode at (beta, omega), on the prior over the checked site ``dist``.

    ``accepted``, None or an earlier fit for the same ``data``, starts the fit
    at its mode's predictor; ``jitters``, a list, receives the prior's jitter.
    """
    source = partial(matern, omega, dist)  # writes the prior again in a jitter retry
    blocked = BlockedCovariance(source(), len(dist), source)
    jitters.append(blocked.jitter)
    eta0 = None if accepted is None else accepted.eta
    return fit_posterior(site_problem(data, blocked, beta), eta0=eta0)


def _prior_derivatives(problem, omega: MaternParams, dist) -> tuple:
    """``dD/dlogit(omega1)`` and ``dD/dlog(omega2)`` of ``problem``'s prior ``D``."""
    # the jitter is proportional to the sill, so dD/dlogit(omega1) = D
    return problem.D, matern_scale_derivative(omega, dist)


def _marginal_terms(report: FitReport, dD, Rinv) -> tuple:
    """``(V, R^-1 V, t)`` for the ``C_j`` of ``dD``, with ``Rinv = R^-1``.

    ``V``'s columns are ``C_j alpha`` and ``t_j = tr(R^-1 C_j)``, each trace
    a sum with no n x n temporary: the gradient and the observed
    information share them.
    """
    alpha = report.alpha
    V = np.empty((alpha.shape[0], len(dD)))
    for j, C in enumerate(dD):
        V[:, j] = C @ alpha
    return V, Rinv @ V, np.array([np.einsum("ij,ij->", Rinv, C) for C in dD])


def _surrogate_gradient(report: FitReport, Rinv, terms) -> np.ndarray:
    """Gradient of :func:`laplace_marginal` in beta and each ``C_j`` of ``dD``,
    from ``Rinv = R^-1`` and ``terms``, :func:`_marginal_terms` of ``dD``."""
    problem, alpha = report.problem, report.alpha
    D, X = problem.D, problem.X
    V, RV, traces = terms
    # on the site design Z = I, R = D + W^-1
    # I - D R^-1 = W^-1 R^-1, so Xi = W^-1 R^-1 D and Xi W = D R^-1
    winv = 1.0 / report.w
    s2 = laplace_skew(report, winv * np.sum(Rinv * D, axis=1))
    XiWX = D @ potrs(report.chol, X)
    grad_beta = X.T @ alpha + (X - XiWX).T @ s2
    grad_theta = 0.5 * (alpha @ V - traces) + (winv * s2) @ RV
    return np.concatenate([grad_beta, grad_theta])


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


def _observed_information(report: FitReport, terms, C22, Rinv, info) -> np.ndarray:
    """Negative Hessian of the working marginal ``N(X beta, R)`` at the mode.

    From the expected information ``info`` and the gradient's
    :func:`_marginal_terms` ``(V, R^-1 V, t)`` of ``dD = (D, C_2)``, with
    ``Rinv = R^-1``: ``J_bb = X' R^-1 X``, ``J_bi = X' R^-1 v_i`` and
    ``J_ij = v_i' R^-1 v_j - info_ij - alpha' C_ij alpha / 2
    + tr(R^-1 C_ij) / 2``, where the sill scales ``D`` and ``C_2``, so
    ``C_11 = D`` and ``C_12 = C_2``.  No n x n array.
    """
    X, alpha = report.problem.X, report.alpha
    V, RV, traces = terms
    p = X.shape[1]
    J = info.copy()
    J[:p, p:] = X.T @ RV
    J[p:, :p] = J[:p, p:].T
    cross = V.T @ RV
    # (i, j, alpha' C_ij alpha, tr(R^-1 C_ij))
    for i, j, aCa, trace in (
        (0, 0, alpha @ V[:, 0], traces[0]),
        (0, 1, alpha @ V[:, 1], traces[1]),
        (1, 1, alpha @ (C22 @ alpha), np.einsum("ij,ij->", Rinv, C22)),
    ):
        J[p + i, p + j] = J[p + j, p + i] = (
            cross[i, j] - info[p + i, p + j] - 0.5 * aCa + 0.5 * trace
        )
    return J


def _solve_pd(matrix, grad):
    """``matrix^-1 grad`` by Cholesky, or None if ``matrix`` is not positive definite."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, grad))


def _scoring_step(info, grad) -> np.ndarray:
    """``info^-1 grad`` if ``info`` is positive definite.

    Otherwise each entry of ``grad`` is divided by ``info``'s diagonal
    entry where that is positive.
    """
    step = _solve_pd(info, grad)
    if step is None:
        scale = np.diag(info)
        return np.divide(grad, scale, out=grad.copy(), where=scale > 0)
    return step if np.all(np.isfinite(step)) else grad


def _nearest_correlation(omega: MaternParams, dist) -> float:
    """``matern(omega, d_min) / sill`` at the least distance ``d_min`` between two sites."""
    d_min = np.where(np.eye(len(dist), dtype=bool), np.inf, dist).min()
    return matern(omega, d_min) / omega.sill


def approx_loglik(data: SpatialData, beta, omega: MaternParams) -> float:
    """The Laplace surrogate at (beta, omega), -inf unless the mode fit converged:
    the value of :func:`estimate`'s first fit from there, with no jitter logged."""
    report = _fit(data, beta, omega, site_distances(data.coords), None, [])
    return laplace_marginal(report) if report.converged else -np.inf


def initial_beta(data: SpatialData) -> np.ndarray:
    """Least squares of :func:`families.initial_eta` of the checked response on ``X``."""
    eta0, _ = initial_eta(data.kernel, check_support(data.kernel, data.y))
    return np.linalg.lstsq(data.X, eta0, rcond=None)[0]


def estimate(
    data: SpatialData,
    init_beta,
    init_omega: MaternParams,
    *,
    fit_omega: bool = True,
) -> EstimateResult:
    """Maximize the surrogate log-likelihood from the given start by Fisher scoring.

    ``init_beta`` None starts beta at :func:`initial_beta`, as the CLI and
    ``simulate`` do.  With ``fit_omega=False`` only the fixed effects are
    estimated and the Matern hyperparameters stay at ``init_omega``.  Once
    the scoring decrement is at most ``NEWTON_DECREMENT``, a Newton step is
    tried first where the Matern hyperparameters are estimated; with them
    fixed, ``J`` is ``I``.  Each scoring step is halved until the surrogate
    does not fall; a trial whose mode fit does not converge, or whose
    parameters leave :class:`MaternParams`' range, is rejected, and each
    counts as a fit.  Scoring stops, converged, once the gradient's sup norm
    is at most ``SCORING_GTOL`` or the scoring decrement ``g' step / 2`` is
    at most ``SCORING_DECREMENT * (1 + |value|)``, and unconverged after
    ``SCORING_MAX_ITER`` steps.  Where no halving is accepted, or an
    accepted step leaves the surrogate unchanged, it stops converged if the
    decrement is at most ``SCORING_RESOLUTION * (1 + |value|)``;
    :attr:`EstimateResult.stop` names the stop, ``boundary`` where
    independent effects do as well as the estimated hyperparameters.
    Deterministic given the initialization.  If trial
    priors needed a jitter, one warning gives the largest and how many
    needed one.
    """
    if init_beta is None:
        init_beta = initial_beta(data)
    init_beta = np.atleast_1d(np.asarray(init_beta, dtype=float))
    p = init_beta.shape[0]
    # the sites are checked once; each fit builds its prior from dist
    dist = site_distances(data.coords)
    fits = failed = steps = newton_steps = 0
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

    def fit(params, accepted=None):
        """The mode fit at ``params`` and its surrogate, -inf unless it converged."""
        nonlocal fits, failed
        fits += 1
        report = _fit(data, *params, dist, accepted, jitters)
        failed += not report.converged
        return report, laplace_marginal(report) if report.converged else -np.inf

    theta = init_beta
    if fit_omega:
        theta = np.concatenate(
            [init_beta, [math.log(init_omega.sill), math.log(init_omega.omega2)]]
        )
    params = (init_beta, init_omega)
    report, value = fit(params)
    stop = "start_failed"
    while report.converged:
        dD = _prior_derivatives(report.problem, params[1], dist) if fit_omega else ()
        Rinv = potri(report.chol)
        terms = _marginal_terms(report, dD, Rinv)
        grad = _surrogate_gradient(report, Rinv, terms)
        stop = "gradient" if np.max(np.abs(grad)) <= SCORING_GTOL else "step_limit"
        if stop == "gradient" or steps == SCORING_MAX_ITER:
            break
        info = _information(report, dD, Rinv)
        step = _scoring_step(info, grad)
        decrement, scale = grad @ step / 2.0, 1.0 + abs(value)
        if decrement <= SCORING_DECREMENT * scale:
            stop = "decrement"
            break
        # the stop should this step stall; the next pass sets it afresh
        stop = "resolution" if decrement <= SCORING_RESOLUTION * scale else "stalled"
        newton = None
        if fit_omega and decrement <= NEWTON_DECREMENT:
            C22 = matern_scale_derivative(params[1], dist, second=True)
            newton = _solve_pd(_observed_information(report, terms, C22, Rinv, info), grad)
            del C22
        # the loop holds the accepted fit and one trial, which starts from it
        del Rinv, dD, terms
        # a Newton trial first near the optimum, then the scoring step and its halvings
        moves = (step * 0.5**k for k in range(_MAX_HALVINGS + 1))
        if newton is not None and np.all(np.isfinite(newton)):
            moves = itertools.chain([newton], moves)
        for move in moves:
            trial_params = unpack(theta + move)
            trial = trial_params and fit(trial_params, report)
            if trial and trial[1] >= value:
                break
        else:
            break
        theta, params = theta + move, trial_params
        newton_steps += move is newton
        unchanged = trial[1] == value
        report, value = trial
        steps += 1
        if unchanged:
            break
    if stop in CONVERGED_STOPS and fit_omega and (
        _nearest_correlation(params[1], dist) < BOUNDARY_CORRELATION
    ):
        # the limit omega2 -> inf, independent effects: prior sill * I, factor sqrt(sill) I
        eye, sill = np.eye(len(dist)), params[1].sill
        limit = replace(
            report.problem, D=sill * eye, beta=params[0], factor=math.sqrt(sill) * eye
        )
        edge = fit_posterior(limit, eta0=report.eta)
        fits += 1
        failed += not edge.converged
        floor = value - SCORING_RESOLUTION * (1.0 + abs(value))
        if edge.converged and laplace_marginal(edge) >= floor:
            stop = "boundary"
    needed = [j for j in jitters if j]
    if needed:
        log.warning(
            "covariance jitter escalated to %.3e at most, on %d of %d trial priors",
            max(needed), len(needed), len(jitters),
        )
    beta_hat, omega_hat = params
    return EstimateResult(
        beta_hat=beta_hat,
        omega_hat=omega_hat,
        objective_value=value,
        optimizer_iterations=steps,
        newton_steps=newton_steps,
        stop=stop,
        fits=fits,
        failed_fits=failed,
        report=report,
    )
