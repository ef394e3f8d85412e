"""Newton mode-finder for the random effects of a canonical-link mixed model.

Given response ``y``, designs ``X`` and ``Z``, prior covariance ``D`` and
known fixed effects ``beta``, :func:`fit_posterior` maximizes the
log-posterior

    l(xi) = log f(y | X beta + Z xi) - xi' D^-1 xi / 2

by Newton's method.  Each iterate takes the increment ``Delta = H^-1 g``,
with gradient ``g = Z'(y - mu) / phi - D^-1 xi``, negative Hessian
``H = D^-1 + Z'WZ`` and ``phi`` the family's dispersion, and halves it
until ``l`` does not fall (step halving, as in R's ``glm.fit``).  It
stops when ``Delta`` and ``d_b`` (below) drop to ``TOL``, or each to
``ULPS`` of its own iterate, within ``MAX_ITER`` iterates.  The full step is the
working linear mixed model update of penalized quasi-likelihood,

    xi + Delta  =  D Z' R^-1 (u - X beta),    R = Z D Z' + W^-1,

with working response ``u = eta + (y - mu) / (phi w)``: the mode is that
update's fixed point, ``Delta`` its defect, and ``Xi = H^-1 = D - D Z'
R^-1 Z D`` the Laplace covariance.  The start is one such update at a
given predictor or the family's IRLS predictor, which for the Gaussian
kernel is already the conjugate posterior, so the first iterate confirms it.

It is the observation-space form of Newton's method (Rasmussen &
Williams 2006, Alg. 3.1) with prior covariance ``Z D Z'`` of the
predictor, one iterate for every design.  It carries ``b`` with
``D^-1 xi = Z' b``, so it never solves with ``D``: as
``H^-1 Z' = D Z' R^-1 W^-1``, the increment is ``Delta = D Z' d_b`` with
``d_b = R^-1 W^-1 (s - b)`` and score ``s = (y - mu) / phi``.  Each
iterate does one Cholesky factorization, of the n x n ``R``, and nothing
else of cubic cost.  ``Z = None`` is the site design ``Z = I``, one
effect per observation (every spatial caller): it is never formed, and
the products by ``Z`` are skipped.  The log-likelihood's terms in ``y``
alone are evaluated once per problem.  The last iterate's factor and
``alpha = Z' b`` stay on the :class:`FitReport`; ``Xi`` is read off the
factor on first access, so callers that only need ``xi`` (or the
kriging ``D21 alpha``) never pay for it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import families
from ._lapack import potrf, potrs, workspace
from .families import FamilyKernel

# A trial point is accepted when the log-posterior falls by no more than
# this fraction of the size of its parts, which is roundoff.
_SLACK = 1e-12
_MAX_HALVINGS = 40
# steps of at most TOL, or of at most ULPS of their own iterate, have converged
TOL = 1e-10
ULPS = 64 * np.finfo(float).eps
# eta walks about one unit a step through a likelihood's exponential tail and
# is clamped at +-354.9, so this many steps reach any mode the clamp allows
MAX_ITER = 400


@dataclass(eq=False)
class GlmmProblem:
    """A canonical-link mixed model instance with known fixed effects.

    ``D`` is checked to be finite, symmetric and positive definite, unless it
    comes with ``factor``: a lower Cholesky factor of ``D`` that already
    certifies it, such as the leading block of
    :attr:`covariance.BlockedCovariance.chol` for ``D = d11``.  ``D_chol``
    keeps that factor, or else the one ``np.linalg.cholesky`` certified ``D``
    with.  It is no field, so ``dataclasses.replace`` passes on no factor: a
    copy is certified afresh unless its own ``factor`` comes with it.
    ``Z = None`` is the site design ``Z = I``, with ``r = n``, never formed.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray | None
    D: np.ndarray
    beta: np.ndarray
    kernel: FamilyKernel
    factor: InitVar[np.ndarray | None] = None

    def __post_init__(self, factor):
        self.y = families.check_support(self.kernel, self.y)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.Z is not None:
            self.Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        n = self.y.shape[0]
        if self.X.shape[0] != n or (self.Z is not None and self.Z.shape[0] != n):
            raise ValueError("design matrices must have one row per observation")
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if self.X.shape[1] != self.beta.shape[0]:
            raise ValueError("beta length must match the fixed-effects design")
        r = self.r
        if self.D.shape != (r, r):
            raise ValueError("prior covariance must be r x r")
        if factor is None:
            # the solver factors without checking for non-finite entries
            if not np.isfinite(self.D).all():
                raise ValueError("prior covariance must be finite and positive definite")
            if not np.all(np.abs(self.D - self.D.T) <= 1e-12 + 1e-5 * np.abs(self.D.T)):
                raise ValueError("prior covariance must be symmetric")
            try:
                factor = np.linalg.cholesky(self.D)
            except np.linalg.LinAlgError:
                raise ValueError("prior covariance must be positive definite") from None
        elif np.shape(factor) != (r, r):
            raise ValueError("the factor of the prior covariance must be r x r")
        self.D_chol = factor

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def r(self) -> int:
        return self.n if self.Z is None else self.Z.shape[1]

    def effects(self, xi) -> np.ndarray:
        """``Z xi``: ``xi`` itself on the site design, with no n x n product."""
        return xi if self.Z is None else self.Z @ xi

    def adjoint(self, v) -> np.ndarray:
        """``Z' v``: ``v`` itself on the site design, with no n x n product."""
        return v if self.Z is None else self.Z.T @ v

    @cached_property
    def ZDZt(self) -> np.ndarray:
        """``Z D Z'``, the prior covariance of ``Z xi``: ``D`` on the site design."""
        return self.D if self.Z is None else self.effects(self.D) @ self.Z.T

    @cached_property
    def response_term(self):
        """The log-likelihood's term in ``y`` alone, evaluated once per problem."""
        return families.response_term(self.kernel, self.y)


@dataclass(eq=False)
class FitReport:
    """Last iterate of :func:`fit_posterior`: the mode once it has converged.

    ``chol`` is the iterate's Cholesky factor of the n x n
    ``R = Z D Z' + W^-1``.  ``alpha = Z' b = D^-1 xi`` is the
    prior-precision image of ``xi``, and ``log_posterior`` is
    ``log f(y | eta) - xi' alpha / 2``.  ``Xi`` is computed from ``chol``
    on first access.  ``trace`` holds one ``(step, residual)`` pair per
    iteration: the sup norm of the increment taken and of the full
    Newton increment.  ``halvings`` counts the step halvings over the fit.
    """

    problem: GlmmProblem = field(repr=False)
    xi: np.ndarray
    eta: np.ndarray
    w: np.ndarray
    alpha: np.ndarray
    chol: np.ndarray = field(repr=False)
    log_posterior: float
    residual: float
    converged: bool
    trace: list
    halvings: int
    eta_clamped: bool

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @cached_property
    def Xi(self) -> np.ndarray:
        return _covariance(self.problem, self.chol)


def _factor(problem: GlmmProblem, w, buf):
    """An iterate's one factor, of ``R = Z D Z' + W^-1``, made in ``buf``."""
    np.copyto(buf, problem.ZDZt.T)
    buf.flat[:: problem.n + 1] += 1.0 / w
    return potrf(buf)


def _covariance(problem: GlmmProblem, chol) -> np.ndarray:
    """Xi = D - D Z' R^-1 Z D from the factor ``chol`` of ``R``."""
    D = problem.D
    ZD = problem.effects(D)  # D Z' = (Z D)', D being symmetric
    Xi = D - ZD.T @ potrs(chol, ZD)
    return 0.5 * (Xi + Xi.T)


def _newton_step(problem: GlmmProblem, eta, b, buf):
    """Newton increment at ``eta = X beta + Z xi``, with ``D^-1 xi = Z' b``.

    Returns ``(w, delta, d_b, chol)``: the working weights, the
    increments ``delta = D Z' d_b`` of ``xi`` and ``d_b = R^-1 W^-1 (s - b)``
    of ``b``, and the factor of ``R`` made in ``buf``.
    """
    s, w = families.score_and_weight(problem.kernel, eta, problem.y)
    chol = _factor(problem, w, buf)
    d_b = potrs(chol, (s - b) / w)
    return w, problem.D @ problem.adjoint(d_b), d_b, chol


def _log_posterior(problem: GlmmProblem, eta, xi, a) -> float:
    """l = log f(y | eta) - xi' D^-1 xi / 2, with ``a = D^-1 xi``."""
    loglik = families.log_likelihood(
        problem.kernel, eta, problem.y, const=problem.response_term
    )
    return float(loglik - 0.5 * (xi @ a))


def _start(problem: GlmmProblem, buf, eta0):
    """``(xi, b)`` after one update at ``eta0``, or :func:`families.initial_eta`'s if None."""
    if eta0 is None:
        eta0, w0 = families.initial_eta(problem.kernel, problem.y)
        s0 = families.score_and_weight(problem.kernel, eta0, problem.y)[0]
    else:
        s0, w0 = families.score_and_weight(problem.kernel, eta0, problem.y)
    # the working-model update D Z' R^-1 (u - X beta) at u = eta0 + s0 / w0; D^-1 xi = Z' b
    b = potrs(_factor(problem, w0, buf), eta0 + s0 / w0 - problem.X @ problem.beta)
    return problem.D @ problem.adjoint(b), b


def fit_posterior(problem: GlmmProblem, buf=None, eta0=None) -> FitReport:
    """Find the posterior mode of the random effects by Newton's method.

    Each Newton step is halved until the log-posterior does not fall.
    Converges when the full steps of ``xi`` (``residual``) and of ``b``
    drop to ``TOL`` in sup-norm, so ``TOL`` bounds the last step of the
    mode and of ``alpha = Z' b``: under a small sill the step ``D Z' d_b``
    of ``xi`` is tiny while ``d_b`` is not.  Steps within ``ULPS`` of their
    own iterate also converge, as at any scale of the response and the prior
    roundoff can exceed ``TOL``.  Running out of the ``MAX_ITER`` iterations
    or of halvings yields a non-converged report at the last accepted
    iterate, carrying the full trace; it never raises.
    Every factor of the fit is made in one n x n buffer, ``buf``
    (:func:`_lapack.workspace`), such as an earlier report's ``chol``, and
    the report keeps the last.
    The fit starts with one working update at ``eta0``, such as a nearby
    prior's mode, by default at the family's IRLS predictor: the start
    changes the path to the mode, not the mode beyond the stop.
    """
    buf = workspace(buf, (problem.n, problem.n))
    offset = problem.X @ problem.beta
    xi, b = _start(problem, buf, eta0)
    a = problem.adjoint(b)
    eta = offset + problem.effects(xi)
    logpost = _log_posterior(problem, eta, xi, a)
    trace, halvings = [], 0
    while True:
        w, delta, d_b, chol = _newton_step(problem, eta, b, buf)
        residual = float(np.abs(delta).max(initial=0.0))
        step_b = np.abs(d_b).max(initial=0.0)
        converged = bool(max(residual, step_b) <= TOL or (
            residual <= ULPS * np.abs(xi).max(initial=0.0)
            and step_b <= ULPS * np.abs(b).max(initial=0.0)
        ))
        if converged:
            trace.append((residual, residual))
        if converged or len(trace) == MAX_ITER:
            break
        # the data terms |y'eta| nearly cancel against the normalizing
        # constants when counts are large, so they set the roundoff too
        data = np.abs(problem.y) @ np.abs(eta) / problem.kernel.dispersion
        floor = logpost - _SLACK * (1.0 + abs(logpost) + 0.5 * (xi @ a) + data)
        t = 1.0
        for k in range(_MAX_HALVINGS + 1):
            xi_t, b_t = xi + t * delta, b + t * d_b
            a_t = problem.adjoint(b_t)
            eta_t = offset + problem.effects(xi_t)
            logpost_t = _log_posterior(problem, eta_t, xi_t, a_t)
            if logpost_t >= floor:
                break
            t *= 0.5
        else:
            trace.append((0.0, residual))
            halvings += _MAX_HALVINGS + 1
            break
        trace.append((t * residual, residual))
        halvings += k
        xi, b, a, eta, logpost = xi_t, b_t, a_t, eta_t, logpost_t
    return FitReport(
        problem=problem, xi=xi, eta=eta, w=w, alpha=a, chol=chol, log_posterior=logpost,
        residual=residual, converged=converged, trace=trace, halvings=halvings,
        eta_clamped=bool(np.abs(eta).max() > families.ETA_CLAMP),
    )


def laplace_skew(report: FitReport, xi_diag) -> np.ndarray:
    """``s2 = -(1/2) xi_diag * b'''(eta)``, with ``xi_diag = diag(Z Xi Z')``.

    At the mode it is the gradient in ``eta`` of ``(1/2) log det Xi``
    (Rasmussen & Williams 2006, eq. 5.23), the skewness term of both the
    mode -> mean correction and the gradient of the Laplace surrogate.
    """
    b3 = families.third_derivative(report.problem.kernel, report.eta)
    return -0.5 * xi_diag * b3


def laplace_marginal(report: FitReport) -> float:
    """Laplace approximation of the log marginal likelihood at the mode.

    ``log f(y | xi) + log pi(xi) + (r/2) log 2 pi + (1/2) log det Xi``
    is ``log_posterior - (1/2) log det(R W)``, read off the report's
    factor of ``R``: as ``det(I + D Z'WZ) = det(W R)``, the prior's
    ``log det D`` and ``2 pi`` terms cancel (Rasmussen & Williams 2006,
    eq. 3.32).  For the Gaussian kernel it is the exact marginal.
    """
    logdet_r = 2.0 * np.log(report.chol.diagonal()).sum()
    logdet_rw = logdet_r + np.log(report.w).sum()
    return float(report.log_posterior - 0.5 * logdet_rw)


def corrected_mean(report: FitReport) -> np.ndarray:
    """Leading-order posterior mean ``xi + Xi Z' s2`` from the mode.

    The first term of the Laplace expansion of ``E[xi | y]`` about the
    mode (Tierney & Kadane 1986), with ``s2`` from :func:`laplace_skew`.
    It is exactly ``xi`` for the Gaussian kernel.
    """
    problem, Xi = report.problem, report.Xi
    Z = problem.Z
    xi_diag = Xi.diagonal() if Z is None else np.sum(problem.effects(Xi) * Z, axis=1)
    return report.xi + Xi @ problem.adjoint(laplace_skew(report, xi_diag))

