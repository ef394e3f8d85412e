"""Fixed-point computation of posterior random-effect moments.

Given a canonical-link mixed model with response ``y``, designs ``X``
and ``Z``, prior covariance ``D``, and known fixed effects ``beta``,
the solver iterates the working linear mixed model update

    xi  <-  D Z' R^-1 (u - X beta),    R = Z D Z' + W^-1,

where ``u`` and ``W`` are the working response and weights evaluated at
the current linear predictor.  The converged ``xi`` satisfies the
fixed-point characterization exactly; the matching covariance is
``Xi = D - D Z' R^-1 Z D``.  For the Gaussian kernel this is the
closed-form conjugate posterior and the iteration converges in one step.

Each iterate does one Cholesky factorization and nothing else of cubic
cost.  On the identity design ``Z = I`` (every spatial caller) the
factored matrix is ``R = D + W^-1``, formed by adding ``1/w`` to a copy
of ``D``'s diagonal, and ``xi = D alpha`` with ``alpha = R^-1 (u - X
beta)``; no ``Z D Z'`` is formed.  The converged iterate's factor and
``alpha`` stay on the :class:`FitState`: ``Xi`` is read off that factor
the first time it is accessed, so callers that only need ``xi`` (or the
prediction ``D21 alpha``) never pay for it.

A dual update in the random-effect dimension (via the Woodbury
identity, ``xi = (D^-1 + Z'WZ)^-1 Z'W(u - X beta)``) is selected
automatically when r is much smaller than n; both paths agree to
numerical precision and are cross-checked in the test suite.

The module also evaluates both sides of the Gaussian factorization
identity

    N(u; a + Xb + Zg, W^-1) N(g; d, D)
        = N(g; v_ad, V) N(u; a + Xb + Zd, R)

which exercises every Woodbury/determinant manipulation the solver
relies on, and is used as a randomized correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import families
from .families import FamilyKernel

_MAX_RESTARTS = 8
_DIVERGE_STREAK = 5


@dataclass(eq=False)
class GlmmProblem:
    """A canonical-link mixed model instance with known fixed effects.

    ``identity_design`` records whether ``Z`` is the n x n identity.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    D: np.ndarray
    beta: np.ndarray
    kernel: FamilyKernel
    identity_design: bool = field(init=False, repr=False)

    def __post_init__(self):
        self.y = families.check_support(self.kernel, self.y)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        n = self.y.shape[0]
        if self.X.shape[0] != n or self.Z.shape[0] != n:
            raise ValueError("design matrices must have one row per observation")
        if self.X.shape[1] != self.beta.shape[0]:
            raise ValueError("beta length must match the fixed-effects design")
        r = self.Z.shape[1]
        if self.D.shape != (r, r):
            raise ValueError("prior covariance must be r x r")
        if not np.allclose(self.D, self.D.T, atol=1e-12):
            raise ValueError("prior covariance must be symmetric")
        try:
            np.linalg.cholesky(self.D)
        except np.linalg.LinAlgError:
            raise ValueError("prior covariance must be positive definite") from None
        Z = self.Z
        self.identity_design = (
            Z.shape == (n, n)
            and bool(np.all(Z.diagonal() == 1.0))
            and np.count_nonzero(Z) == n
        )

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def r(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-10
    max_iter: int = 200
    damping: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")


@dataclass(eq=False)
class FitState:
    """Converged (or last) iterate of the fixed-point solver.

    ``factor`` is the iterate's Cholesky factor (``cho_factor`` form) of
    ``R`` on the primal path or of ``D^-1 + Z'WZ`` on the dual path, and
    ``alpha = R^-1 (u - X beta)``.  ``Xi`` is computed from ``factor`` on
    first access.
    """

    problem: GlmmProblem = field(repr=False)
    xi: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    w: np.ndarray
    alpha: np.ndarray
    factor: tuple = field(repr=False)
    iteration: int
    step_norm: float
    residual: float

    @cached_property
    def Xi(self) -> np.ndarray:
        return _covariance(self.problem, self.factor)


@dataclass(eq=False)
class FitReport:
    converged: bool
    iterations: int
    state: FitState
    trace: list = field(default_factory=list)
    damping_used: float = 1.0
    eta_clamped: bool = False


def _solver_paths(problem: GlmmProblem):
    """Choose the working dimension for the per-iteration linear solve."""
    return 4 * problem.r < problem.n


def _xi_raw(problem: GlmmProblem, u, w):
    """One fixed-point map evaluation: xi_raw = D Z' R^-1 (u - X beta).

    Returns ``(xi_raw, alpha, factor)`` with ``alpha = R^-1 (u - X beta)``
    and the one Cholesky factor the evaluation made.
    """
    resid = u - problem.X @ problem.beta
    Z, D = problem.Z, problem.D
    if _solver_paths(problem):
        # r x r dual path: xi = (D^-1 + Z'WZ)^-1 Z'W resid; by Woodbury
        # R^-1 resid = W (resid - Z xi)
        A = np.linalg.inv(D) + (Z.T * w) @ Z
        cf = cho_factor(A, lower=True)
        xi = cho_solve(cf, Z.T @ (w * resid))
        return xi, w * (resid - Z @ xi), cf
    if problem.identity_design:
        R = D.copy()
        R.flat[:: problem.n + 1] += 1.0 / w
        cf = cho_factor(R, lower=True)
        alpha = cho_solve(cf, resid)
        return D @ alpha, alpha, cf
    R = Z @ D @ Z.T + np.diag(1.0 / w)
    cf = cho_factor(R, lower=True)
    alpha = cho_solve(cf, resid)
    return (D @ Z.T) @ alpha, alpha, cf


def _covariance(problem: GlmmProblem, cf) -> np.ndarray:
    """Xi from the factor ``cf`` that :func:`_xi_raw` returned."""
    D = problem.D
    if _solver_paths(problem):
        Xi = cho_solve(cf, np.eye(problem.r))
    elif problem.identity_design:
        Xi = D - D @ cho_solve(cf, D.T)
    else:
        DZt = D @ problem.Z.T
        Xi = D - DZt @ cho_solve(cf, DZt.T)
    return 0.5 * (Xi + Xi.T)


def _evaluate(problem: GlmmProblem, xi):
    """Working quantities and the fixed-point map at ``xi``.

    Returns ``(eta, u, w, xi_raw, alpha, factor)``.
    """
    eta = problem.X @ problem.beta + problem.Z @ xi
    u = families.working_response(problem.kernel, eta, problem.y)
    _, w = families.mean_and_weight(problem.kernel, eta)
    return (eta, u, w, *_xi_raw(problem, u, w))


def fixed_point_residual(problem: GlmmProblem, xi) -> float:
    """Sup-norm defect of the fixed-point equation at ``xi``."""
    xi = np.asarray(xi, dtype=float)
    raw = _evaluate(problem, xi)[3]
    return float(np.max(np.abs(xi - raw))) if xi.size else 0.0


def _initial_xi(problem: GlmmProblem):
    eta0, w0 = families.initial_eta(problem.kernel, problem.y)
    u0 = families.working_response(problem.kernel, eta0, problem.y)
    return _xi_raw(problem, u0, w0)[0]


def fit_posterior(problem: GlmmProblem, options: FitOptions = FitOptions()) -> FitReport:
    """Run the fixed-point iteration to convergence.

    Starts from the family-specific linear predictor, then repeats the
    working-model update (optionally damped).  Convergence is declared
    when the fixed-point defect drops to ``tol`` in sup-norm; with
    damping 1 this coincides with the step-size criterion.  If the step
    size grows for five consecutive iterations the damping is halved and
    the iteration restarts; exhausting the restarts or the iteration cap
    yields a non-converged report carrying the full trace.
    """
    xi0 = _initial_xi(problem)
    damping = options.damping
    best_report = None
    for _ in range(_MAX_RESTARTS):
        xi = xi0.copy()
        trace = []
        prev_step = np.inf
        streak = 0
        diverged = False
        for t in range(1, options.max_iter + 1):
            eta, u, w, raw, alpha, cf = _evaluate(problem, xi)
            residual = float(np.max(np.abs(xi - raw))) if xi.size else 0.0
            xi_new = (1.0 - damping) * xi + damping * raw
            step = float(np.max(np.abs(xi_new - xi))) if xi.size else 0.0
            trace.append((step, residual))
            if residual <= options.tol:
                state = FitState(
                    problem=problem, xi=xi, eta=eta, u=u, w=w, alpha=alpha,
                    factor=cf, iteration=t, step_norm=step, residual=residual,
                )
                return FitReport(
                    converged=True, iterations=t, state=state,
                    trace=trace, damping_used=damping,
                    eta_clamped=bool(np.max(np.abs(eta)) > families.ETA_CLAMP),
                )
            xi = xi_new
            if step > prev_step:
                streak += 1
                if streak >= _DIVERGE_STREAK:
                    diverged = True
                    break
            else:
                streak = 0
            prev_step = step
        eta, u, w, raw, alpha, cf = _evaluate(problem, xi)
        residual = float(np.max(np.abs(xi - raw))) if xi.size else 0.0
        state = FitState(
            problem=problem, xi=xi, eta=eta, u=u, w=w, alpha=alpha, factor=cf,
            iteration=len(trace), step_norm=trace[-1][0] if trace else 0.0,
            residual=residual,
        )
        report = FitReport(
            converged=False, iterations=len(trace), state=state,
            trace=trace, damping_used=damping,
            eta_clamped=bool(np.max(np.abs(eta)) > families.ETA_CLAMP),
        )
        if best_report is None or residual < best_report.state.residual:
            best_report = report
        if not diverged:
            break
        damping *= 0.5
    return best_report


# ---------------------------------------------------------------------------
# Gaussian factorization identity (randomized linear-algebra oracle)
# ---------------------------------------------------------------------------


def _mvn_logpdf(x, mean, cov) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    cf = cho_factor(cov, lower=True)
    dev = x - mean
    quad = dev @ cho_solve(cf, dev)
    logdet = 2.0 * np.sum(np.log(np.diag(cf[0])))
    return float(-0.5 * (x.size * np.log(2.0 * np.pi) + logdet + quad))


def _identity_args(u, alpha, beta, gamma, delta, X, Z, w, D):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if np.any(w <= 0):
        raise ValueError("working weights must be positive")
    return u, alpha, beta, gamma, delta, X, Z, w, D


def joint_logdensity_direct(u, alpha, beta, gamma, delta, X, Z, w, D) -> float:
    """log N(u; alpha + X beta + Z gamma, W^-1) + log N(gamma; delta, D)."""
    u, alpha, beta, gamma, delta, X, Z, w, D = _identity_args(
        u, alpha, beta, gamma, delta, X, Z, w, D
    )
    mean_u = alpha + X @ beta + Z @ gamma
    return _mvn_logpdf(u, mean_u, np.diag(1.0 / w)) + _mvn_logpdf(gamma, delta, D)


def joint_logdensity_factored(u, alpha, beta, gamma, delta, X, Z, w, D) -> float:
    """Same joint density factored the other way around.

    Evaluates log N(gamma; v_ad, V) + log N(u; alpha + X beta + Z delta, R)
    with R = Z D Z' + W^-1, V = D - D Z' R^-1 Z D, and
    v_ad = delta - D Z' R^-1 (alpha + Z delta) + D Z' R^-1 (u - X beta).
    """
    u, alpha, beta, gamma, delta, X, Z, w, D = _identity_args(
        u, alpha, beta, gamma, delta, X, Z, w, D
    )
    R = Z @ D @ Z.T + np.diag(1.0 / w)
    cf = cho_factor(R, lower=True)
    DZt = D @ Z.T
    V = D - DZt @ cho_solve(cf, DZt.T)
    V = 0.5 * (V + V.T)
    v_ad = (
        delta
        - DZt @ cho_solve(cf, alpha + Z @ delta)
        + DZt @ cho_solve(cf, u - X @ beta)
    )
    mean_u = alpha + X @ beta + Z @ delta
    return _mvn_logpdf(gamma, v_ad, V) + _mvn_logpdf(u, mean_u, R)


def random_identity_instance(rng, n_max=6, r_max=4):
    """Draw a random instance of the factorization identity's arguments."""
    n = int(rng.integers(1, n_max + 1))
    r = int(rng.integers(1, r_max + 1))
    p = int(rng.integers(1, 3))
    A = rng.standard_normal((r, r))
    D = A @ A.T + (0.5 + rng.random()) * np.eye(r)
    return dict(
        u=rng.standard_normal(n),
        alpha=rng.standard_normal(n),
        beta=rng.standard_normal(p),
        gamma=rng.standard_normal(r),
        delta=rng.standard_normal(r),
        X=rng.standard_normal((n, p)),
        Z=rng.standard_normal((n, r)),
        w=rng.uniform(0.2, 5.0, size=n),
        D=D,
    )


def identity_gap(instance) -> float:
    """Absolute difference between the two factorizations of the joint density."""
    return abs(
        joint_logdensity_direct(**instance) - joint_logdensity_factored(**instance)
    )
