"""Newton mode-finder for the random effects of a canonical-link mixed model.

Given response ``y``, designs ``X`` and ``Z``, prior covariance ``D`` and
known fixed effects ``beta``, :func:`fit_posterior` maximizes the
log-posterior

    l(xi) = log f(y | X beta + Z xi) - xi' D^-1 xi / 2

by Newton's method.  Each iterate takes the increment ``Delta = H^-1 g``,
with gradient ``g = Z'(y - mu) / phi - D^-1 xi``, negative Hessian
``H = D^-1 + Z'WZ`` and ``phi`` the family's dispersion, and halves it
until ``l`` does not fall (step halving, as in R's ``glm.fit``).  It
stops when ``Delta`` drops to ``tol`` in sup-norm.  The full step is the
working linear mixed model update of penalized quasi-likelihood,

    xi + Delta  =  D Z' R^-1 (u - X beta),    R = Z D Z' + W^-1,

with working response ``u = eta + (y - mu) / (phi w)``: the mode is that
update's fixed point, ``Delta`` its defect, and ``Xi = H^-1 = D - D Z'
R^-1 Z D`` the Laplace covariance.  The start is one such update at the
family's IRLS predictor, which for the Gaussian kernel is already the
conjugate posterior, so the first iterate confirms it.

The iteration carries ``a = D^-1 xi`` beside ``xi``, so it never
solves with ``D``.  Each iterate does one Cholesky factorization and
nothing else of cubic cost, on one of two paths picked by the design
alone.  The identity design ``Z = I`` (every spatial caller) factors the
n x n ``R = D + W^-1`` in one Fortran-ordered buffer per fit: each
iterate copies ``D.T`` (which is ``D``) into it column by column, adds
``1/w`` to its diagonal, and LAPACK's ``potrf`` overwrites it with the
factor.  It takes ``D^-1 Delta = R^-1 W^-1 g`` and ``eta = X beta + xi``
with no product by ``Z``.  Every other ``Z`` factors the r x r
``H = D^-1 + Z'WZ`` itself, with ``D^-1`` inverted once per problem.
Solves call the factor's ``potrs`` directly, and the log-likelihood's
terms in ``y`` alone are evaluated once per problem.  The last
iterate's factor and ``alpha = a`` stay on the :class:`FitReport`;
``Xi`` is read off the factor on first access, so callers that only
need ``xi`` (or the kriging ``D21 alpha``) never pay for it.

The module also evaluates both sides of the Gaussian factorization
identity

    N(u; a + Xb + Zg, W^-1) N(g; d, D)
        = N(g; v_ad, V) N(u; a + Xb + Zd, R)

which exercises every Woodbury/determinant manipulation the solver
relies on, and is used as a randomized correctness oracle.  Both sides
take leading batch axes, and :func:`identity_gaps` evaluates a suite of
random instances as one padded stack: each instance is padded to the
largest shape a random instance can have, with observations and effects
independent of it, each of which adds the same ``log N(0; 0, 1)`` to
both sides, so padding leaves every instance's gap unchanged up to
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from . import families
from .families import FamilyKernel

# A trial point is accepted when the log-posterior falls by no more than
# this fraction of the size of its parts, which is roundoff.
_SLACK = 1e-12
_MAX_HALVINGS = 40


@dataclass(eq=False)
class GlmmProblem:
    """A canonical-link mixed model instance with known fixed effects.

    ``D`` is checked to be finite, symmetric and positive definite, unless it
    comes with ``D_chol``: a lower Cholesky factor of ``D`` that already
    certifies it, such as the leading block of
    :attr:`covariance.BlockedCovariance.chol` for ``D = d11``.  Without one,
    ``D_chol`` keeps the factor that certified ``D``.
    ``identity_design`` records whether ``Z`` is the n x n identity.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    D: np.ndarray
    beta: np.ndarray
    kernel: FamilyKernel
    identity_design: bool = field(init=False, repr=False)
    D_chol: np.ndarray | None = field(default=None, repr=False)

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
        if self.D_chol is None:
            # the solver factors without checking for non-finite entries
            if not np.all(np.isfinite(self.D)):
                raise ValueError("prior covariance must be finite and positive definite")
            if not np.allclose(self.D, self.D.T, atol=1e-12):
                raise ValueError("prior covariance must be symmetric")
            try:
                self.D_chol = np.linalg.cholesky(self.D)
            except np.linalg.LinAlgError:
                raise ValueError("prior covariance must be positive definite") from None
        elif np.shape(self.D_chol) != (r, r):
            raise ValueError("the factor of the prior covariance must be r x r")
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

    @cached_property
    def precision(self) -> np.ndarray:
        """``D^-1``, inverted once for every iterate of a general design."""
        return np.linalg.inv(self.D)

    @cached_property
    def response_term(self):
        """The log-likelihood's term in ``y`` alone, evaluated once per problem."""
        return families.response_term(self.kernel, self.y)


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")


@dataclass(eq=False)
class FitReport:
    """Last iterate of :func:`fit_posterior`: the mode once it has converged.

    ``factor`` is the iterate's Cholesky factor (``cho_factor`` form) of
    ``R = D + W^-1`` on the identity design or of ``H = D^-1 + Z'WZ``
    for any other design.  ``alpha = D^-1 xi`` is the solver's carried
    prior-precision image of ``xi``, and ``log_posterior`` is
    ``log f(y | eta) - xi' alpha / 2``.  ``Xi`` is computed from ``factor``
    on first access.  ``trace`` holds one ``(step, residual)`` pair per
    iteration: the sup norm of the increment taken and of the full
    Newton increment.  ``halvings`` counts the step halvings over the fit.
    """

    problem: GlmmProblem = field(repr=False)
    xi: np.ndarray
    eta: np.ndarray
    w: np.ndarray
    alpha: np.ndarray
    factor: tuple = field(repr=False)
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
        return _covariance(self.problem, self.factor)


def _factor(problem: GlmmProblem, w, buf=None):
    """The one Cholesky factor of an iterate with working weights ``w``.

    ``R = D + W^-1`` on the identity design, ``H = D^-1 + Z'WZ`` otherwise.
    On the identity design ``buf``, a Fortran-ordered n x n array, takes
    ``D`` by a column-contiguous copy of ``D.T`` (which is ``D``) and is
    overwritten with the factor; without it a new one is allocated.
    """
    if problem.identity_design:
        A = np.empty(problem.D.shape, order="F") if buf is None else buf
        np.copyto(A, problem.D.T)
        A.flat[:: problem.n + 1] += 1.0 / w
    else:
        A = problem.precision + (problem.Z.T * w) @ problem.Z
    return cho_factor(A, lower=True, overwrite_a=True, check_finite=False)


def _solve(cf, b) -> np.ndarray:
    """``A^-1 b`` for ``cf = cho_factor(A)``, by the ``potrs`` of ``cho_solve``."""
    return dpotrs(cf[0], b, lower=cf[1])[0]


def _xi_raw(problem: GlmmProblem, u, w, buf=None):
    """The working-model update xi_raw = D Z' R^-1 (u - X beta).

    Returns ``(xi_raw, alpha, factor)`` with ``alpha = D^-1 xi_raw`` and
    the one Cholesky factor the evaluation made (in ``buf``, if given).
    """
    resid = u - problem.X @ problem.beta
    cf = _factor(problem, w, buf)
    if problem.identity_design:
        alpha = _solve(cf, resid)
        return problem.D @ alpha, alpha, cf
    # xi = H^-1 Z'W resid, so D^-1 xi = Z'W (resid - Z xi)
    Z = problem.Z
    xi = _solve(cf, Z.T @ (w * resid))
    return xi, Z.T @ (w * (resid - Z @ xi)), cf


def _covariance(problem: GlmmProblem, cf) -> np.ndarray:
    """Xi from the factor ``cf`` that :func:`_factor` returned."""
    if problem.identity_design:
        D = problem.D
        Xi = D - D @ _solve(cf, D.T)
    else:
        Xi = _solve(cf, np.eye(problem.r))
    return 0.5 * (Xi + Xi.T)


def _effects(problem: GlmmProblem, xi) -> np.ndarray:
    """``Z xi``: ``xi`` itself on the identity design, with no n x n product."""
    return xi if problem.identity_design else problem.Z @ xi


def _score(problem: GlmmProblem, eta):
    """Score ``(y - mu) / phi`` of the log-likelihood in ``eta``, and ``w``."""
    mu, w = families.mean_and_weight(problem.kernel, eta)
    return (problem.y - mu) / problem.kernel.dispersion, w


def _newton_step(problem: GlmmProblem, eta, a, buf=None):
    """Newton increment at ``eta = X beta + Z xi``, with ``a = D^-1 xi``.

    Returns ``(w, delta, d_delta, factor)``: the working weights,
    ``delta = H^-1 g``, ``d_delta = D^-1 delta`` and the one Cholesky
    factor the evaluation made, in ``buf`` on the identity design.
    """
    s, w = _score(problem, eta)
    cf = _factor(problem, w, buf)
    if problem.identity_design:
        d_delta = _solve(cf, (s - a) / w)  # H^-1 = D R^-1 W^-1
        return w, problem.D @ d_delta, d_delta, cf
    Z = problem.Z
    g = Z.T @ s - a
    delta = _solve(cf, g)
    return w, delta, g - Z.T @ (w * (Z @ delta)), cf


def _log_posterior(problem: GlmmProblem, eta, xi, a) -> float:
    """l = log f(y | eta) - xi' D^-1 xi / 2, with ``a = D^-1 xi``."""
    loglik = families.log_likelihood(
        problem.kernel, eta, problem.y, const=problem.response_term
    )
    return float(loglik - 0.5 * (xi @ a))


def fixed_point_residual(problem: GlmmProblem, xi) -> float:
    """Sup-norm defect of the working-model update at ``xi``.

    This is the target-form defect: the size of the full Newton
    increment, computed through the update ``D Z' R^-1 (u - X beta)``
    rather than the solver's own increment form.  The two forms round
    differently, so on ill-conditioned problems the defect of a fit that
    converged at ``tol`` can exceed ``tol`` (up to 2.97e-10 at the default
    ``tol = 1e-10`` on the 3,000-problem stress battery); it is an
    independent check of the mode, not a certificate of a fit at ``tol``.
    """
    xi = np.asarray(xi, dtype=float)
    eta = problem.X @ problem.beta + _effects(problem, xi)
    s, w = _score(problem, eta)
    raw = _xi_raw(problem, eta + s / w, w)[0]
    return float(np.max(np.abs(xi - raw), initial=0.0))


def _start(problem: GlmmProblem, buf=None):
    """``(xi, D^-1 xi)`` after one update at the family's starting predictor."""
    eta0, w0 = families.initial_eta(problem.kernel, problem.y)
    s0, _ = _score(problem, eta0)
    return _xi_raw(problem, eta0 + s0 / w0, w0, buf)[:2]


def fit_posterior(problem: GlmmProblem, options: FitOptions = FitOptions()) -> FitReport:
    """Find the posterior mode of the random effects by Newton's method.

    Each Newton step is halved until the log-posterior does not fall.
    Converges when the full step drops to ``tol`` in sup-norm.  Running
    out of iterations or of halvings yields a non-converged report at
    the last accepted iterate, carrying the full trace; it never raises.
    On the identity design every factor of the fit is made in one
    buffer, allocated here, and the report keeps the last.
    """
    offset = problem.X @ problem.beta
    buf = np.empty((problem.n, problem.n), order="F") if problem.identity_design else None
    xi, a = _start(problem, buf)
    eta = offset + _effects(problem, xi)
    logpost = _log_posterior(problem, eta, xi, a)
    trace, halvings = [], 0
    while True:
        w, delta, d_delta, cf = _newton_step(problem, eta, a, buf)
        residual = float(np.max(np.abs(delta), initial=0.0))
        converged = residual <= options.tol
        if converged:
            trace.append((residual, residual))
        if converged or len(trace) == options.max_iter:
            break
        # the data terms |y'eta| nearly cancel against the normalizing
        # constants when counts are large, so they set the roundoff too
        data = np.abs(problem.y) @ np.abs(eta) / problem.kernel.dispersion
        floor = logpost - _SLACK * (1.0 + abs(logpost) + 0.5 * (xi @ a) + data)
        t = 1.0
        for k in range(_MAX_HALVINGS + 1):
            xi_t, a_t = xi + t * delta, a + t * d_delta
            eta_t = offset + _effects(problem, xi_t)
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
        xi, a, eta, logpost = xi_t, a_t, eta_t, logpost_t
    return FitReport(
        problem=problem, xi=xi, eta=eta, w=w, alpha=a, factor=cf, log_posterior=logpost,
        residual=residual, converged=converged, trace=trace, halvings=halvings,
        eta_clamped=bool(np.max(np.abs(eta)) > families.ETA_CLAMP),
    )


def laplace_skew(report: FitReport, xi_diag) -> np.ndarray:
    """``s2 = -(1/2) xi_diag * b'''(eta)``, with ``xi_diag = diag(Z Xi Z')``.

    At the mode it is the gradient in ``eta`` of ``(1/2) log det Xi``
    (Rasmussen & Williams 2006, eq. 5.23), the skewness term of both the
    mode -> mean correction and the gradient of the Laplace surrogate.
    """
    b3 = families.third_derivative(report.problem.kernel, report.eta)
    return -0.5 * xi_diag * b3


def corrected_mean(report: FitReport) -> np.ndarray:
    """Leading-order posterior mean ``xi + Xi Z' s2`` from the mode.

    The first term of the Laplace expansion of ``E[xi | y]`` about the
    mode (Tierney & Kadane 1986), with ``s2`` from :func:`laplace_skew`.
    It is exactly ``xi`` for the Gaussian kernel.
    """
    problem, Xi = report.problem, report.Xi
    Z = problem.Z
    xi_diag = Xi.diagonal() if problem.identity_design else np.sum((Z @ Xi) * Z, axis=1)
    return report.xi + Xi @ (Z.T @ laplace_skew(report, xi_diag))


# ---------------------------------------------------------------------------
# Gaussian factorization identity (randomized linear-algebra oracle)
# ---------------------------------------------------------------------------

# the largest observation, random-effect and fixed-effect counts of a
# random instance, which is also the shape :func:`identity_gaps` pads to
IDENTITY_MAX_N = 6
IDENTITY_MAX_R = 4
IDENTITY_MAX_P = 2
_IDENTITY_KEYS = ("u", "alpha", "beta", "gamma", "delta", "X", "Z", "w", "D")


def _mvn_logpdf(x, mean, cov):
    """log N(x; mean, cov) over the last axis; leading axes are a batch."""
    L = np.linalg.cholesky(cov)
    z = np.linalg.solve(L, (x - mean)[..., None])[..., 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * (x.shape[-1] * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=-1))


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


def _matvec(A, x):
    return (A @ x[..., None])[..., 0]


def _batch_result(value):
    """A float for one instance, the array of values for a batch."""
    return float(value) if np.ndim(value) == 0 else value


def joint_logdensity_direct(u, alpha, beta, gamma, delta, X, Z, w, D):
    """log N(u; alpha + X beta + Z gamma, W^-1) + log N(gamma; delta, D).

    Leading axes of the arguments are a batch of instances.
    """
    u, alpha, beta, gamma, delta, X, Z, w, D = _identity_args(
        u, alpha, beta, gamma, delta, X, Z, w, D
    )
    mean_u = alpha + _matvec(X, beta) + _matvec(Z, gamma)
    W_inv = (1.0 / w)[..., None] * np.eye(w.shape[-1])
    return _batch_result(_mvn_logpdf(u, mean_u, W_inv) + _mvn_logpdf(gamma, delta, D))


def joint_logdensity_factored(u, alpha, beta, gamma, delta, X, Z, w, D):
    """Same joint density factored the other way around.

    Evaluates log N(gamma; v_ad, V) + log N(u; alpha + X beta + Z delta, R)
    with R = Z D Z' + W^-1, V = D - D Z' R^-1 Z D, and
    v_ad = delta - D Z' R^-1 (alpha + Z delta) + D Z' R^-1 (u - X beta).
    Leading axes of the arguments are a batch of instances.
    """
    u, alpha, beta, gamma, delta, X, Z, w, D = _identity_args(
        u, alpha, beta, gamma, delta, X, Z, w, D
    )
    DZt = D @ np.swapaxes(Z, -1, -2)
    R = Z @ DZt + (1.0 / w)[..., None] * np.eye(w.shape[-1])
    mean_u = alpha + _matvec(X, beta) + _matvec(Z, delta)
    # R^-1 Z D and R^-1 (u - mean_u) from one solve; _mvn_logpdf's
    # Cholesky factor of R rejects an R that is not positive definite
    rhs = np.concatenate([np.swapaxes(DZt, -1, -2), (u - mean_u)[..., None]], axis=-1)
    sol = np.linalg.solve(R, rhs)
    V = D - DZt @ sol[..., :-1]
    V = 0.5 * (V + np.swapaxes(V, -1, -2))
    v_ad = delta + (DZt @ sol[..., -1:])[..., 0]
    return _batch_result(_mvn_logpdf(gamma, v_ad, V) + _mvn_logpdf(u, mean_u, R))


def random_identity_instance(rng):
    """Draw a random instance of the factorization identity's arguments."""
    n = int(rng.integers(1, IDENTITY_MAX_N + 1))
    r = int(rng.integers(1, IDENTITY_MAX_R + 1))
    p = int(rng.integers(1, IDENTITY_MAX_P + 1))
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


def _stack_instances(instances) -> dict:
    """Pad instances into one batch of shape (IDENTITY_MAX_N, _R, _P).

    Each padded observation has ``w = 1`` and zero ``u``, ``alpha`` and
    rows of ``X`` and ``Z``; each padded effect has a unit block of ``D``
    and zero ``gamma``, ``delta`` and columns of ``Z``.  Both are
    independent of the instance, and each adds ``log N(0; 0, 1)`` to both
    sides of the identity, so the padded gap is the instance's own.  The
    weights are checked on the batch, by the functions it is passed to.
    """
    b, n, r, p = len(instances), IDENTITY_MAX_N, IDENTITY_MAX_R, IDENTITY_MAX_P
    stack = dict(
        u=np.zeros((b, n)), alpha=np.zeros((b, n)), beta=np.zeros((b, p)),
        gamma=np.zeros((b, r)), delta=np.zeros((b, r)), X=np.zeros((b, n, p)),
        Z=np.zeros((b, n, r)), w=np.ones((b, n)), D=np.tile(np.eye(r), (b, 1, 1)),
    )
    for i, instance in enumerate(instances):
        u, alpha, beta, gamma, delta, X, Z, w, D = (
            np.asarray(instance[k], dtype=float) for k in _IDENTITY_KEYS
        )
        fits = X.ndim == Z.ndim == 2
        if fits:
            (ni, pi), ri = X.shape, Z.shape[1]
            fits = (
                ni <= n and ri <= r and pi <= p
                and u.shape == alpha.shape == w.shape == (ni,)
                and beta.shape == (pi,) and gamma.shape == delta.shape == (ri,)
                and Z.shape == (ni, ri) and D.shape == (ri, ri)
            )
        if not fits:
            raise ValueError(
                f"identity instance {i} has inconsistent shapes or exceeds "
                f"(n, r, p) = ({n}, {r}, {p})"
            )
        stack["u"][i, :ni] = u
        stack["alpha"][i, :ni] = alpha
        stack["w"][i, :ni] = w
        stack["beta"][i, :pi] = beta
        stack["gamma"][i, :ri] = gamma
        stack["delta"][i, :ri] = delta
        stack["X"][i, :ni, :pi] = X
        stack["Z"][i, :ni, :ri] = Z
        stack["D"][i, :ri, :ri] = D
    return stack


def identity_gaps(instances) -> np.ndarray:
    """Gap between the two factorizations of the joint density, per instance.

    The instances are padded into one batch (:func:`_stack_instances`)
    and each side of the identity is evaluated once for the whole batch.
    """
    stack = _stack_instances(instances)
    return np.abs(joint_logdensity_direct(**stack) - joint_logdensity_factored(**stack))


def identity_gap(instance) -> float:
    """Absolute difference between the two factorizations of the joint density."""
    return float(identity_gaps([instance])[0])
