"""Brute-force references for the mode-finder, as ``verify`` runs them.

The first is the Gaussian factorization identity

    N(u; a + Xb + Zg, W^-1) N(g; d, D)
        = N(g; v_ad, V) N(u; a + Xb + Zd, R)

with ``R = Z D Z' + W^-1``, which exercises every Woodbury/determinant
manipulation the solver relies on.  Both sides take leading batch axes,
and :func:`identity_gaps` evaluates a suite of instances as one padded
stack, whose one writer is :func:`random_identity_stack`: it draws each
instance in place, padded to the largest shape a random instance can
have, which leaves every instance's gap unchanged up to roundoff.
:func:`identity_max_gap` is ``verify``'s suite.

The second is the posterior moments of the random effects.  Two
independent routes to E(gamma | y) and Cov(gamma | y) take the
unnormalized posterior ``g(gamma) = f(y | gamma) pi(gamma)`` directly,
so they are valid references for the mode-finder: adaptive
Gauss-Hermite quadrature (Liu & Pierce 1994; Pinheiro & Bates 1995) for
r <= 4, which also gives the log marginal likelihood, and elliptical
slice sampling at any r.  The solver output only centers and scales the
nodes and starts the chains.  The nodes go through the Laplace
covariance ``Xi`` around the mode, so the rule's Gaussian weight is
``N(xi, Xi)`` and the integrand over that weight is nearly flat; node
placement affects efficiency, not the value, which the order-doubling
error estimate verifies.

Each piece of quadrature work is done once: the 1-D Gauss-Hermite rule
of an order is built once and shared read-only, and one adjudication
evaluates each order once, although every order's error estimate needs
the half order too.  The integrand and moments are taken in ``x``, where
``gamma = xi + S x`` and ``S = chol(2 Xi)``: no grid of ``gamma`` is
formed.  The center terms, those in ``(xi, Xi)`` alone (``S``, the
prior's ``L^-1 xi`` and ``L^-1 S`` for ``D = L L'``, the predictor
offset ``X beta + Z xi``, ``Z S``, the log-determinant constant and
``log det S``), are made once per adjudication, not once per evaluated
order.  The nodes come in ``itertools.product`` order in blocks of at
most ``QUADRATURE_BLOCK``, a one-block grid built once and shared
read-only.  Each block's normalizer, mean and centred second moment are
merged in order (Chan, Golub & LeVeque 1983), so a call holds
O(B (n + r)) doubles at any order; only a grid of several blocks has
bits that depend on the block size.  Node arrays are node-contiguous:
``x`` is Fortran-ordered, a block's predictor (n, B) and its prior term
(r, B), so each sum over observations or effects is a few adds of
length-B vectors.  Before any node is placed,
``order**r * (n + r)`` is checked against ``QUADRATURE_BUDGET``; a
quadrature over it raises ``CapabilityError`` with the node count.

``adjudicate_exactness`` compares the posterior mode against the
quadrature reference and issues a CONFIRMED / REFUTED / INCONCLUSIVE
verdict with the fixed thresholds ``CONFIRM_FLOOR``, ``CONFIRM_MULT``
and ``REFUTE_MULT``, doubling the quadrature order up to
``MAX_QUADRATURE_ORDER``; :func:`verify_battery` draws the problems
``verify`` adjudicates.  :func:`fixed_point_residual` checks a mode
apart from the solver, with a solve of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import families
from .fixed_point import FitReport, GlmmProblem, fit_posterior, laplace_marginal

QUADRATURE_DIM_LIMIT = 4
# beyond this order the Gauss-Hermite weights underflow double precision
MAX_QUADRATURE_ORDER = 256
# order**r nodes (or slice chains) times (n + r) doubles, 32 MiB at 2**22, the
# size of an unblocked n x K predictor and r x K effects: kept only so that no
# order escalation or verdict moves, as a quadrature holds O(B (n + r)) doubles
QUADRATURE_BUDGET = 2**22
# nodes per block (one order-64 grid at r = 2), at least MAX_QUADRATURE_ORDER; a
# grid of one block keeps the whole-grid sums' bits, a larger one's depend on it
QUADRATURE_BLOCK = 4096
# verdict thresholds of adjudicate_exactness, and the oracle error at which
# it stops doubling the quadrature order
CONFIRM_FLOOR = 1e-6
CONFIRM_MULT = 10.0
REFUTE_MULT = 100.0
ERROR_TARGET = 1e-8
# chains of moments_slice, stepped in lockstep; the first steps // SLICE_BURN_IN
# steps of each are discarded
SLICE_CHAINS = 16
SLICE_BURN_IN = 10


class CapabilityError(RuntimeError):
    """Requested computation exceeds what the method can do reliably."""


@dataclass(eq=False)
class PosteriorMoments:
    """One oracle's posterior mean and covariance.  ``order_or_samples`` is the
    quadrature order or the number of draws kept, and ``error_estimate`` the
    order-halving change of the mean or its largest Monte Carlo standard
    error.  ``log_marginal`` is NaN from the slice sampler, which has none."""

    mean: np.ndarray
    cov: np.ndarray
    log_marginal: float
    method: str
    order_or_samples: int
    error_estimate: float


@dataclass(eq=False)
class ExactnessReport:
    """Sup-norm gaps of ``fit.xi`` and ``fit.Xi`` from the ``oracle`` moments, and
    the fit's :func:`fixed_point.laplace_marginal` minus ``oracle.log_marginal``."""

    mean_gap: float
    cov_gap: float
    marginal_gap: float
    verdict: str
    fit: FitReport
    oracle: PosteriorMoments


class _Center(NamedTuple):
    """The integrand's terms in the center alone, made once per adjudication.

    The nodes are ``gamma = xi + scale x``.  With ``D = L L'``, the prior
    quadratic is ``|m + M x|^2`` with ``m = L^-1 xi`` and ``M = L^-1 scale``;
    the predictor is ``offset + Z scale x``; ``const`` is the prior's
    ``r log 2 pi + log det D`` and ``log_jac`` is ``log det scale``.
    """

    xi: np.ndarray
    scale: np.ndarray
    m: np.ndarray
    M: np.ndarray
    offset: np.ndarray
    Zscale: np.ndarray
    const: float
    log_jac: float


def _center_terms(problem: GlmmProblem, xi, Xi) -> _Center:
    """The terms of the center ``(xi, Xi)``, such as the posterior mode's.

    ``scale = chol(2 Xi)``, so the nodes' Gaussian weight is ``N(xi, Xi)``.
    """
    scale = np.linalg.cholesky(2.0 * Xi)
    L = problem.D_chol
    logdet = 2.0 * np.log(L.diagonal()).sum()
    return _Center(
        xi=xi, scale=scale,
        m=np.linalg.solve(L, xi), M=np.linalg.solve(L, scale),
        offset=problem.X @ problem.beta + problem.effects(xi),
        Zscale=problem.effects(scale),
        const=problem.r * np.log(2.0 * np.pi) + logdet,
        log_jac=np.log(scale.diagonal()).sum(),
    )


def _log_integrand(problem: GlmmProblem, center: _Center, x: np.ndarray) -> np.ndarray:
    """log g(xi + scale x) at standardized points ``x``, shape (K, r) -> (K,)."""
    eta = center.offset[:, None] + center.Zscale @ x.T
    loglik = families.log_likelihood(
        problem.kernel, eta.T, problem.y, const=problem.response_term
    )
    quad = ((center.m[:, None] + center.M @ x.T) ** 2).sum(axis=0)
    logprior = -0.5 * (center.const + quad)
    return loglik + logprior


@functools.lru_cache(maxsize=None)
def _hermite_rule(order: int):
    """Read-only 1-D Gauss-Hermite nodes and log weights of ``order``."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    log_weights = np.log(weights)
    nodes.flags.writeable = log_weights.flags.writeable = False
    return nodes, log_weights


@functools.lru_cache(maxsize=8)
def _node_grid(order: int, r: int):
    """Read-only nodes ``x`` (K, r) and ``base`` = log weight + ``|x|^2`` (K) of
    a one-block grid, K <= ``QUADRATURE_BLOCK``, in itertools.product order."""
    nodes, log_weights = _hermite_rule(order)
    grids = np.indices((order,) * r).reshape(r, -1).T
    x = np.asfortranarray(nodes[grids])
    base = np.sum(log_weights[grids], axis=1) + np.sum(x**2, axis=1)
    x.flags.writeable = base.flags.writeable = False
    return x, base


def _node_blocks(order: int, r: int):
    """The ``order**r`` nodes and bases in itertools.product order, in blocks of
    at most ``QUADRATURE_BLOCK``: :func:`_node_grid`'s one, or rows of the cached
    grid of the last t axes that fit a block, each led by a tuple of the others."""
    t = next(t for t in range(r, 0, -1) if order**t <= QUADRATURE_BLOCK)
    x_tail, base_tail = _node_grid(order, t)
    if t == r:
        yield x_tail, base_tail
        return
    nodes, log_weights = _hermite_rule(order)
    rows, lead = QUADRATURE_BLOCK // len(base_tail), order ** (r - t)
    for i in range(0, lead, rows):
        index = np.array(np.unravel_index(range(i, min(i + rows, lead)), (order,) * (r - t)))
        x_lead = nodes[index]
        x = np.empty((r, index.shape[1], len(base_tail)))
        x[: r - t], x[r - t:] = x_lead[..., None], x_tail.T[:, None]
        base = np.sum(log_weights[index] + x_lead**2, axis=0)
        yield x.reshape(r, -1).T, (base[:, None] + base_tail).ravel()


def _fits_budget(problem: GlmmProblem, order: int) -> bool:
    return order**problem.r * (problem.n + problem.r) <= QUADRATURE_BUDGET


def _check_quadrature(problem: GlmmProblem, order: int) -> None:
    if problem.r > QUADRATURE_DIM_LIMIT:
        raise CapabilityError(f"tensor quadrature limited to r <= {QUADRATURE_DIM_LIMIT}")
    if order < 8:
        raise ValueError("quadrature order must be at least 8")
    if order > MAX_QUADRATURE_ORDER:
        raise ValueError(
            f"quadrature order above {MAX_QUADRATURE_ORDER} underflows "
            "the double-precision node weights"
        )
    if not _fits_budget(problem, order):
        raise CapabilityError(
            f"order {order} in r = {problem.r} needs {order**problem.r} nodes "
            f"x {problem.n + problem.r} values, over the budget of "
            f"{QUADRATURE_BUDGET}; lower the order"
        )


def _gh_raw(problem: GlmmProblem, order: int, center: _Center):
    # the nodes' weight e^{-|x|^2} is N(xi, scale scale' / 2) = N(xi, Xi) in gamma
    log_norm = None
    for x, base in _node_blocks(order, problem.r):
        log_terms = base + _log_integrand(problem, center, x)
        top = log_terms.max()
        if np.isnan(top) or top == np.inf:
            raise FloatingPointError(f"a quadrature node's log term is {top}")
        if top == -np.inf:
            continue
        block_norm = top + np.log(np.exp(log_terms - top).sum())
        p = np.exp(np.subtract(log_terms, block_norm, out=log_terms), out=log_terms)
        block_mean = x.T @ p
        dev = x.T - block_mean[:, None]
        block_cov = (dev * p) @ dev.T
        if log_norm is None:
            log_norm, mean_x, cov_x = block_norm, block_mean, block_cov
        else:  # merge the block's moments into the running ones (Chan et al. 1983)
            total = np.logaddexp(log_norm, block_norm)
            # both shares from the logs: 1 - f would round to eps, times |delta|^2
            f, g = np.exp(block_norm - total), np.exp(log_norm - total)
            delta, log_norm = block_mean - mean_x, total
            mean_x = g * mean_x + f * block_mean
            cov_x = g * cov_x + f * block_cov + (f * g) * np.outer(delta, delta)
    if log_norm is None:
        raise FloatingPointError("all quadrature node weights underflowed")
    scale = center.scale
    cov = scale @ cov_x @ scale.T
    cov = 0.5 * (cov + cov.T)
    return center.xi + scale @ mean_x, cov, float(log_norm + center.log_jac)


def moments_quadrature(problem: GlmmProblem, order: int = 64) -> PosteriorMoments:
    """Gauss-Hermite tensor quadrature posterior moments.

    Nodes are affinely mapped through the Laplace covariance ``Xi`` around
    the posterior mode ``xi``, so the Gauss-Hermite weight becomes
    ``N(xi, Xi)``.
    The error estimate is the sup-norm change of the mean when the order
    is halved.  Raises ``CapabilityError`` for r above
    ``QUADRATURE_DIM_LIMIT`` or a grid over ``QUADRATURE_BUDGET``, before
    anything is fitted or allocated.
    """
    _check_quadrature(problem, order)
    fit = fit_posterior(problem)
    return _quadrature(problem, order, _center_terms(problem, fit.xi, fit.Xi), {})


def _quadrature(problem: GlmmProblem, order: int, center: _Center, evaluated: dict):
    """The moments at ``order`` from the tensor sums of ``order`` and its half.

    ``evaluated`` maps an order to its sums about this ``center``; a
    missing order is evaluated and added.
    """
    for k in (order, order // 2):
        if k not in evaluated:
            evaluated[k] = _gh_raw(problem, k, center)
    mean, cov, logz = evaluated[order]
    err = float(np.abs(mean - evaluated[order // 2][0]).max())
    return PosteriorMoments(
        mean=mean, cov=cov, log_marginal=logz,
        method="gauss_hermite", order_or_samples=order, error_estimate=err,
    )


def moments_slice(problem: GlmmProblem, steps: int = 5_000, seed: int = 0):
    """Posterior moments by elliptical slice sampling (Murray, Adams & MacKay 2010).

    ``SLICE_CHAINS`` chains start at the posterior mode.  Each step draws
    each chain a prior ellipse through its point, ``nu = L z`` for
    ``D = L L'``, and a level under its likelihood, and shrinks the angle
    brackets of the chains below their level as one batch.  The moments
    are running sums over all but the first ``steps // SLICE_BURN_IN``
    steps; the error estimate is the largest between-chain standard error
    of the mean.  Deterministic for a fixed seed.  Raises
    ``CapabilityError`` when ``SLICE_CHAINS * (n + r)`` is over
    ``QUADRATURE_BUDGET``, before anything is fitted or drawn.
    """
    chains, r = SLICE_CHAINS, problem.r
    kept = steps - steps // SLICE_BURN_IN
    if kept < 1:
        raise ValueError("at least one step is needed to keep a draw")
    if chains * (problem.n + r) > QUADRATURE_BUDGET:
        raise CapabilityError(f"{chains} chains x {problem.n + r} values, over the "
                              f"budget of {QUADRATURE_BUDGET}")
    mode = fit_posterior(problem).xi

    def loglik(gamma):
        eta = (problem.X @ problem.beta)[:, None] + problem.effects(gamma)
        return families.log_likelihood(
            problem.kernel, eta.T, problem.y, const=problem.response_term
        )

    rng = np.random.default_rng(seed)
    gamma = np.repeat(mode[:, None], chains, axis=1)
    ll = loglik(gamma)
    sums, cross = np.zeros((r, chains)), np.zeros((r, r))
    for step in range(steps):
        nu = problem.D_chol @ rng.standard_normal((r, chains))
        level = ll + np.log(rng.random(chains))
        hi = 2.0 * np.pi * rng.random(chains)
        t, lo = hi, hi - 2.0 * np.pi
        active = np.arange(chains)
        while active.size:
            trial = gamma[:, active] * np.cos(t) + nu[:, active] * np.sin(t)
            ll_trial = loglik(trial)
            ok = ll_trial >= level
            gamma[:, active[ok]] = trial[:, ok]
            ll[active[ok]] = ll_trial[ok]
            # shrink each rejected bracket to its angle, toward 0: the point, on its level
            active, level, t, lo, hi = (v[~ok] for v in (active, level, t, lo, hi))
            lo, hi = np.where(t < 0.0, t, lo), np.where(t < 0.0, hi, t)
            t = lo + (hi - lo) * rng.random(active.size)
        if step >= steps - kept:
            dev = gamma - mode[:, None]
            sums += dev
            cross += dev @ dev.T
    chain_means = sums / kept
    shift = chain_means.mean(axis=1)
    return PosteriorMoments(
        mean=mode + shift, cov=cross / (kept * chains) - np.outer(shift, shift),
        log_marginal=np.nan, method="elliptical_slice", order_or_samples=kept * chains,
        error_estimate=float(chain_means.std(axis=1, ddof=1).max() / np.sqrt(chains)),
    )


def fixed_point_residual(problem: GlmmProblem, xi) -> float:
    """Sup-norm defect of the working-model update at ``xi``.

    This is the target-form defect: the size of the full Newton
    increment, computed through the update ``D Z' R^-1 (u - X beta)``
    with a dense solve of ``R = Z D Z' + W^-1``, rather than the solver's
    own increment form and Cholesky factor.  The two forms round
    differently, so on ill-conditioned problems the defect of a fit that
    converged at ``fixed_point.TOL`` can exceed it (up to 5.07e-10 at
    ``TOL = 1e-10`` on the 3,000-problem stress battery); it is an
    independent check of the mode, not a certificate of a fit at ``TOL``.
    """
    xi = np.asarray(xi, dtype=float)
    offset = problem.X @ problem.beta
    eta = offset + problem.effects(xi)
    s, w = families.score_and_weight(problem.kernel, eta, problem.y)
    b = np.linalg.solve(problem.ZDZt + np.diag(1.0 / w), eta + s / w - offset)
    raw = problem.D @ problem.adjoint(b)
    return float(np.abs(xi - raw).max(initial=0.0))


def adjudicate_exactness(problem: GlmmProblem, order: int = 64) -> ExactnessReport:
    """Compare the posterior mode against the quadrature reference.

    CONFIRMED when the gap is within max(``CONFIRM_FLOOR``,
    ``CONFIRM_MULT`` x oracle error), REFUTED when it exceeds
    ``REFUTE_MULT`` x oracle error, INCONCLUSIVE in between.  The
    quadrature order doubles from ``order`` until the oracle's own
    order-doubling error estimate drops to ``ERROR_TARGET``, so the
    verdict never rests on an under-resolved reference unless it says
    so: doubling also stops at ``MAX_QUADRATURE_ORDER`` and at the last
    order whose grid fits ``QUADRATURE_BUDGET``, and the thresholds then
    judge the error estimate reached there.  The center terms, ``2 Xi``'s
    factor among them, are made once and each order evaluated once
    (64 -> 256 evaluates 32, 64, 128 and 256).
    Raises ``CapabilityError`` before fitting when ``order`` itself is
    over the budget.
    """
    _check_quadrature(problem, order)
    fit = fit_posterior(problem)
    center = _center_terms(problem, fit.xi, fit.Xi)
    evaluated = {}
    ref = _quadrature(problem, order, center, evaluated)
    while (
        ref.error_estimate > ERROR_TARGET
        and 2 * order <= MAX_QUADRATURE_ORDER
        and _fits_budget(problem, 2 * order)
    ):
        order *= 2
        ref = _quadrature(problem, order, center, evaluated)
    mean_gap = float(np.abs(fit.xi - ref.mean).max())
    cov_gap = float(np.abs(fit.Xi - ref.cov).max())
    gap = max(mean_gap, cov_gap)
    if gap <= max(CONFIRM_FLOOR, CONFIRM_MULT * ref.error_estimate):
        verdict = "CONFIRMED"
    elif gap > REFUTE_MULT * ref.error_estimate:
        verdict = "REFUTED"
    else:
        verdict = "INCONCLUSIVE"
    return ExactnessReport(
        mean_gap=mean_gap, cov_gap=cov_gap,
        marginal_gap=laplace_marginal(fit) - ref.log_marginal,
        verdict=verdict, fit=fit, oracle=ref,
    )


# instances per family in one verify battery
BATTERY_POISSON = 12
BATTERY_BINOMIAL = 10
BATTERY_GAUSSIAN = 4


def verify_battery(rng):
    """The problems that ``verify`` adjudicates: the ``BATTERY_*`` counts of
    small random instances, n <= 6 and r <= 2, drawn from ``rng``."""
    specs = (
        ["poisson"] * BATTERY_POISSON
        + ["binomial"] * BATTERY_BINOMIAL
        + ["gaussian"] * BATTERY_GAUSSIAN
    )
    for family in specs:
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        X = rng.standard_normal((n, p))
        Z = rng.standard_normal((n, r))
        A = rng.standard_normal((r, r))
        D = 0.3 * (A @ A.T) + 0.3 * np.eye(r)
        beta = rng.uniform(-0.4, 0.8, size=p)
        D_chol = np.linalg.cholesky(D)
        gamma = D_chol @ rng.standard_normal(r)
        eta = X @ beta + Z @ gamma
        if family == "poisson":
            kernel = families.poisson_kernel()
            y = rng.poisson(np.exp(np.clip(eta, -20, 5))).astype(float)
        elif family == "binomial":
            m = rng.integers(1, 8, size=n)
            kernel = families.binomial_kernel(m)
            prob = 1.0 / (1.0 + np.exp(-eta))
            y = rng.binomial(m.astype(int), prob).astype(float)
        else:
            kernel = families.gaussian_kernel(1.0)
            y = eta + rng.standard_normal(n)
        yield GlmmProblem(y=y, X=X, Z=Z, D=D, beta=beta, kernel=kernel, factor=D_chol)


# ---------------------------------------------------------------------------
# Gaussian factorization identity (randomized linear-algebra oracle)
# ---------------------------------------------------------------------------

# the largest observation, random-effect and fixed-effect counts of a
# random instance, which is also the shape :func:`identity_gaps` pads to
IDENTITY_MAX_N = 6
IDENTITY_MAX_R = 4
IDENTITY_MAX_P = 2
# identity instances drawn and evaluated in one stack, which bounds its memory
IDENTITY_CHUNK = 1024


def _mvn_logpdf(x, mean, cov):
    """log N(x; mean, cov) over the last axis; leading axes are a batch."""
    L = np.linalg.cholesky(cov)
    z = np.linalg.solve(L, (x - mean)[..., None])[..., 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * (x.shape[-1] * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=-1))


def _matvec(A, x):
    return (A @ x[..., None])[..., 0]


def joint_logdensity_direct(u, alpha, beta, gamma, delta, X, Z, w, D):
    """log N(u; alpha + X beta + Z gamma, W^-1) + log N(gamma; delta, D).

    The arguments are float arrays; leading axes are a batch of instances.
    """
    if np.any(w <= 0):
        raise ValueError("working weights must be positive")
    mean_u = alpha + _matvec(X, beta) + _matvec(Z, gamma)
    W_inv = (1.0 / w)[..., None] * np.eye(w.shape[-1])
    return _mvn_logpdf(u, mean_u, W_inv) + _mvn_logpdf(gamma, delta, D)


def joint_logdensity_factored(u, alpha, beta, gamma, delta, X, Z, w, D):
    """Same joint density factored the other way around.

    Evaluates log N(gamma; v_ad, V) + log N(u; alpha + X beta + Z delta, R)
    with R = Z D Z' + W^-1, V = D - D Z' R^-1 Z D, and
    v_ad = delta - D Z' R^-1 (alpha + Z delta) + D Z' R^-1 (u - X beta).
    The arguments are float arrays; leading axes are a batch of instances.
    """
    if np.any(w <= 0):
        raise ValueError("working weights must be positive")
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
    return _mvn_logpdf(gamma, v_ad, V) + _mvn_logpdf(u, mean_u, R)


def random_identity_stack(rng, size: int) -> dict:
    """Draw ``size`` random instances as the padded batch that :func:`identity_gaps` takes.

    An instance's n, r and p are uniform on 1..IDENTITY_MAX_N, _R and _P, its
    weights on [0.2, 5], and ``D = A A' + (0.5 + U) I`` with ``U`` uniform on
    [0, 1); ``A`` and every other entry are standard normal.  Each is padded
    to (IDENTITY_MAX_N, _R, _P): a padded observation has ``w = 1`` and zero
    ``u``, ``alpha`` and rows of ``X`` and ``Z``; a padded effect has a unit
    block of ``D`` and zero ``gamma``, ``delta`` and columns of ``Z``.  The
    stack takes one generator call per kind of draw.
    """
    N, R, P = IDENTITY_MAX_N, IDENTITY_MAX_R, IDENTITY_MAX_P
    obs, eff, fix = (np.arange(m) < rng.integers(1, m + 1, size)[:, None] for m in (N, R, P))
    block = eff[:, :, None] & eff[:, None, :]
    A = np.where(block, rng.standard_normal((size, R, R)), 0.0)
    D = A @ A.swapaxes(1, 2) + (0.5 + rng.random(size))[:, None, None] * np.eye(R)
    masks = dict(u=obs, alpha=obs, beta=fix, gamma=eff, delta=eff,
                 X=obs[:, :, None] & fix[:, None, :], Z=obs[:, :, None] & eff[:, None, :])
    widths = [mask[0].size for mask in masks.values()]
    parts = np.split(rng.standard_normal((size, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    stack = {k: np.where(m, x.reshape(m.shape), 0.0) for (k, m), x in zip(masks.items(), parts)}
    stack["w"] = np.where(obs, rng.uniform(0.2, 5.0, (size, N)), 1.0)
    stack["D"] = np.where(block, D, np.eye(R))
    return stack


def identity_gaps(stack: dict) -> np.ndarray:
    """Gap between the two factorizations of the joint density, per instance.

    ``stack`` is a padded batch as :func:`random_identity_stack` draws it,
    and each side of the identity is evaluated once for the whole batch.  A
    padded observation or effect adds ``log N(0; 0, 1)`` to both sides, so
    an instance's padded gap is its own up to roundoff.
    """
    return np.abs(joint_logdensity_direct(**stack) - joint_logdensity_factored(**stack))


def identity_max_gap(rng, count: int) -> float:
    """The largest gap of ``count`` random instances, drawn and evaluated
    ``IDENTITY_CHUNK`` at a time: NaN if any gap is NaN."""
    chunk_max = [
        np.max(identity_gaps(random_identity_stack(rng, min(IDENTITY_CHUNK, count - start))))
        for start in range(0, count, IDENTITY_CHUNK)
    ]
    # np.max propagates a NaN in any chunk; Python's max keeps only a leading one
    return float(np.max(chunk_max))
