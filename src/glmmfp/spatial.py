"""Prediction of spatial random effects and responses at unobserved sites.

The observed sites are one :class:`SpatialData`, from a CSV dataset or a
simulated draw to the estimator and the fit; a :class:`SpatialProblem`
adds the unobserved sites, the blocked prior and the fixed effects.

The observed block of a spatial mixed model (random effect per site,
identity random-effects design, posed by :func:`site_problem`) is
fitted with the Newton mode-finder; the unobserved-site effects are then
the kriging of its mode through the cross covariance:

    xi* = D21 D11^-1 xi  =  D21 R11^-1 (u_xi - X beta),   R11 = W_xi^-1 + D11,

the second form holding at the mode, which is the working-model
update's fixed point.  The solver carries ``alpha = D11^-1 xi``, so the
prediction is the product ``D21 alpha`` and does no factorization; the
prior's own Cholesky factor, carried by the blocked covariance, certifies
D11 for the solver, so no other factorization of D11 is made.
The predicted response is b'(X* beta + xi*), with the unobserved sites'
own trial counts for the binomial family, and the predicted working
response is X* beta + xi* (zero working residual, as no response exists
at the unobserved sites).  With zero cross covariance this degenerates to the
fixed-effects prediction, and in the noise-free limit to the
conditional-mean (kriging) predictor D21 D11^-1 gamma, which
:func:`conditional_mean` evaluates as L21 L11^-1 gamma from that factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401 - bench/tests checks its traced binding
from scipy.linalg import solve_triangular

from . import families
from .covariance import BlockedCovariance
from .families import FamilyKernel
from .fixed_point import FitOptions, FitReport, GlmmProblem, fit_posterior


@dataclass(eq=False)
class SpatialData:
    """Observed sites: response, fixed-effects design, coordinates, family."""

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


@dataclass(eq=False)
class SpatialProblem:
    """The observed sites, the unobserved sites' design and the blocked prior.

    ``coords_star`` are the unobserved sites' coordinates and
    ``trials_star`` their trial counts, required for the binomial family
    when there are unobserved sites; ``kernel_star`` is the family at
    those sites.
    """

    observed: SpatialData
    Xstar: np.ndarray
    coords_star: np.ndarray
    blocked: BlockedCovariance
    beta: np.ndarray
    trials_star: np.ndarray | None = None
    kernel_star: FamilyKernel = field(init=False, repr=False)

    def __post_init__(self):
        p = self.observed.X.shape[1]
        self.Xstar = np.asarray(self.Xstar, dtype=float)
        if self.Xstar.size == 0:
            self.Xstar = self.Xstar.reshape(0, p)
        self.Xstar = np.atleast_2d(self.Xstar)
        self.coords_star = np.asarray(self.coords_star, dtype=float)
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        n_star = self.blocked.n_unobserved
        if self.blocked.n_observed != self.observed.y.shape[0]:
            raise ValueError("observed covariance block does not match response length")
        if self.Xstar.shape[0] != n_star or len(self.coords_star) != n_star:
            raise ValueError("unobserved covariance block does not match Xstar/coords_star")
        if self.Xstar.shape[1] != p:
            raise ValueError("X and Xstar must share the fixed-effects dimension")
        self.kernel_star = self.observed.kernel
        if self.kernel_star.family == families.BINOMIAL and n_star:
            if self.trials_star is None:
                raise ValueError("binomial prediction needs the unobserved sites' trial counts")
            self.kernel_star = families.binomial_kernel(self.trials_star)
            if self.kernel_star.trials.shape != (n_star,):
                raise ValueError("trials_star must hold one count per unobserved site")


@dataclass(eq=False)
class SpatialPrediction:
    """Unobserved-site predictions; ``report.xi`` is the observed sites' mode."""

    xi_star: np.ndarray
    y_hat_star: np.ndarray
    u_hat_star: np.ndarray
    report: FitReport


def site_problem(data: SpatialData, blocked: BlockedCovariance, beta) -> GlmmProblem:
    """The observed sites' problem: one effect per site (``Z = I``), prior ``D11``.

    The leading block of the carried joint factor certifies ``D11``.
    """
    n = blocked.n_observed
    return GlmmProblem(
        y=data.y, X=data.X, Z=np.eye(n), D=blocked.d11, beta=beta, kernel=data.kernel,
        D_chol=blocked.chol[:n, :n],
    )


def fit_predict(
    problem: SpatialProblem, options: FitOptions = FitOptions()
) -> SpatialPrediction:
    """Fit the observed block and predict effects/responses at new sites."""
    glmm = site_problem(problem.observed, problem.blocked, problem.beta)
    report = fit_posterior(glmm, options)
    xi_star = problem.blocked.d12.T @ report.alpha
    eta_star = problem.Xstar @ problem.beta + xi_star
    if problem.blocked.n_unobserved:
        y_hat_star, _ = families.mean_and_weight(problem.kernel_star, eta_star)
    else:
        y_hat_star = np.empty(0)
    return SpatialPrediction(
        xi_star=xi_star, y_hat_star=y_hat_star, u_hat_star=eta_star, report=report
    )


def conditional_mean(gamma, blocked: BlockedCovariance) -> np.ndarray:
    """Noise-free predictor D21 D11^-1 gamma at the unobserved sites.

    With ``full = L L'`` partitioned like ``full``, ``D21 = L21 L11'`` and
    ``D11 = L11 L11'``, so the predictor is ``L21 L11^-1 gamma``: one
    triangular solve with the carried factor, and no factorization.

    Its accuracy is limited by the conditioning of ``D11``, which
    :func:`covariance.build_blocked` does not check: it certifies
    positive definiteness only.  On a unit-sill exponential prior
    (``omega2 = 1``) with three pairs of observed sites 1e-13 apart,
    cond(``D11``) is about 2.4e13 and no jitter is needed; a ``gamma``
    drawn from the prior then krigs to about 2e-10 of a 50-digit solve,
    but an arbitrary ``gamma`` (such as a posterior mode) only to about
    1e-4.
    """
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    n = blocked.n_observed
    if gamma.shape[0] != n:
        raise ValueError("gamma length must match the observed block")
    L = blocked.chol
    return L[n:, :n] @ solve_triangular(L[:n, :n], gamma, lower=True)
