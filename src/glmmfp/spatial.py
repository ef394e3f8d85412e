"""Prediction of spatial random effects and responses at unobserved sites.

Each site set is one :class:`SpatialData`: the observed sites, from a
CSV dataset or a simulated draw to the estimator and the fit, and the
unobserved sites, whose response is ``None``.  A :class:`SpatialProblem`
pairs the two with their blocked prior and the fixed effects.

The observed block of a spatial mixed model (random effect per site,
the site design ``Z = None`` posed by :func:`site_problem`) is
fitted with the Newton mode-finder; the unobserved-site effects are then
the kriging of its mode through the cross covariance:

    xi* = D21 D11^-1 xi  =  D21 R11^-1 (u_xi - X beta),   R11 = W_xi^-1 + D11,

the second form holding at the mode, which is the working-model
update's fixed point.  The solver carries ``alpha = D11^-1 xi``, so the
prediction, :func:`krige`, is the product ``D21 alpha`` of any fit on the
observed sites' prior (an estimate's own, say) and does no factorization.
The predicted response is b'(X* beta + xi*) under the unobserved sites'
own kernel (their trial counts for the binomial family), and the
predicted working response is X* beta + xi* (zero working residual, as
no response exists at the unobserved sites).  With zero cross covariance this degenerates to the
fixed-effects prediction, and in the noise-free limit to the
conditional-mean (kriging) predictor D21 D11^-1 gamma, which
:func:`conditional_mean` evaluates as L21 L11^-1 gamma from the prior's factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401 - bench/tests checks its traced binding

from . import families
from ._lapack import trtrs
from .covariance import BlockedCovariance
from .families import FamilyKernel
from .fixed_point import FitOptions, FitReport, GlmmProblem, fit_posterior


@dataclass(eq=False)
class SpatialData:
    """Sites: response (``None`` if none is observed), design, coordinates, family."""

    y: np.ndarray | None
    X: np.ndarray
    coords: np.ndarray
    kernel: FamilyKernel

    def __post_init__(self):
        self.y = None if self.y is None else np.asarray(self.y, dtype=float)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        n = self.X.shape[0]
        if (self.y is not None and self.y.shape[0] != n) or self.coords.shape[0] != n:
            raise ValueError("y, X, and coords must agree in length")
        if self.kernel.family == families.BINOMIAL and self.kernel.trials.shape != (n,):
            raise ValueError("a binomial kernel must hold one trial count per site")


@dataclass(eq=False)
class SpatialProblem:
    """The observed and the unobserved sites, their blocked prior, the fixed effects."""

    observed: SpatialData
    unobserved: SpatialData
    blocked: BlockedCovariance
    beta: np.ndarray

    def __post_init__(self):
        observed, unobserved = self.observed, self.unobserved
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if observed.y is None:
            raise ValueError("the observed sites need a response")
        if self.blocked.n_observed != observed.X.shape[0]:
            raise ValueError("observed covariance block does not match its sites")
        if self.blocked.n_unobserved != unobserved.X.shape[0]:
            raise ValueError("unobserved covariance block does not match its sites")
        if unobserved.X.shape[1] != observed.X.shape[1]:
            raise ValueError("both site sets must share the fixed-effects dimension")
        if unobserved.kernel.family != observed.kernel.family:
            raise ValueError("both site sets must share the family")


@dataclass(eq=False)
class SpatialPrediction:
    """Unobserved-site predictions; ``report.xi`` is the observed sites' mode."""

    xi_star: np.ndarray
    y_hat_star: np.ndarray
    u_hat_star: np.ndarray
    report: FitReport


def site_problem(data: SpatialData, blocked: BlockedCovariance, beta) -> GlmmProblem:
    """The observed sites' problem: the site design ``Z = None``, prior ``D11``."""
    n = blocked.n_observed
    return GlmmProblem(
        y=data.y, X=data.X, Z=None, D=blocked.d11, beta=beta, kernel=data.kernel,
        D_chol=blocked.chol[:n, :n],
    )


def fit_predict(
    problem: SpatialProblem, options: FitOptions = FitOptions(), buf=None
) -> SpatialPrediction:
    """Fit the observed block and :func:`krige` its mode to the new sites.

    ``buf``, if given, is the fit's factor buffer (:func:`fit_posterior`).
    """
    glmm = site_problem(problem.observed, problem.blocked, problem.beta)
    report = fit_posterior(glmm, options, buf)
    return krige(report, problem.unobserved, problem.blocked.d12)


def krige(report: FitReport, unobserved: SpatialData, d12) -> SpatialPrediction:
    """Effects and responses at the ``unobserved`` sites, ``xi* = D21 alpha``,
    from a fit on the observed sites' prior and their cross covariance ``d12``."""
    xi_star = d12.T @ report.alpha
    eta_star = unobserved.X @ report.problem.beta + xi_star
    y_hat_star, _ = families.mean_and_weight(unobserved.kernel, eta_star)
    return SpatialPrediction(xi_star, y_hat_star, eta_star, report)


def conditional_mean(gamma, blocked: BlockedCovariance, buf=None) -> np.ndarray:
    """Noise-free predictor D21 D11^-1 gamma at the unobserved sites.

    With ``full = L L'`` partitioned like ``full``, ``D21 = L21 L11'`` and
    ``D11 = L11 L11'``, so the predictor is ``L21 L11^-1 gamma``: one
    triangular solve with the carried factor, and no factorization.  The
    solve works in ``buf``, an n x n array (:func:`_lapack.workspace`).

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
    return L[n:, :n] @ trtrs(L[:n, :n], gamma, buf)
