"""Prediction of spatial random effects and responses at unobserved sites.

Each site set is one :class:`SpatialData`: the observed sites, from a
CSV dataset or a simulated draw, and the unobserved sites, whose
response is ``None``.  The observed sites are fitted by the mode-finder
on their site problem (:func:`site_problem`: one random effect per site,
``Z = None``, prior ``D11``), and :func:`krige` predicts the effects at
the unobserved sites from the fit through the cross covariance:

    xi* = D21 D11^-1 xi  =  D21 R11^-1 (u_xi - X beta),   R11 = W_xi^-1 + D11,

the second form holding at the mode, the working-model update's fixed
point.  The solver carries ``alpha = D11^-1 xi``, so the prediction is
the product ``D21 alpha`` of any fit on the observed sites' prior (an
estimate's own, say) and does no factorization.  The predicted response
is b'(X* beta + xi*) under the unobserved sites' own kernel (their trial
counts for the binomial family), and the predicted working response is
X* beta + xi*, as no response exists there.  With zero cross covariance
this degenerates to the fixed-effects prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401 - bench/tests checks its traced binding

from . import families
from .covariance import BlockedCovariance
from .families import FamilyKernel
from .fixed_point import FitReport, GlmmProblem
from .fixed_point import fit_posterior  # noqa: F401 - bench/tests checks its traced binding


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
class SpatialPrediction:
    """Unobserved-site predictions; ``report.xi`` is the observed sites' mode."""

    xi_star: np.ndarray
    y_hat_star: np.ndarray
    u_hat_star: np.ndarray
    report: FitReport


def site_problem(data: SpatialData, blocked: BlockedCovariance, beta) -> GlmmProblem:
    """The observed sites' problem: the site design ``Z = None``, prior ``D11``."""
    if data.y is None:
        raise ValueError("the observed sites need a response")
    n = blocked.n_observed
    return GlmmProblem(
        y=data.y, X=data.X, Z=None, D=blocked.d11, beta=beta, kernel=data.kernel,
        factor=blocked.chol[:n, :n],
    )


def krige(report: FitReport, unobserved: SpatialData, d12) -> SpatialPrediction:
    """Effects and responses at the ``unobserved`` sites, ``xi* = D21 alpha``,
    from a fit on the observed sites' prior and their n x n* cross covariance
    ``d12``; the sites must share the fit's fixed-effects width and family."""
    fitted = report.problem
    if d12.shape[0] != fitted.n:
        raise ValueError("observed covariance block does not match its sites")
    if d12.shape[1:] != unobserved.X.shape[:1]:
        raise ValueError("unobserved covariance block does not match its sites")
    if unobserved.X.shape[1] != fitted.X.shape[1]:
        raise ValueError("both site sets must share the fixed-effects dimension")
    if unobserved.kernel.family != fitted.kernel.family:
        raise ValueError("both site sets must share the family")
    xi_star = d12.T @ report.alpha
    eta_star = unobserved.X @ fitted.beta + xi_star
    y_hat_star, _ = families.mean_and_weight(unobserved.kernel, eta_star)
    return SpatialPrediction(xi_star, y_hat_star, eta_star, report)
