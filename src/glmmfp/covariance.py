"""Prior covariance construction for spatial random effects.

Implements the isotropic Matern covariance family over Euclidean site
coordinates and the blocked observed/unobserved covariance used for
prediction at new sites.  Smoothness 0.5 (exponential covariance), 1.5,
and 2.5 go through exact closed forms; other smoothness values use the
modified Bessel function of the second kind.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import gamma as gamma_fn
from scipy.special import kv

log = logging.getLogger(__name__)

_JITTER_START = 1e-10
_JITTER_CAP = 1e-6


class SingularCovarianceError(RuntimeError):
    """Raised when the blocked covariance cannot be factorized even after jitter."""


@dataclass(frozen=True)
class MaternParams:
    """Hyperparameters of the Matern family.

    ``omega1`` in (0,1) controls the marginal variance omega1/(1-omega1),
    ``omega2`` > 0 is the inverse scale, ``omega3`` > 0 the smoothness.
    """

    omega1: float
    omega2: float
    omega3: float = 0.5

    def __post_init__(self):
        for name in ("omega1", "omega2", "omega3"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.omega1 < 1.0:
            raise ValueError("omega1 must lie in (0, 1)")
        if self.omega2 <= 0:
            raise ValueError("omega2 must be positive")
        if self.omega3 <= 0:
            raise ValueError("omega3 must be positive")

    @property
    def sill(self) -> float:
        """Marginal variance omega1 / (1 - omega1)."""
        return self.omega1 / (1.0 - self.omega1)


def matern(params: MaternParams, d):
    """Matern covariance at distance(s) ``d`` >= 0.

    Half-integer smoothness 0.5/1.5/2.5 uses the exact exponential-times-
    polynomial closed forms; general smoothness evaluates the Bessel-K
    expression directly, with the d -> 0 limit pinned to the sill.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    a = params.omega2 * d
    nu = params.omega3
    sill = params.sill
    if nu == 0.5:
        out = sill * np.exp(-a)
    elif nu == 1.5:
        out = sill * (1.0 + a) * np.exp(-a)
    elif nu == 2.5:
        out = sill * (1.0 + a + a**2 / 3.0) * np.exp(-a)
    else:
        out = np.full_like(a, sill)
        pos = a > 0
        ap = a[pos]
        with np.errstate(over="ignore", invalid="ignore"):
            out[pos] = sill * ap**nu / (2.0 ** (nu - 1.0) * gamma_fn(nu)) * kv(nu, ap)
        # kv underflows for very large arguments; the covariance is 0 there
        out[pos] = np.nan_to_num(out[pos], nan=0.0, posinf=0.0, neginf=0.0)
    return float(out[0]) if scalar else out


@dataclass(eq=False)
class BlockedCovariance:
    """Observed/unobserved partition of a spatial prior covariance.

    ``d11`` is observed-observed (n x n), ``d12`` observed-unobserved
    (n x n*), ``d22`` unobserved-unobserved (n* x n*).  The transposed
    cross block is ``d12.T`` by construction.  ``jitter`` is the diagonal
    regularization that was needed to certify positive definiteness.
    """

    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray
    jitter: float = 0.0

    @property
    def n_observed(self) -> int:
        return self.d11.shape[0]

    @property
    def n_unobserved(self) -> int:
        return self.d22.shape[0]

    @property
    def full(self) -> np.ndarray:
        top = np.hstack([self.d11, self.d12])
        bottom = np.hstack([self.d12.T, self.d22])
        return np.vstack([top, bottom])


def _as_coords(coords) -> np.ndarray:
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] < 1:
        raise ValueError("coordinates must be a 2-D array of site coordinates")
    if not np.all(np.isfinite(c)):
        raise ValueError("coordinates contain non-finite entries")
    return c


def build_blocked(
    params: MaternParams, coords_obs, coords_unobs=None
) -> BlockedCovariance:
    """Blocked Matern covariance over observed and unobserved sites.

    Duplicate observed coordinates are rejected (they make the observed
    block singular).  Positive definiteness of the full blocked matrix is
    certified by Cholesky, escalating a diagonal jitter tenfold from
    1e-10 x sill up to 1e-6 x sill before giving up.
    """
    return _blocked_and_factor(params, coords_obs, coords_unobs)[0]


def _blocked_and_factor(params: MaternParams, coords_obs, coords_unobs=None):
    """:func:`build_blocked` plus the lower Cholesky factor of its ``full``.

    The factor is the one the positive-definiteness check computed, so a
    caller drawing from the prior does not factor the matrix again.
    """
    obs = _as_coords(coords_obs)
    if obs.shape[0] < 1:
        raise ValueError("at least one observed site is required")
    if coords_unobs is None:
        unobs = np.empty((0, obs.shape[1]))
    else:
        unobs = _as_coords(coords_unobs) if np.size(coords_unobs) else np.empty(
            (0, obs.shape[1])
        )
        if unobs.shape[1] != obs.shape[1]:
            raise ValueError("observed and unobserved coordinate dimensions differ")

    d_oo = cdist(obs, obs)
    off = d_oo[~np.eye(obs.shape[0], dtype=bool)]
    if off.size and np.min(off) == 0.0:
        raise ValueError("duplicate observed coordinates make the prior singular")

    d11 = matern(params, d_oo)
    d12 = matern(params, cdist(obs, unobs)) if unobs.shape[0] else np.empty(
        (obs.shape[0], 0)
    )
    d22 = matern(params, cdist(unobs, unobs)) if unobs.shape[0] else np.empty((0, 0))

    blocked = BlockedCovariance(d11=d11, d12=d12, d22=d22)
    full = blocked.full
    diag = full.diagonal().copy()
    jitter = 0.0
    candidate = _JITTER_START * params.sill
    cap = _JITTER_CAP * params.sill
    while True:
        try:
            chol = np.linalg.cholesky(full)
            break
        except np.linalg.LinAlgError:
            if candidate > cap:
                raise SingularCovarianceError(
                    "blocked covariance not positive definite after jitter escalation"
                ) from None
            jitter = candidate
            log.warning("covariance jitter escalated to %.3e", jitter)
            np.fill_diagonal(full, diag + jitter)
            candidate *= 10.0
    if jitter:
        idx = np.arange(blocked.n_observed)
        blocked.d11[idx, idx] += jitter
        idx = np.arange(blocked.n_unobserved)
        blocked.d22[idx, idx] += jitter
        blocked.jitter = jitter
    return blocked, chol
