"""Prior covariance construction for spatial random effects.

Implements the isotropic Matern covariance family over Euclidean site
coordinates and the blocked observed/unobserved covariance used for
prediction at new sites.  Smoothness 0.5 (exponential covariance), 1.5,
and 2.5 go through exact closed forms; other smoothness values use the
modified Bessel function of the second kind.

The blocked covariance is assembled and factored once, by LAPACK's
``potrf`` (``scipy.linalg.cho_factor``) on its Fortran-ordered view,
which needs no transposing copy.  That Cholesky factor is the only one
of the prior that callers need, to draw from it, to certify its observed
block and to krig (:func:`spatial.conditional_mean`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
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
        out = np.exp(np.negative(a, out=a), out=a)
        out *= sill
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


def matern_scale_derivative(params: MaternParams, d) -> np.ndarray:
    """Derivative of :func:`matern` in ``log omega2`` at distances ``d``.

    With ``a = omega2 d`` it is ``sill * a f'(a)`` for the correlation
    ``f``: closed forms for smoothness 0.5/1.5/2.5, and otherwise
    ``d/da [a^nu K_nu(a)] = -a^nu K_(nu-1)(a)``.  It is 0 at ``d = 0``, so
    a diagonal jitter does not enter it.
    """
    a = params.omega2 * np.asarray(d, dtype=float)
    nu = params.omega3
    if nu == 0.5:
        af = -a * np.exp(-a)
    elif nu == 1.5:
        af = -(a**2) * np.exp(-a)
    elif nu == 2.5:
        af = -(a**2) * (1.0 + a) / 3.0 * np.exp(-a)
    else:
        af = np.zeros_like(a)
        pos = a > 0
        ap = a[pos]
        with np.errstate(over="ignore", invalid="ignore"):
            af[pos] = -(ap ** (nu + 1.0)) * kv(nu - 1.0, ap) / (
                2.0 ** (nu - 1.0) * gamma_fn(nu)
            )
        af[pos] = np.nan_to_num(af[pos], nan=0.0, posinf=0.0, neginf=0.0)
    return params.sill * af


class BlockedCovariance:
    """Observed/unobserved partition of a spatial prior covariance.

    ``full`` is the (n + n*) x (n + n*) matrix; ``d11`` (observed-
    observed, n x n), ``d12`` (observed-unobserved, n x n*) and ``d22``
    (unobserved-unobserved, n* x n*) are views of it.  The constructor
    takes ``full`` with its diagonal blocks and ``d12`` filled, and ``n``;
    it fills the lower-left block with ``d12.T`` in place and certifies
    positive definiteness by Cholesky, escalating a diagonal jitter
    tenfold from 1e-10 up to 1e-6 times the largest diagonal entry (the
    sill) before giving up.  The factor is ``potrf``'s on ``full.T``,
    which is ``full`` itself in Fortran order since ``full`` is exactly
    symmetric; a ``full`` with non-finite entries raises ``ValueError``.
    ``jitter`` is the regularization that was needed and ``chol`` the
    lower factor of the jittered ``full``, Fortran-ordered, its strict
    upper triangle zeroed.  Its leading n x n block is the Cholesky
    factor of ``d11``, so callers draw, krig and certify ``d11`` with it
    instead of factoring again.
    """

    def __init__(self, full: np.ndarray, n: int):
        full[n:, :n] = full[:n, n:].T
        self.full = full
        self.d11, self.d12, self.d22 = full[:n, :n], full[:n, n:], full[n:, n:]
        self.jitter = 0.0
        diag = full.diagonal().copy()
        scale = np.max(diag, initial=0.0)
        candidate = _JITTER_START * scale
        cap = _JITTER_CAP * scale
        while True:
            try:
                # full is exactly symmetric, so its F-ordered transpose is
                # full itself, which potrf factors without a transposing copy
                chol, _ = cho_factor(full.T, lower=True)
            except np.linalg.LinAlgError:
                if not 0.0 < candidate <= cap:
                    raise SingularCovarianceError(
                        "blocked covariance not positive definite after jitter "
                        "escalation"
                    ) from None
                self.jitter = candidate
                log.warning("covariance jitter escalated to %.3e", candidate)
                np.fill_diagonal(full, diag + candidate)
                candidate *= 10.0
            else:
                # potrf leaves full's upper triangle above the factor
                chol.T[np.tri(len(full), k=-1, dtype=bool)] = 0.0
                self.chol = chol
                return

    @property
    def n_observed(self) -> int:
        return self.d11.shape[0]

    @property
    def n_unobserved(self) -> int:
        return self.d22.shape[0]


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
    block singular).  The Matern diagonal is the sill, so the
    certification jitter of :class:`BlockedCovariance` runs from
    1e-10 x sill to 1e-6 x sill.
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

    # deferred: `verify` builds no spatial prior and need not load scipy.spatial
    from scipy.spatial.distance import cdist

    n, m = obs.shape[0], unobs.shape[0]
    full = np.empty((n + m, n + m))
    full[:n, :n] = matern(params, _observed_distances(cdist(obs, obs)))
    full[:n, n:] = matern(params, cdist(obs, unobs))
    full[n:, n:] = matern(params, cdist(unobs, unobs))
    return BlockedCovariance(full, n)


def _observed_distances(d: np.ndarray) -> np.ndarray:
    """``d``, the observed sites' distance matrix, once it has no duplicate site."""
    # the diagonal holds n exact zeros; any other zero is a duplicate site
    if np.count_nonzero(d == 0.0) > d.shape[0]:
        raise ValueError("duplicate observed coordinates make the prior singular")
    return d
