"""Prior covariance construction for spatial random effects.

Implements the isotropic Matern covariance family over Euclidean site
coordinates and the blocked observed/unobserved covariance used for
prediction at new sites.  Smoothness 0.5 (exponential covariance), 1.5,
and 2.5 go through exact closed forms; other smoothness values use the
modified Bessel function of the second kind, whose ``scipy.special``
import is deferred to the branch that needs it.

The blocked covariance is built in one buffer over the stacked observed
and unobserved sites, one band of 64 rows at a time: numpy computes the
band's distances to the sites up to it, bit for bit as ``cdist`` does,
:func:`matern` overwrites them with the covariance, and the band's
transpose fills the entries above it.  No ``scipy.spatial`` is loaded.
Its one Cholesky factor is all that callers need, to draw from it, to
certify its observed block and to krig (:func:`spatial.conditional_mean`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import potrf, workspace

log = logging.getLogger(__name__)

# (n + n*)**2 doubles, the most that a prior over n + n* sites may hold.
# A fit peaks at about three such arrays (the covariance in its distance
# buffer, its factor, the mode fit's n x n buffer); 2**24 doubles is
# 128 MiB an array, and n + n* <= 4096
PRIOR_BUDGET = 2**24

_JITTER_START = 1e-10
_JITTER_CAP = 1e-6
_NON_FINITE = "blocked covariance must not contain infs or NaNs"
# the strict lower triangle of a band of 64 rows, zeroed above the factor;
# distances are also made 64 rows a band, 400 KiB at 800 sites
_BAND_LOWER = np.tri(64, k=-1, dtype=bool)


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


def matern(params: MaternParams, d, out=None):
    """Matern covariance at distance(s) ``d`` >= 0.

    Half-integer smoothness 0.5/1.5/2.5 uses the exact exponential-times-
    polynomial closed forms; general smoothness evaluates the Bessel-K
    expression directly, with the d -> 0 limit pinned to the sill.  As
    in numpy, ``out`` (a float array of ``d``'s shape, which may be ``d``
    itself) receives the result, bit for bit the one returned without it.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    a = np.multiply(params.omega2, d, out=out)
    nu = params.omega3
    sill = params.sill
    if nu == 0.5:
        np.exp(np.negative(a, out=a), out=a)
        a *= sill
    elif nu in (1.5, 2.5):
        # sill * (1 + a [+ a^2 / 3]) * exp(-a), in that order, in place
        e, a2 = np.exp(-a), a**2 / 3.0 if nu == 2.5 else 0.0
        a += 1.0
        a += a2
        a *= sill
        a *= e
    else:
        # deferred: only general smoothness needs scipy.special
        from scipy.special import gamma as gamma_fn, kv
        pos = a > 0
        ap = a[pos]
        with np.errstate(over="ignore", invalid="ignore"):
            kp = sill * ap**nu / (2.0 ** (nu - 1.0) * gamma_fn(nu)) * kv(nu, ap)
        a.fill(sill)
        # kv underflows for very large arguments; the covariance is 0 there
        a[pos] = np.nan_to_num(kp, nan=0.0, posinf=0.0, neginf=0.0)
    return float(a[0]) if scalar else a


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
        from scipy.special import gamma as gamma_fn, kv
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
    takes ``full``, which must be exactly symmetric (as the one distance
    buffer of :func:`build_blocked` is), and ``n``, and certifies
    positive definiteness by Cholesky, escalating a diagonal jitter
    tenfold from 1e-10 up to 1e-6 times the largest diagonal entry (the
    sill) before giving up.  Exact symmetry puts every entry of ``full``
    in the factored triangle, so a non-finite ``full`` raises ``ValueError``
    and a finite one is not scanned.  ``jitter`` is the regularization
    that was needed, which the constructor does not log, and ``chol`` the
    factor of the jittered ``full``, upper triangle zeroed; its leading
    n x n block is the factor of ``d11``, so callers draw, krig and
    certify ``d11`` with it instead of factoring again.
    The factor is made in ``buf`` (:func:`_lapack.workspace`).
    """

    def __init__(self, full: np.ndarray, n: int, buf: np.ndarray | None = None):
        buf = workspace(buf, full.shape)
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
                # full itself; the copy keeps full for the next jitter
                np.copyto(buf, full.T)
                chol = potrf(buf)
            except np.linalg.LinAlgError:
                if self.jitter == 0.0 and not np.all(np.isfinite(full)):
                    raise ValueError(_NON_FINITE) from None
                if not 0.0 < candidate <= cap:
                    raise SingularCovarianceError(
                        "blocked covariance not positive definite after jitter "
                        "escalation"
                    ) from None
                self.jitter = candidate
                np.fill_diagonal(full, diag + candidate)
                candidate *= 10.0
            else:
                if not np.all(np.isfinite(chol.diagonal())):
                    raise ValueError(_NON_FINITE)
                # zero the upper triangle in bands of the contiguous rows of chol.T
                ct, b = chol.T, len(_BAND_LOWER)
                for j in range(0, len(ct), b):
                    band = ct[j : j + b]
                    band[:, :j] = 0.0
                    band[:, j : j + b][_BAND_LOWER[: len(band), : len(band)]] = 0.0
                self.chol = chol
                return

    @property
    def n_observed(self) -> int:
        return self.d11.shape[0]


def _as_coords(coords) -> np.ndarray:
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] < 1:
        raise ValueError("coordinates must be a 2-D array of site coordinates")
    if not np.all(np.isfinite(c)):
        raise ValueError("coordinates contain non-finite entries")
    return c


def _check_sites(coords_obs, coords_unobs):
    """The observed and the unobserved coordinates as 2-D float arrays; non-finite
    ones, no observed site, unequal dimensions, and more sites than
    ``PRIOR_BUDGET`` allows are rejected before their count squared is allocated."""
    obs = _as_coords(coords_obs)
    if len(obs) < 1:
        raise ValueError("at least one observed site is required")
    unobs = obs[:0]
    if coords_unobs is not None and np.size(coords_unobs):
        unobs = _as_coords(coords_unobs)
        if unobs.shape[1] != obs.shape[1]:
            raise ValueError("observed and unobserved coordinate dimensions differ")
    m = len(obs) + len(unobs)
    if m**2 > PRIOR_BUDGET:
        raise ValueError(
            f"{m} sites are more than the {math.isqrt(PRIOR_BUDGET)} that a "
            f"prior of at most {PRIOR_BUDGET} doubles covers"
        )
    return obs, unobs


def _distances(rows, cols, out, tmp):
    """Distances from the sites of ``rows`` to those of ``cols`` (one row a
    coordinate) in ``out``, with ``tmp`` of its shape: per coordinate
    ``subtract.outer``, squared, the squares added in coordinate order and
    ``sqrt`` taken, which is ``cdist``'s arithmetic, bit for bit."""
    for c, (x, y) in enumerate(zip(rows, cols)):
        d = np.subtract.outer(x, y, out=tmp if c else out)
        np.multiply(d, d, out=d)
        if c:
            out += tmp
    return np.sqrt(out, out=out)


def _fill_bands(coords_obs, coords_unobs, out=None, params: MaternParams | None = None):
    """Distances among the observed sites, then the unobserved ones, or
    their Matern covariance under ``params``, in ``out`` or a new array.

    The sites are checked by :func:`_check_sites`, and a lent ``out``
    that is not a C-ordered float array of their shape is rejected before
    anything is written.  Then :func:`_distances` fills band by band of
    ``len(_BAND_LOWER)`` rows, each over the sites up to and including the
    band, and under ``params`` :func:`matern` overwrites each band.  The
    band's transpose fills the entries above it, so ``out`` is exactly
    symmetric, and only the lower triangle and the bands' diagonal blocks
    are computed: 54% of the entries at 800 sites.
    The exact zeros among the observed sites are counted before
    :func:`matern` overwrites them: the diagonal holds one per site,
    and any other is a duplicate observed site, which makes the observed
    block singular.
    """
    obs, unobs = _check_sites(coords_obs, coords_unobs)
    sites = np.concatenate([obs, unobs])
    n, m, b = len(obs), len(sites), len(_BAND_LOWER)
    if out is None:
        out = np.empty((m, m))
    elif out.shape != (m, m) or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(
            f"a lent distance buffer has incorrect shape, order or dtype for "
            f"{m} sites: it must be a C-ordered {(m, m)} float array"
        )
    cols = np.ascontiguousarray(sites.T)
    # two contiguous band-sized temporaries, whose ufunc loops run faster
    # than over the strided rows of out
    bands, squares = np.empty((2, min(b, m) * m))
    zeros = 0
    for i in range(0, m, b):
        j = min(i + b, m)
        band = bands[: (j - i) * j].reshape(j - i, j)
        sq = squares[: (j - i) * j].reshape(j - i, j)
        _distances(cols[:, i:j], cols[:, :j], band, sq)
        if i < n:
            zeros += np.count_nonzero(band[: n - i, : min(j, n)] == 0.0)
        if params is not None:
            matern(params, band, out=band)
        out[i:j, :j] = band
        out[:i, i:j] = band[:, :i].T
    if zeros > n:
        raise ValueError("duplicate observed coordinates make the prior singular")
    return out


def site_distances(coords_obs, coords_unobs=None) -> np.ndarray:
    """Distances among the observed sites, then the unobserved ones, bit for
    bit as ``cdist`` makes them and exactly symmetric (:func:`_fill_bands`).
    The sites are checked by :func:`_check_sites`, and duplicate observed
    sites, which make the observed block singular, are rejected."""
    return _fill_bands(coords_obs, coords_unobs)


def cross_covariance(params: MaternParams, coords_obs, coords_unobs) -> np.ndarray:
    """The n x n* block ``D12`` of :func:`build_blocked` over the same sites, bit
    for bit and unfactored, made band by band as :func:`_fill_bands` makes it,
    its rows n + n* apart as in :attr:`BlockedCovariance.d12`, so that products
    with it round alike (for n* <= 3 a contiguous block's do not).  The sites are
    checked by :func:`_check_sites`."""
    obs, unobs = _check_sites(coords_obs, coords_unobs)
    n, n_star, b = len(obs), len(unobs), len(_BAND_LOWER)
    d12 = np.empty((n, n + n_star))[:, n:]
    bands = np.empty((2, min(b, n), n_star))
    for i in range(0, n, b):
        band, sq = bands[:, : min(b, n - i)]
        _distances(obs.T[:, i : i + b], unobs.T, band, sq)
        d12[i : i + b] = matern(params, band, out=band)
    return d12


def build_blocked(
    params: MaternParams, coords_obs, coords_unobs=None, spent=None
) -> BlockedCovariance:
    """Blocked Matern covariance over observed and unobserved sites.

    The sites are checked as by :func:`site_distances`, and each band of
    distances is overwritten with its covariance as soon as it is made.
    The Matern diagonal is the sill, so the certification jitter of
    :class:`BlockedCovariance` runs from 1e-10 x sill to 1e-6 x sill; a
    jitter that was needed is logged as a warning, once per prior.

    ``spent``, a :class:`BlockedCovariance` over as many sites that its
    lender no longer reads, lends its two buffers: the covariance is
    written into its ``full`` and the factor into its ``chol``, so nothing
    of size (n + n*)^2 is allocated, and the result is bit for bit the one
    built without it.  A ``spent`` prior over another number of sites
    raises ``ValueError``.
    """
    full, buf = (None, None) if spent is None else (spent.full, spent.chol)
    full = _fill_bands(coords_obs, coords_unobs, full, params)
    blocked = BlockedCovariance(full, len(coords_obs), buf)
    if blocked.jitter:
        log.warning("covariance jitter escalated to %.3e", blocked.jitter)
    return blocked
