"""Prior covariance construction for spatial random effects.

Implements the isotropic Matern covariance family over Euclidean site
coordinates and the blocked observed/unobserved covariance used for
prediction at new sites.  Smoothness 0.5 (exponential covariance), 1.5,
and 2.5 go through exact closed forms; other smoothness values use the
modified Bessel function of the second kind, whose ``scipy.special``
import is deferred to the branch that needs it.

The blocked covariance is built in one buffer over the stacked sites, one
band of 64 rows at a time: numpy computes the band's distances to the
sites from its own diagonal on, bit for bit as ``cdist`` does, in the
prior's observed rows where they hold two bands, :func:`matern`
overwrites them, and the band fills the upper triangle, the one that
LAPACK reads and writes.  No entry is made twice, and no
``scipy.spatial`` is loaded.  The observed rows are copied out, and the
buffer is factored in place; a jitter retry writes it again.  Its one
Cholesky factor is all that callers need, to draw from it, to certify its
observed block and to krig a draw (:mod:`simulate`'s oracle).  A prior
holds (n + n*)^2 + n (n + n*) doubles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from ._lapack import potrf, workspace

log = logging.getLogger(__name__)

# (n + n*)**2 doubles, the most that a prior over n + n* sites may hold.
# A fit peaks at about one such array (the covariance, factored in its
# distance buffer), plus the n x (n + n*) observed rows and the mode fit's
# n x n buffer; 2**24 doubles is 128 MiB an array, and n + n* <= 4096
PRIOR_BUDGET = 2**24

_JITTER_START = 1e-10
_JITTER_CAP = 1e-6
_NON_FINITE = "blocked covariance must not contain infs or NaNs"
# the strict lower triangle of a band of 64 rows: mirrored, zeroed above the
# factor and never written by the bands of distances (400 KiB at 800 sites)
_BAND_LOWER = np.tri(64, k=-1, dtype=bool)


def check_site_count(m: int, name: str):
    """The site budget: a ValueError naming ``name`` if a prior over ``m`` sites
    would hold more than ``PRIOR_BUDGET`` doubles."""
    if m**2 > PRIOR_BUDGET:
        raise ValueError(
            f"{name} must be at most {math.isqrt(PRIOR_BUDGET)}, a prior of "
            f"{PRIOR_BUDGET} doubles: {m}"
        )


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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
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
    nu = params.omega3
    # negation is exact, so (-omega2) d is -(omega2 d) bit for bit
    a = np.multiply(-params.omega2 if nu == 0.5 else params.omega2, d, out=out)
    sill = params.sill
    if nu == 0.5:
        np.exp(a, out=a)
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


def matern_scale_derivative(params: MaternParams, d, second: bool = False) -> np.ndarray:
    """Derivative of :func:`matern` in ``log omega2`` at distances ``d``.

    With ``a = omega2 d`` it is ``sill * a f'(a)`` for the correlation
    ``f``, and with ``second`` the second derivative
    ``sill * (a f'(a) + a^2 f''(a))``: closed forms, a polynomial times
    ``exp(-a)``, for smoothness 0.5/1.5/2.5, and otherwise from
    ``d/da [a^nu K_nu(a)] = -a^nu K_(nu-1)(a)``,
    ``-a^(nu+1) K_(nu-1)(a)`` and
    ``a^(nu+2) K_(nu-2)(a) - 2 a^(nu+1) K_(nu-1)(a)`` over
    ``2^(nu-1) Gamma(nu)``.  Both are 0 at ``d = 0``, so a diagonal
    jitter does not enter them.
    """
    a = params.omega2 * np.asarray(d, dtype=float)
    nu = params.omega3
    if nu in (0.5, 1.5, 2.5):
        if nu == 0.5:
            poly = a * (a - 1.0) if second else -a
        elif nu == 1.5:
            poly = a**2 * (a - 2.0) if second else -(a**2)
        elif second:
            poly = a**2 / 3.0 * (a**2 - 2.0 * a - 2.0)
        else:
            poly = -(a**2) * (1.0 + a) / 3.0
        af = poly * np.exp(-a)
    else:
        from scipy.special import gamma as gamma_fn, kv
        af = np.zeros_like(a)
        pos = a > 0
        ap = a[pos]
        with np.errstate(over="ignore", invalid="ignore"):
            ak = -(ap ** (nu + 1.0)) * kv(nu - 1.0, ap)
            if second:
                ak = 2.0 * ak + ap ** (nu + 2.0) * kv(nu - 2.0, ap)
            af[pos] = ak / (2.0 ** (nu - 1.0) * gamma_fn(nu))
        af[pos] = np.nan_to_num(af[pos], nan=0.0, posinf=0.0, neginf=0.0)
    return params.sill * af


class BlockedCovariance:
    """Observed/unobserved partition of a spatial prior covariance, and its factor.

    The constructor takes ``full``, a C-ordered (n + n*) x (n + n*) buffer
    whose upper triangle holds the covariance, ``n``, and ``source``, which
    writes that triangle again as ``source(full)`` (:func:`build_blocked`'s
    band fill, ``estimate``'s :func:`matern`); nothing below the diagonal is
    read.  ``full`` and a lent ``buf`` are checked by
    :func:`_lapack.workspace` before anything is written.  The observed rows
    go into ``rows`` (``buf`` or a new array), of which ``d11`` (n x n, its
    lower triangle mirrored from its upper one) and ``d12`` (n x n*) are
    views.  ``full`` is factored in place, certifying positive definiteness,
    and a diagonal jitter escalates tenfold from 1e-10 up to 1e-6 times the
    largest diagonal entry (the sill) before giving up; each retry has
    ``source`` write the covariance again.  A non-finite covariance raises
    ``ValueError``: the factor's diagonal is checked, and after a failed
    factorization the covariance is mirrored and scanned once.  ``jitter``
    is the regularization that was needed, which the constructor does not
    log, and ``chol``, in ``full``'s memory, the factor of the jittered
    covariance, upper triangle zeroed; its leading n x n block is the
    factor of ``d11``, so callers draw, krig and certify ``d11`` with it
    instead of factoring again.
    """

    def __init__(self, full: np.ndarray, n: int, source, buf: np.ndarray | None = None):
        m = len(full)
        workspace(full, (m, m), "C")
        self.rows = buf = workspace(buf, (n, m), "C")
        self.d11, self.d12 = buf[:, :n], buf[:, n:]
        self.jitter = 0.0
        diag = full.diagonal().copy()
        scale = np.max(diag, initial=0.0)
        candidate = _JITTER_START * scale
        cap = _JITTER_CAP * scale
        while True:
            np.copyto(buf, full[:n])
            _mirror_upper(self.d11)
            try:
                # LAPACK reads and writes the lower triangle of the F-ordered full.T
                chol = potrf(full.T)
            except np.linalg.LinAlgError:
                source(full)
                if self.jitter == 0.0 and not np.all(np.isfinite(_mirror_upper(full))):
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
                # zero the upper triangle in bands of the contiguous rows of full
                b = len(_BAND_LOWER)
                for j in range(0, m, b):
                    band = full[j : j + b]
                    band[:, :j] = 0.0
                    band[:, j : j + b][_BAND_LOWER[: len(band), : len(band)]] = 0.0
                self.chol = chol
                return

    @property
    def n_observed(self) -> int:
        return self.d11.shape[0]


def _mirror_upper(a):
    """The square ``a``, its strict upper triangle copied over its strict lower
    one in bands of ``len(_BAND_LOWER)`` rows: no index array of ``a``'s size."""
    b = len(_BAND_LOWER)
    for i in range(0, len(a), b):
        block = a[i : i + b, i : i + b]
        lower = _BAND_LOWER[: len(block), : len(block)]
        block[lower] = block.T[lower]
        a[i : i + b, :i] = a[:i, i : i + b].T
    return a


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
    :func:`check_site_count` allows are rejected before their prior is allocated."""
    obs = _as_coords(coords_obs)
    if len(obs) < 1:
        raise ValueError("at least one observed site is required")
    unobs = obs[:0]
    if coords_unobs is not None and np.size(coords_unobs):
        unobs = _as_coords(coords_unobs)
        if unobs.shape[1] != obs.shape[1]:
            raise ValueError("observed and unobserved coordinate dimensions differ")
    check_site_count(len(obs) + len(unobs), "the number of sites")
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


def _fill_bands(obs, unobs, out, params: MaternParams | None = None, scratch=None):
    """Distances among the checked sites ``obs``, then ``unobs``, or their
    Matern covariance under ``params``, in the upper triangle of ``out``.

    :func:`_distances` fills one band of ``len(_BAND_LOWER)`` rows at a
    time, over the sites from the band's own diagonal on, in a contiguous
    band scratch, whose ufunc loops run faster than over the strided rows
    of ``out``, and under ``params`` :func:`matern` overwrites it.  The band
    is copied into ``out`` but for its strict lower triangle, so nothing
    below the diagonal is written.  The scratch is in ``scratch``, C-ordered
    and unread until this returns, where that holds two bands, else new.
    The exact zeros among the observed sites are counted before
    :func:`matern` overwrites them: the diagonal holds one per site,
    and any other is a duplicate observed site, which makes the observed
    block singular.
    """
    n, m, b = len(obs), len(obs) + len(unobs), len(_BAND_LOWER)
    cols = np.concatenate([obs.T, unobs.T], axis=1)
    size = min(b, m) * m
    if scratch is None or scratch.size < 2 * size:
        scratch = np.empty(2 * size)
    bands, squares = scratch.reshape(-1)[: 2 * size].reshape(2, size)
    zeros = 0
    for i in range(0, m, b):
        j = min(i + b, m)
        band = bands[: (j - i) * (m - i)].reshape(j - i, m - i)
        sq = squares[: band.size].reshape(band.shape)
        _distances(cols[:, i:j], cols[:, i:], band, sq)
        if i < n:
            zeros += np.count_nonzero(band[: n - i, : n - i] == 0.0)
        if params is not None:
            matern(params, band, out=band)
        out[i:j, j:] = band[:, j - i :]
        np.copyto(out[i:j, i:j], band[:, : j - i], where=~_BAND_LOWER[: j - i, : j - i])
    if zeros > n:
        raise ValueError("duplicate observed coordinates make the prior singular")
    return out


def site_distances(coords_obs, coords_unobs=None) -> np.ndarray:
    """Distances among the observed sites, then the unobserved ones, bit for
    bit as ``cdist`` makes them and exactly symmetric (:func:`_fill_bands`,
    mirrored).  The sites are checked by :func:`_check_sites`, and duplicate
    observed sites, which make the observed block singular, are rejected."""
    obs, unobs = _check_sites(coords_obs, coords_unobs)
    m = len(obs) + len(unobs)
    return _mirror_upper(_fill_bands(obs, unobs, np.empty((m, m))))


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

    The sites are checked as by :func:`site_distances`, and
    :func:`_fill_bands` overwrites each band of distances with its
    covariance as soon as it is made, in the prior's ``rows``; it is the
    :class:`BlockedCovariance` source too.  The Matern diagonal is the
    sill, so the certification jitter runs from 1e-10 x sill to 1e-6 x
    sill; a jitter that was needed is logged as a warning, once per prior.

    ``spent``, a :class:`BlockedCovariance` over as many sites, split
    alike, that its lender no longer reads, lends all its buffers: the
    covariance is written and factored in the memory of its ``chol``, and
    the bands and the observed rows are made in its ``rows``, so nothing
    of size (n + n*)^2 is allocated, and the result is bit for bit the one
    built without it.  A ``spent`` prior over another number or split of
    sites raises ``ValueError`` before anything is written.
    """
    obs, unobs = _check_sites(coords_obs, coords_unobs)
    n, m = len(obs), len(obs) + len(unobs)
    full, rows = (None, None) if spent is None else (spent.chol.T, spent.rows)
    full, rows = workspace(full, (m, m), "C"), workspace(rows, (n, m), "C")
    source = partial(_fill_bands, obs, unobs, params=params, scratch=rows)
    blocked = BlockedCovariance(source(full), n, source, rows)
    if blocked.jitter:
        log.warning("covariance jitter escalated to %.3e", blocked.jitter)
    return blocked
