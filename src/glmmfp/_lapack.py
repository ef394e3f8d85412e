"""Cholesky factors in LAPACK's layout, and the LAPACK calls that make and use them.

A factor ``L`` of ``A = L L'`` is the lower triangle of a Fortran-ordered
array; what lies above its diagonal is unspecified.  :func:`potrf` makes
it in the caller's buffer, raising ``LinAlgError`` if ``A`` is not
positive definite, and the other calls leave it unchanged.  No entry is
checked for being finite: a non-finite entry of ``A``'s lower triangle
either stops ``potrf`` or reaches the factor's diagonal.  Every array
that the package writes in place and a caller may lend, such as a dead
factor, is checked or made by :func:`workspace`, so that repeated work
of one size allocates nothing and none is silently done in a copy.
"""

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotri, dpotrs


def workspace(buf, shape, order="F") -> np.ndarray:
    """``buf``, a float64 array of ``shape`` in ``order`` ("C" or "F") whose
    lender no longer reads it, or a new one if ``buf`` is None.  One of
    another shape, order or dtype raises ``ValueError``, where numpy or
    LAPACK would silently work in a copy or in single precision."""
    if buf is None:
        return np.empty(shape, order=order)
    if buf.shape != shape or buf.dtype != float or not buf.flags[order + "_CONTIGUOUS"]:
        raise ValueError(f"a lent array must be a {order}-ordered {shape} float64 array")
    return buf


def potrf(a) -> np.ndarray:
    """The factor of ``a``, made in ``a`` itself if ``a`` is Fortran-ordered."""
    return cho_factor(a, lower=True, overwrite_a=True, check_finite=False)[0]


def potrs(c, b) -> np.ndarray:
    """``A^-1 b`` for the factor ``c`` of ``A``."""
    return dpotrs(c, b, lower=True)[0]


def potri(c) -> np.ndarray:
    """``A^-1``, exactly symmetric, in a third of the flops of a solve against ``I``."""
    inv = dpotri(c, lower=True)[0]
    # potri fills the lower triangle and leaves the rest of its copy of c
    np.copyto(inv, inv.T, where=~np.tri(len(inv), dtype=bool))
    return inv
