"""The Cholesky seam: scipy's own results bit for bit, and what callers rely on."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from glmmfp._lapack import potrf, potri, potrs

SIZES = [1, 7, 70]


def spd(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


@pytest.mark.parametrize("n", SIZES)
class TestMatchesScipy:
    def test_factor_is_made_in_the_callers_buffer(self, n):
        a = spd(n, 0)
        buf = a.copy(order="F")
        c = potrf(buf)
        assert np.shares_memory(c, buf)
        assert np.array_equal(np.tril(c), np.tril(cho_factor(a, lower=True)[0]))

    def test_solve(self, n):
        a = spd(n, 1)
        c = potrf(a.copy(order="F"))
        rhs = np.random.default_rng(1).standard_normal((n, 3))
        for b in (rhs[:, 0], rhs, a.T):
            assert np.array_equal(potrs(c, b), cho_solve((c, True), b))

    def test_inverse_is_exactly_symmetric(self, n):
        a = spd(n, 3)
        c = potrf(a.copy(order="F"))
        kept = c.copy()
        inv = potri(c)
        assert np.array_equal(inv, inv.T)
        want = np.linalg.solve(a, np.eye(n))
        assert np.max(np.abs(inv - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(c, kept)


def test_c_ordered_input_is_copied():
    a = spd(5, 4)
    before = a.copy()
    c = potrf(a)
    assert np.array_equal(a, before) and not np.shares_memory(c, a)


def test_indefinite_matrix_raises():
    with pytest.raises(np.linalg.LinAlgError):
        potrf(np.asfortranarray([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [4, 70])
def test_a_non_finite_entry_reaches_the_diagonal(n, bad):
    # covariance.BlockedCovariance rejects a non-finite prior by this alone
    rows, cols = np.tril_indices(n)
    for i, j in list(zip(rows, cols))[:: max(1, n // 4)]:
        a = spd(n, 5)
        a[i, j] = a[j, i] = bad
        try:
            c = potrf(a.copy(order="F"))
        except np.linalg.LinAlgError:
            continue
        assert not np.all(np.isfinite(c.diagonal())), (i, j)
