"""The Cholesky seam: scipy's own results bit for bit, and what callers rely on."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from glmmfp._lapack import potrf, potri, potrs

SRC = Path(__file__).resolve().parents[1] / "src" / "glmmfp"

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


_LAYOUT_FUNCTIONS = {"asfortranarray", "ascontiguousarray", "isfortran"}


def layout_namings(tree):
    """Each place in ``tree`` that reads an array's contiguity flags, passes an
    ``order=`` or makes an array of a given layout, as written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.endswith("contiguous"):
            yield ast.unparse(node)
        elif isinstance(node, ast.Constant) and "CONTIGUOUS" in str(node.value):
            yield node.value
        elif isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if any(k.arg == "order" for k in node.keywords):
                yield f"{func}(order=)"
            elif func.rpartition(".")[2] in _LAYOUT_FUNCTIONS:
                yield func


class TestOneLayoutCheck:
    """Only ``_lapack.workspace`` checks or allocates an array to be written in
    place; every other layout named in ``src/glmmfp`` is on one allowlist."""

    ALLOWED = {
        # the one check, and the one allocation, of an array written in place
        ("_lapack", "np.empty(order=)"),
        ("_lapack", "_CONTIGUOUS"),
        # read-only node grid, Fortran-ordered so that its products round alike
        ("oracle", "np.asfortranarray"),
        # a quadrature order, not a layout
        ("cli", "oracle.adjudicate_exactness(order=)"),
    }

    def test_only_workspace_names_a_buffers_layout(self):
        found = {
            (path.stem, name)
            for path in sorted(SRC.glob("*.py"))
            for name in layout_namings(ast.parse(path.read_text()))
        }
        assert found == self.ALLOWED

    @pytest.mark.parametrize(
        "source, names",
        [("a.flags.c_contiguous", ["a.flags.c_contiguous"]),
         ("a.flags.f_contiguous", ["a.flags.f_contiguous"]),
         ("a.flags['C_CONTIGUOUS']", ["C_CONTIGUOUS"]),
         ("np.empty((2, 2), order='F')", ["np.empty(order=)"]),
         ("numpy.zeros(3, order=o)", ["numpy.zeros(order=)"]),
         ("a.copy(order=o)", ["a.copy(order=)"]),
         ("f(a, order='C')", ["f(order=)"]),
         ("np.asfortranarray(a)", ["np.asfortranarray"]),
         ("asfortranarray(a)", ["asfortranarray"]),
         ("np.empty((2, 2))", []), ("a.T.copy()", [])],
    )
    def test_the_guard_sees_each_way_to_name_a_layout(self, source, names):
        assert list(layout_namings(ast.parse(source))) == names
