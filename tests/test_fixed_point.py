import ast
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from glmmfp import _lapack, families, fixed_point
from glmmfp.covariance import MaternParams, build_blocked, matern, site_distances
from glmmfp.families import binomial_kernel, gaussian_kernel, poisson_kernel
from glmmfp.fixed_point import GlmmProblem, corrected_mean, fit_posterior
from glmmfp.oracle import fixed_point_residual, moments_quadrature


def random_problem(rng, family, n, r):
    p = int(rng.integers(1, 3))
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, r))
    A = rng.standard_normal((r, r))
    D = 0.4 * (A @ A.T) + 0.3 * np.eye(r)
    beta = rng.uniform(-0.4, 0.8, size=p)
    gamma = np.linalg.cholesky(D) @ rng.standard_normal(r)
    eta = X @ beta + Z @ gamma
    if family == "poisson":
        kernel = poisson_kernel()
        y = rng.poisson(np.exp(np.clip(eta, -20, 5))).astype(float)
    elif family == "binomial":
        m = rng.integers(1, 9, size=n)
        kernel = binomial_kernel(m)
        y = rng.binomial(m.astype(int), 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        kernel = gaussian_kernel(1.0)
        y = eta + rng.standard_normal(n)
    return GlmmProblem(y=y, X=X, Z=Z, D=D, beta=beta, kernel=kernel)


class TestProblemValidation:
    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="one row per observation"):
            GlmmProblem(
                y=np.array([1.0, 2.0]),
                X=np.ones((3, 1)),
                Z=np.eye(2),
                D=np.eye(2),
                beta=np.zeros(1),
                kernel=poisson_kernel(),
            )

    def test_beta_length(self):
        with pytest.raises(ValueError, match="beta length"):
            GlmmProblem(
                y=np.array([1.0]),
                X=np.ones((1, 2)),
                Z=np.eye(1),
                D=np.eye(1),
                beta=np.zeros(1),
                kernel=poisson_kernel(),
            )

    def test_prior_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GlmmProblem(
                y=np.array([1.0, 0.0]),
                X=np.ones((2, 1)),
                Z=np.eye(2),
                D=np.array([[1.0, 0.5], [0.0, 1.0]]),
                beta=np.zeros(1),
                kernel=poisson_kernel(),
            )

    @pytest.mark.parametrize("asymmetry, raises", [(1e-3, True), (1e-7, False)])
    def test_prior_symmetry_tolerance(self, asymmetry, raises):
        # |D - D'| <= 1e-12 + 1e-5 |D'|, the tolerance of np.allclose(atol=1e-12)
        D = np.array([[1.0, 0.5 + asymmetry], [0.5, 1.0]])

        def build():
            return GlmmProblem(
                y=np.array([1.0, 0.0]), X=np.ones((2, 1)), Z=np.eye(2), D=D,
                beta=np.zeros(1), kernel=poisson_kernel(),
            )

        if raises:
            with pytest.raises(ValueError, match="symmetric"):
                build()
        else:
            assert np.array_equal(build().D, D)

    def test_prior_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            GlmmProblem(
                y=np.array([1.0, 0.0]),
                X=np.ones((2, 1)),
                Z=np.eye(2),
                D=-np.eye(2),
                beta=np.zeros(1),
                kernel=poisson_kernel(),
            )

    def test_response_support_checked(self):
        with pytest.raises(ValueError):
            GlmmProblem(
                y=np.array([-1.0]),
                X=np.ones((1, 1)),
                Z=np.eye(1),
                D=np.eye(1),
                beta=np.zeros(1),
                kernel=poisson_kernel(),
            )


class TestGaussianConjugacy:
    def closed_form(self, problem):
        s2 = problem.kernel.variance
        Z, D, X = problem.Z, problem.D, problem.X
        R = Z @ D @ Z.T + s2 * np.eye(problem.n)
        resid = problem.y - X @ problem.beta
        xi = D @ Z.T @ np.linalg.solve(R, resid)
        Xi = D - D @ Z.T @ np.linalg.solve(R, Z @ D)
        return xi, 0.5 * (Xi + Xi.T)

    def test_matches_closed_form_in_one_iteration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            problem = random_problem(
                rng, "gaussian", int(rng.integers(3, 12)), int(rng.integers(1, 5))
            )
            report = fit_posterior(problem)
            assert report.converged
            assert report.iterations == 1
            xi, Xi = self.closed_form(problem)
            assert np.max(np.abs(report.xi - xi)) < 1e-10
            assert np.max(np.abs(report.Xi - Xi)) < 1e-10

    @pytest.mark.parametrize("scale", [1e-8, 1e6, 1e8])
    def test_stop_holds_at_every_scale(self, scale):
        # response, fixed effects and noise scaled by s, prior by s^2: the mode
        # scales by s, and the first iterate is still the conjugate posterior,
        # though its roundoff in xi or b exceeds TOL
        rng = np.random.default_rng(0)
        coords = rng.uniform(0, 5, size=(50, 2))
        D = build_blocked(MaternParams(0.5, 1.0), coords).d11
        y = 2.0 + np.linalg.cholesky(D) @ rng.standard_normal(50) + rng.standard_normal(50)

        def fit(s):
            return fit_posterior(GlmmProblem(
                y=s * y, X=np.ones((50, 1)), Z=None, D=s * s * D,
                beta=np.array([2.0 * s]), kernel=gaussian_kernel(s * s),
            ))

        unit, report = fit(1.0), fit(scale)
        assert report.converged and report.iterations == 1
        assert np.max(np.abs(report.xi / scale - unit.xi)) < 1e-9


class TestPoissonScalar:
    def test_fixed_point_is_posterior_mode(self):
        # n = r = 1, Z = 1, D = 1, beta = 0, y = 3: the fixed point solves
        # the score equation y - exp(xi) - xi = 0
        problem = GlmmProblem(
            y=np.array([3.0]),
            X=np.zeros((1, 1)),
            Z=np.eye(1),
            D=np.eye(1),
            beta=np.zeros(1),
            kernel=poisson_kernel(),
        )
        report = fit_posterior(problem)
        assert report.converged
        mode = brentq(lambda x: 3.0 - np.exp(x) - x, -5.0, 5.0, xtol=1e-14)
        assert report.xi[0] == pytest.approx(mode, abs=1e-9)
        assert report.xi[0] == pytest.approx(0.7920599684310518, abs=1e-10)

    def test_covariance_is_curvature_inverse(self):
        problem = GlmmProblem(
            y=np.array([3.0]),
            X=np.zeros((1, 1)),
            Z=np.eye(1),
            D=np.eye(1),
            beta=np.zeros(1),
            kernel=poisson_kernel(),
        )
        state = fit_posterior(problem)
        expected = 1.0 / (1.0 + np.exp(state.xi[0]))
        assert state.Xi[0, 0] == pytest.approx(expected, abs=1e-10)


class TestCorrectedMean:
    def test_poisson_scalar_closed_form(self):
        # y = 2, N(0, 1) prior: xi - Xi^2 exp(xi) / 2, with Xi = 1/(1 + exp(xi))
        problem = GlmmProblem(
            y=np.array([2.0]),
            X=np.zeros((1, 1)),
            Z=np.eye(1),
            D=np.eye(1),
            beta=np.zeros(1),
            kernel=poisson_kernel(),
        )
        state = fit_posterior(problem)
        mode = state.xi[0]
        Xi = 1.0 / (1.0 + np.exp(mode))
        got = corrected_mean(state)[0]
        assert got == pytest.approx(mode - 0.5 * Xi**2 * np.exp(mode), abs=1e-10)
        assert got == pytest.approx(0.32379, abs=1e-5)

    def test_gaussian_correction_is_zero(self):
        rng = np.random.default_rng(3)
        for r in (5, 3):
            problem = random_problem(rng, "gaussian", 5, r)
            state = fit_posterior(problem)
            assert np.array_equal(corrected_mean(state), state.xi)


class TestCertificate:
    @pytest.mark.parametrize("family", ["poisson", "binomial"])
    def test_converged_iterate_satisfies_the_equation(self, family):
        rng = np.random.default_rng(11)
        for _ in range(10):
            problem = random_problem(
                rng, family, int(rng.integers(5, 40)), int(rng.integers(1, 8))
            )
            report = fit_posterior(problem)
            assert report.converged, f"non-convergence on a random {family} instance"
            assert fixed_point_residual(problem, report.xi) <= 1e-9
            assert report.residual <= 1e-10

    def test_certificate_solves_on_its_own(self, monkeypatch):
        # a check of the mode that shares no factor routine with the solver
        problem = random_problem(np.random.default_rng(7), "poisson", 12, 3)
        xi = fit_posterior(problem).xi
        calls = []
        for module, name in ((fixed_point, "_factor"), (fixed_point, "potrf"),
                             (fixed_point, "potrs"), (_lapack, "potrf"), (_lapack, "potrs")):

            def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        assert fixed_point_residual(problem, xi) <= 1e-9
        assert calls == []

    def test_oracle_imports_nothing_private_from_the_solver(self):
        tree = ast.parse((SRC / "oracle.py").read_text())
        names = [
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "fixed_point"
            for alias in node.names
        ]
        assert "fit_posterior" in names
        assert [name for name in names if name.startswith("_")] == []

    def test_covariance_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            problem = random_problem(rng, "poisson", 20, 4)
            state = fit_posterior(problem)
            assert np.max(np.abs(state.Xi - state.Xi.T)) <= 1e-12
            # posterior covariance is dominated by the prior
            eigmin = np.min(np.linalg.eigvalsh(problem.D - state.Xi))
            assert eigmin >= -1e-10
            assert np.all(np.linalg.eigvalsh(state.Xi) > 0)


def identity_problem(rng, family, n):
    """A spatial-style instance: the site design and a Matern prior over random sites."""
    D = build_blocked(MaternParams(0.5, 1.0), rng.uniform(0, 6, size=(n, 2))).d11
    base = random_problem(rng, family, n, n)
    return GlmmProblem(
        y=base.y, X=base.X, Z=None, D=D, beta=base.beta, kernel=base.kernel
    )


class TestSiteDesign:
    """``Z = None`` is the site design ``Z = I``, which is never formed."""

    @pytest.mark.parametrize("n", [15, 100])
    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_site_design_is_the_explicit_identity_bit_for_bit(self, family, n):
        site = identity_problem(np.random.default_rng(n), family, n)
        explicit = GlmmProblem(
            y=site.y, X=site.X, Z=np.eye(n), D=site.D, beta=site.beta, kernel=site.kernel,
        )
        assert site.Z is None and explicit.Z is not None and explicit.r == site.r == n
        a, b = fit_posterior(site), fit_posterior(explicit)
        assert a.converged and a.trace == b.trace
        for name in ("xi", "alpha", "chol", "Xi"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(corrected_mean(a), corrected_mean(b))

    def test_prior_must_be_n_x_n(self):
        base = identity_problem(np.random.default_rng(3), "poisson", 6)
        for D in (np.eye(5), np.eye(7), np.ones((6, 5))):
            with pytest.raises(ValueError, match="r x r"):
                GlmmProblem(y=base.y, X=base.X, Z=None, D=D, beta=base.beta,
                            kernel=base.kernel)

    def test_products_are_skipped(self):
        problem = identity_problem(np.random.default_rng(5), "poisson", 6)
        v = np.arange(6.0)
        assert problem.effects(v) is v and problem.adjoint(v) is v


class TestSolverPaths:
    """One iterate, factoring the n x n R = Z D Z' + W^-1, for every design.

    The site design ``Z = None`` only skips the products by ``Z``.
    """

    def test_factor_dimension_follows_the_design(self):
        # n x n whatever the design
        rng = np.random.default_rng(17)
        problem = identity_problem(rng, "poisson", 12)
        assert problem.Z is None and problem.r == 12
        assert fit_posterior(problem).chol.shape == (12, 12)
        for n, r in ((30, 3), (6, 6), (4, 9)):
            problem = random_problem(rng, "poisson", n, r)
            assert problem.Z is not None
            report = fit_posterior(problem)
            assert report.converged
            assert report.chol.shape == (n, n)

    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_both_paths_agree(self, family, monkeypatch):
        # Z = 2I with prior D/4 is the site-design model in xi/2, with
        # every product by Z formed
        monkeypatch.setattr(fixed_point, "TOL", 1e-13)
        problem = identity_problem(np.random.default_rng(23), family, 15)
        scaled = GlmmProblem(
            y=problem.y, X=problem.X, Z=2.0 * np.eye(15), D=problem.D / 4.0,
            beta=problem.beta, kernel=problem.kernel,
        )
        state = fit_posterior(problem)
        half = fit_posterior(scaled)
        assert np.max(np.abs(state.xi - 2.0 * half.xi)) < 1e-10
        assert np.max(np.abs(state.alpha - 0.5 * half.alpha)) < 1e-9
        assert np.max(np.abs(state.Xi - 4.0 * half.Xi)) < 1e-10

    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_prior_is_not_overwritten(self, family):
        # the site path factors R in place in a copy of D, a view of the prior's
        # observed rows
        rng = np.random.default_rng(29)
        params = MaternParams(0.5, 1.0)
        sites = rng.uniform(0, 6, size=(15, 2)), rng.uniform(0, 6, size=(4, 2))
        blocked = build_blocked(params, *sites)
        base = random_problem(rng, family, 15, 15)
        problems = [
            GlmmProblem(y=base.y, X=base.X, Z=None, D=blocked.d11, beta=base.beta,
                        kernel=base.kernel, factor=blocked.chol[:15, :15]),
            random_problem(rng, family, 30, 3),
        ]
        rows, chol = blocked.rows.copy(), blocked.chol.copy()
        for problem in problems:
            D = problem.D.copy()
            state = fit_posterior(problem)
            assert np.all(np.isfinite(state.Xi))  # Xi solves with the last factor
            assert np.array_equal(problem.D, D)
        assert problems[0].Z is None and problems[1].Z is not None
        assert np.array_equal(blocked.rows, rows) and np.array_equal(blocked.chol, chol)
        full = matern(params, site_distances(*sites))
        assert blocked.jitter == 0.0 and np.array_equal(blocked.rows, full[:15])

    # alpha belongs to the reported xi, also when a loose TOL stops early
    @pytest.mark.parametrize("tol", [1e-10, 1e-2])
    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_alpha_is_the_prior_precision_image_of_xi(self, family, tol, monkeypatch):
        monkeypatch.setattr(fixed_point, "TOL", tol)
        rng = np.random.default_rng(19)
        problems = [identity_problem(rng, family, 15)] + [
            random_problem(rng, family, n, r) for n, r in ((30, 3), (5, 5), (4, 7))
        ]
        for problem in problems:
            state = fit_posterior(problem)
            alpha = np.linalg.solve(problem.D, state.xi)
            assert np.max(np.abs(state.alpha - alpha)) < 1e-10


class TestFactorBuffer:
    """One factor buffer per fit, solved with LAPACK's potrs."""

    def test_fits_do_not_share_a_factor(self, monkeypatch):
        problem = identity_problem(np.random.default_rng(31), "poisson", 20)
        first = fit_posterior(problem)
        factor = first.chol.copy()
        want = fixed_point._covariance(problem, factor)
        # both end on factors other than the mode's
        monkeypatch.setattr(fixed_point, "MAX_ITER", 1)
        second = fit_posterior(problem)
        fixed_point_residual(problem, first.xi + 0.3)
        assert not np.array_equal(second.chol, factor)
        assert first.chol.flags.f_contiguous
        assert not np.shares_memory(first.chol, second.chol)
        assert np.array_equal(first.chol, factor)
        assert np.array_equal(first.Xi, want)

    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_lent_buffer_holds_the_factor_bit_for_bit(self, family, monkeypatch):
        problem = identity_problem(np.random.default_rng(41), family, 20)
        fresh = fit_posterior(problem)
        # the buffer of an earlier fit, its contents stale
        with monkeypatch.context() as patch:
            patch.setattr(fixed_point, "MAX_ITER", 1)
            lent = fit_posterior(problem).chol
        report = fit_posterior(problem, lent)
        assert np.shares_memory(report.chol, lent)
        for name in ("xi", "alpha", "chol", "w", "eta"):
            assert np.array_equal(getattr(report, name), getattr(fresh, name))
        assert report.log_posterior == fresh.log_posterior
        assert report.trace == fresh.trace

    def test_lent_buffer_of_another_shape_or_order_rejected(self):
        problem = identity_problem(np.random.default_rng(43), "poisson", 6)
        for buf in (np.zeros((5, 5), order="F"), np.zeros((1, 1), order="F"),
                    np.zeros((6, 6), order="C"), np.zeros((6, 6), np.float32, order="F")):
            with pytest.raises(ValueError, match="lent array"):
                fit_posterior(problem, buf)
            assert not buf.any()

    def test_solve_is_cho_solve(self):
        from scipy.linalg import cho_solve

        problem = identity_problem(np.random.default_rng(37), "binomial", 12)
        chol = fit_posterior(problem).chol
        rhs = np.random.default_rng(1).standard_normal((12, 3))
        for b in (rhs[:, 0], rhs, problem.D.T):
            assert np.array_equal(fixed_point.potrs(chol, b), cho_solve((chol, True), b))


SRC = Path(__file__).resolve().parents[1] / "src" / "glmmfp"


def explicit_inverses(tree):
    """Each ``linalg.inv`` that ``tree`` calls or imports, as written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            yield from (f"{node.module}.{a.name}" for a in node.names if a.name == "inv")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if node.func.attr == "inv" and name == "linalg":
                yield ast.unparse(node.func)


class TestNoExplicitInverse:
    """The solver solves with a Cholesky factor; no module inverts a matrix."""

    def test_no_module_calls_linalg_inv(self):
        found = {
            (path.stem, call)
            for path in sorted(SRC.glob("*.py"))
            for call in explicit_inverses(ast.parse(path.read_text()))
        }
        assert found == set()

    @pytest.mark.parametrize(
        "source, calls",
        [("np.linalg.inv(D)", ["np.linalg.inv"]), ("linalg.inv(D)", ["linalg.inv"]),
         ("scipy.linalg.inv(D)", ["scipy.linalg.inv"]),
         ("from scipy.linalg import cho_factor, inv", ["scipy.linalg.inv"]),
         ("from numpy.linalg import inv", ["numpy.linalg.inv"]),
         ("np.linalg.solve(D, b)", []), ("cf.inv(D)", []), ("from numpy import inv", [])],
    )
    def test_the_guard_sees_each_way_to_invert(self, source, calls):
        assert list(explicit_inverses(ast.parse(source))) == calls


def scipy_bindings(tree):
    """Each ``scipy`` name that ``tree`` imports or reads off the package, as written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "scipy":
                yield from (f"{module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "scipy"):
            yield ast.unparse(node)


class TestOneLapackModule:
    """Every scipy name bound in ``src/glmmfp`` is on one allowlist."""

    ALLOWED = {
        # every factorization and solve of scipy's goes through _lapack
        ("_lapack", "scipy.linalg.cho_factor"),
        ("_lapack", "scipy.linalg.lapack.dpotri"),
        ("_lapack", "scipy.linalg.lapack.dpotrs"),
        # deferred: general smoothness
        ("covariance", "scipy.special.gamma"),
        ("covariance", "scipy.special.kv"),
        # unused; it stays while bench/tests/test_bench.py::
        # test_install_glmmfp_traces_every_binding_of_fit_posterior asserts
        # that the tracer wraps it
        ("spatial", "scipy.linalg.cho_factor"),
    }

    def test_only_lapack_binds_scipy_linalg(self):
        found = {
            (path.stem, name)
            for path in sorted(SRC.glob("*.py"))
            for name in scipy_bindings(ast.parse(path.read_text()))
        }
        assert found == self.ALLOWED

    @pytest.mark.parametrize(
        "source, names",
        [("from scipy.linalg import cho_factor", ["scipy.linalg.cho_factor"]),
         ("from scipy.linalg.lapack import dpotrs", ["scipy.linalg.lapack.dpotrs"]),
         ("from scipy import linalg", ["scipy.linalg"]),
         ("import scipy.linalg.lapack", ["scipy.linalg.lapack"]),
         ("scipy.linalg.cho_solve(c, b)", ["scipy.linalg"]),
         ("from scipy.spatial.distance import cdist", ["scipy.spatial.distance.cdist"]),
         ("from numpy.linalg import cholesky", []), ("np.linalg.cholesky(a)", []),
         ("from scipy.optimize import minimize", ["scipy.optimize.minimize"]),
         ("import scipy.optimize as so", ["scipy.optimize"]),
         ("import scipy", ["scipy"]), ("from scipyx import f", [])],
    )
    def test_the_guard_sees_each_way_to_bind(self, source, names):
        assert list(scipy_bindings(ast.parse(source))) == names


class TestLogPosterior:
    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_cached_response_term_is_bitwise_the_full_form(self, family):
        rng = np.random.default_rng(41)
        for problem in (identity_problem(rng, family, 14), random_problem(rng, family, 9, 3)):
            xi = rng.standard_normal(problem.r)
            a = rng.standard_normal(problem.r)
            eta = problem.X @ problem.beta + problem.effects(xi)
            full = families.log_likelihood(problem.kernel, eta, problem.y)
            got = fixed_point._log_posterior(problem, eta, xi, a)
            assert got == float(full - 0.5 * (xi @ a))


class TestNonConvergence:
    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(fixed_point, "MAX_ITER", 1)
        rng = np.random.default_rng(23)
        problem = random_problem(rng, "poisson", 15, 3)
        report = fit_posterior(problem)
        assert not report.converged
        assert report.iterations == 1
        assert report.residual > 0
        assert len(report.trace) == 1

    def test_trace_records_steps(self):
        rng = np.random.default_rng(29)
        problem = random_problem(rng, "poisson", 15, 3)
        report = fit_posterior(problem)
        assert report.converged
        assert len(report.trace) == report.iterations
        steps = [s for s, _ in report.trace]
        assert steps[-1] <= steps[0] or report.iterations <= 2

    def test_damped_iteration_still_converges(self):
        # from the start, the full Newton step lowers the log-posterior:
        # it is halved twice, then the iteration converges to the mode
        y, z = np.array([5.0, 50.0]), np.array([-2.1, 0.6])
        problem = GlmmProblem(
            y=y, X=np.zeros((2, 1)), Z=z[:, None], D=np.array([[100.0]]),
            beta=np.zeros(1), kernel=poisson_kernel(),
        )
        buf = np.empty((2, 2), order="F")
        xi0, b0 = fixed_point._start(problem, buf, None)
        eta0 = problem.Z @ xi0
        _, delta, d_b, _ = fixed_point._newton_step(problem, eta0, b0, buf)
        full = fixed_point._log_posterior(
            problem, problem.Z @ (xi0 + delta), xi0 + delta, problem.Z.T @ (b0 + d_b)
        )
        assert full < fixed_point._log_posterior(problem, eta0, xi0, problem.Z.T @ b0)
        report = fit_posterior(problem)
        assert report.converged
        assert report.halvings > 0
        assert report.trace[0][0] < report.trace[0][1]
        assert fixed_point_residual(problem, report.xi) <= 1e-9
        mode = brentq(
            lambda x: z @ (y - np.exp(z * x)) - x / 100.0, -20.0, 20.0, xtol=1e-15
        )
        assert report.xi[0] == pytest.approx(mode, abs=1e-9)

    def test_large_counts_do_not_stall(self):
        # counts near e^14: the log-likelihood's terms are ~1e7 while their
        # sum is ~1e2, so roundoff alone must not reject a Newton step
        for seed in range(4):
            rng = np.random.default_rng(seed)
            coords = rng.uniform(0, 10, size=(40, 2))
            D = build_blocked(MaternParams(0.5, 1.0), coords).d11
            gamma = np.linalg.cholesky(D) @ rng.standard_normal(40)
            y = rng.poisson(np.exp(14.0 + gamma)).astype(float)
            problem = GlmmProblem(
                y=y, X=np.ones((40, 1)), Z=np.eye(40), D=D, beta=np.array([14.0]),
                kernel=poisson_kernel(),
            )
            report = fit_posterior(problem)
            assert report.converged and report.halvings == 0
            assert report.iterations <= 3

    def test_running_out_of_halvings_is_reported(self, monkeypatch):
        # a log-posterior that falls at every trial point
        rng = np.random.default_rng(31)
        problem = random_problem(rng, "poisson", 15, 3)
        values = iter([0.0])
        monkeypatch.setattr(
            fixed_point, "_log_posterior", lambda *args: next(values, -np.inf)
        )
        report = fit_posterior(problem)
        assert not report.converged
        assert report.iterations == 1
        assert report.halvings == fixed_point._MAX_HALVINGS + 1
        assert report.trace == [(0.0, report.residual)]
        assert report.residual > 0
        assert report.Xi.shape == (3, 3)


class TestLargePredictors:
    """The mode is found wherever the predictor is within the families' clamp."""

    def test_huge_count_fits_to_its_score(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(0, 5, size=(12, 2))
        y = rng.poisson(5, size=12).astype(float)
        y[3] = 2e13
        blocked = build_blocked(MaternParams(0.5, 1.0), coords)
        problem = GlmmProblem(y=y, X=np.ones((12, 1)), Z=None, D=blocked.d11,
                              beta=np.array([1.5]), kernel=poisson_kernel())
        tol = fixed_point.TOL
        report = fit_posterior(problem)
        assert report.converged and report.residual <= tol
        assert not report.eta_clamped and report.eta[3] > 30.0
        # the log-posterior's gradient y - mu - D^-1 xi, against the count
        score = y - np.exp(report.eta)
        assert np.max(np.abs(score - report.alpha)) <= tol * y[3]

    @pytest.mark.parametrize("sill", [1e8, 1e20])
    def test_separated_binomial_under_a_large_sill_converges(self, sill):
        # y = 0 and y = m under independent effects: the modes are -+eta with
        # m e^-eta ~ eta / sill, past eta = 37 where 1 - p rounds to 0 at 1e20
        m = np.array([4.0, 4.0])
        problem = GlmmProblem(y=np.array([0.0, 4.0]), X=np.ones((2, 1)), Z=None,
                              D=sill * np.eye(2), beta=np.zeros(1), kernel=binomial_kernel(m))
        report = fit_posterior(problem)
        assert report.converged and not report.eta_clamped
        xi = report.xi
        assert xi[1] == pytest.approx(-xi[0], rel=1e-12)
        assert 4.0 * np.exp(-xi[1]) / (1.0 + np.exp(-xi[1])) == pytest.approx(
            xi[1] / sill, rel=1e-10
        )

    def test_separated_binomial_reaches_its_mode_within_the_iteration_cap(self):
        # under a sill of 1e100 each Newton step moves the predictor about one
        # unit through the likelihood's exponential tail, so the walk to the
        # modes at -+226.2 takes 228 iterates; the clamp bounds any such walk
        assert fixed_point.MAX_ITER > families.ETA_CLAMP
        m = np.array([4.0, 4.0])
        problem = GlmmProblem(y=np.array([0.0, 4.0]), X=np.ones((2, 1)), Z=None,
                              D=1e100 * np.eye(2), beta=np.zeros(1), kernel=binomial_kernel(m))
        report = fit_posterior(problem)
        assert report.converged and report.iterations == 228
        assert report.xi == pytest.approx([-226.2, 226.2], abs=0.05)


def stress_battery(seed=1, count=3000):
    """Badly conditioned random problems.

    Designs and priors scaled over two and three decades, Poisson counts
    at very low and high rates, and separated binomial data (every count
    0 or m).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 30))
        r = int(rng.integers(1, 8))
        p = int(rng.integers(1, 3))
        X = rng.standard_normal((n, p))
        Z = rng.choice([1.0, 3.0, 10.0]) * rng.standard_normal((n, r))
        A = rng.standard_normal((r, r))
        D = rng.choice([0.1, 1.0, 10.0, 100.0]) * (0.4 * (A @ A.T) + 0.3 * np.eye(r))
        beta = rng.uniform(-0.4, 0.8, size=p)
        if rng.random() < 0.5:
            kernel = poisson_kernel()
            y = rng.poisson(rng.choice([0.1, 1.0, 50.0]), size=n).astype(float)
        else:
            m = rng.integers(1, 9, size=n)
            kernel = binomial_kernel(m)
            y = np.where(rng.random(n) < 0.5, 0.0, m.astype(float))
        yield GlmmProblem(y=y, X=X, Z=Z, D=D, beta=beta, kernel=kernel)


class TestStressBattery:
    def test_every_problem_converges(self):
        failures, iterations, halved = [], [], 0
        for i, problem in enumerate(stress_battery()):
            try:
                report = fit_posterior(problem)
            except Exception as exc:  # noqa: BLE001 - counted, then asserted
                failures.append((i, repr(exc)))
                continue
            if not report.converged:
                failures.append((i, f"not converged, residual {report.residual:.3e}"))
            iterations.append(report.iterations)
            halved += report.halvings > 0
        assert failures == []
        print(
            f"\nstress battery: 3000/3000 converged, at most {max(iterations)} "
            f"iterations (median {np.median(iterations):g}), {halved} used halving"
        )


class TestPriorFactor:
    """A certified factor of D replaces GlmmProblem's own check of D."""

    @staticmethod
    def problem(D, **kwargs):
        n = D.shape[0]
        return GlmmProblem(
            y=np.ones(n), X=np.ones((n, 1)), Z=np.eye(n), D=D, beta=np.zeros(1),
            kernel=poisson_kernel(), **kwargs,
        )

    def test_factor_skips_the_check(self, monkeypatch):
        blocked = build_blocked(MaternParams(0.5, 1.0), np.arange(10.0).reshape(5, 2))
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        self.problem(blocked.d11, factor=blocked.chol)
        assert calls == []
        self.problem(blocked.d11)
        assert calls == [(5, 5)]

    def test_factor_must_match_the_prior(self):
        blocked = build_blocked(MaternParams(0.5, 1.0), np.arange(10.0).reshape(5, 2))
        with pytest.raises(ValueError, match="factor"):
            self.problem(blocked.d11, factor=blocked.chol[:4, :4])

    @pytest.mark.parametrize(
        "D",
        [
            np.array([[1.0, 0.2], [0.1, 1.0]]),  # positive definite, not symmetric
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # symmetric, indefinite
            np.array([[1.0, 1.0], [1.0, 1.0]]),  # symmetric, singular
            np.array([[1.0, 0.0], [0.0, np.inf]]),  # symmetric, not finite
        ],
    )
    def test_without_a_factor_bad_priors_are_rejected(self, D):
        with pytest.raises(ValueError, match="symmetric|positive definite"):
            self.problem(D)
        with pytest.raises(ValueError, match="symmetric|positive definite"):
            self.problem(D, factor=None)


class TestReplacedPrior:
    """Another prior and beta for one response, as the boundary poses its limit:
    ``dataclasses.replace`` builds a new problem, with the constructor's checks."""

    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_fit_is_that_of_a_new_problem(self, family):
        rng = np.random.default_rng(23)
        first = identity_problem(rng, family, 12)
        fit_posterior(first)  # caches the response term
        blocked = build_blocked(MaternParams(0.3, 2.0, 1.5), rng.uniform(0, 6, (12, 2)))
        beta = first.beta + 0.2
        moved = replace(first, D=blocked.d11, beta=beta, factor=blocked.chol)
        fresh = GlmmProblem(
            y=first.y, X=first.X, Z=first.Z, D=blocked.d11, beta=beta,
            kernel=first.kernel,
        )
        # nothing cached on the first problem is carried over
        assert "response_term" not in vars(moved) and "ZDZt" not in vars(moved)
        assert moved.ZDZt is blocked.d11 and first.ZDZt is first.D
        assert np.array_equal(moved.response_term, first.response_term)
        a, b = fit_posterior(moved), fit_posterior(fresh)
        assert np.array_equal(a.xi, b.xi) and a.log_posterior == b.log_posterior
        assert np.array_equal(first.beta + 0.2, moved.beta)

    def test_general_design_recomputes_ZDZt(self):
        rng = np.random.default_rng(4)
        first = random_problem(rng, "poisson", 9, 3)
        first.ZDZt  # noqa: B018 - cached before the copy
        moved = replace(first, D=2.0 * first.D)
        assert np.allclose(moved.ZDZt, 2.0 * first.ZDZt, rtol=1e-14, atol=0.0)

    def test_prior_is_checked(self):
        rng = np.random.default_rng(5)
        first = identity_problem(rng, "poisson", 6)
        with pytest.raises(ValueError, match="positive definite"):
            replace(first, D=-np.eye(6))
        with pytest.raises(ValueError, match="r x r"):
            replace(first, D=np.eye(5))
        with pytest.raises(ValueError, match="beta length"):
            replace(first, beta=np.zeros(first.beta.shape[0] + 1))
        with pytest.raises(ValueError, match="factor"):
            replace(first, D=np.eye(6), factor=np.eye(5))

    def test_replaced_prior_is_certified_afresh(self):
        # the copy keeps no factor of the first prior: quadrature reads D_chol
        first = random_problem(np.random.default_rng(8), "poisson", 5, 2)
        moved = replace(first, D=4.0 * np.eye(2))
        fresh = GlmmProblem(
            y=first.y, X=first.X, Z=first.Z, D=4.0 * np.eye(2), beta=first.beta,
            kernel=first.kernel,
        )
        assert np.array_equal(moved.D_chol, np.linalg.cholesky(4.0 * np.eye(2)))
        a, b = moments_quadrature(moved, order=32), moments_quadrature(fresh, order=32)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert a.log_marginal == b.log_marginal

    def test_no_field_holds_a_factor(self):
        names = [f.name for f in fields(GlmmProblem)]
        assert names == ["y", "X", "Z", "D", "beta", "kernel"]
