import numpy as np
import pytest
from scipy.optimize import brentq

from glmmfp import fixed_point
from glmmfp.families import binomial_kernel, gaussian_kernel, poisson_kernel
from glmmfp.fixed_point import (
    FitOptions,
    GlmmProblem,
    fit_posterior,
    fixed_point_residual,
    identity_gap,
    joint_logdensity_direct,
    joint_logdensity_factored,
    random_identity_instance,
)


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


class TestFitOptions:
    def test_damping_range(self):
        with pytest.raises(ValueError):
            FitOptions(damping=0.0)
        with pytest.raises(ValueError):
            FitOptions(damping=1.5)

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            FitOptions(tol=0.0)
        with pytest.raises(ValueError):
            FitOptions(max_iter=0)


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
            assert np.max(np.abs(report.state.xi - xi)) < 1e-10
            assert np.max(np.abs(report.state.Xi - Xi)) < 1e-10


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
        assert report.state.xi[0] == pytest.approx(mode, abs=1e-9)
        assert report.state.xi[0] == pytest.approx(0.7920599684310518, abs=1e-10)

    def test_covariance_is_curvature_inverse(self):
        problem = GlmmProblem(
            y=np.array([3.0]),
            X=np.zeros((1, 1)),
            Z=np.eye(1),
            D=np.eye(1),
            beta=np.zeros(1),
            kernel=poisson_kernel(),
        )
        state = fit_posterior(problem).state
        expected = 1.0 / (1.0 + np.exp(state.xi[0]))
        assert state.Xi[0, 0] == pytest.approx(expected, abs=1e-10)


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
            assert fixed_point_residual(problem, report.state.xi) <= 1e-9
            assert report.state.residual <= 1e-10

    def test_covariance_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            problem = random_problem(rng, "poisson", 20, 4)
            state = fit_posterior(problem).state
            assert np.max(np.abs(state.Xi - state.Xi.T)) <= 1e-12
            # posterior covariance is dominated by the prior
            eigmin = np.min(np.linalg.eigvalsh(problem.D - state.Xi))
            assert eigmin >= -1e-10
            assert np.all(np.linalg.eigvalsh(state.Xi) > 0)


class TestSolverPaths:
    def test_primal_and_dual_paths_agree(self, monkeypatch):
        rng = np.random.default_rng(17)
        problem = random_problem(rng, "poisson", 30, 3)
        u = rng.standard_normal(30)
        w = rng.uniform(0.5, 2.0, size=30)
        monkeypatch.setattr(fixed_point, "_solver_paths", lambda p: True)
        xi_dual, alpha_dual, cf = fixed_point._xi_raw(problem, u, w)
        Xi_dual = fixed_point._covariance(problem, cf)
        monkeypatch.setattr(fixed_point, "_solver_paths", lambda p: False)
        xi_full, alpha_full, cf = fixed_point._xi_raw(problem, u, w)
        Xi_full = fixed_point._covariance(problem, cf)
        assert np.max(np.abs(xi_dual - xi_full)) < 1e-10
        assert np.max(np.abs(alpha_dual - alpha_full)) < 1e-10
        assert np.max(np.abs(Xi_dual - Xi_full)) < 1e-10

    def test_dual_path_selected_for_small_r(self):
        rng = np.random.default_rng(19)
        wide = random_problem(rng, "poisson", 40, 2)
        narrow = random_problem(rng, "poisson", 6, 3)
        assert fixed_point._solver_paths(wide)
        assert not fixed_point._solver_paths(narrow)


class TestNonConvergence:
    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(23)
        problem = random_problem(rng, "poisson", 15, 3)
        report = fit_posterior(problem, FitOptions(tol=1e-10, max_iter=1))
        assert not report.converged
        assert report.iterations == 1
        assert report.state.residual > 0
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
        rng = np.random.default_rng(31)
        problem = random_problem(rng, "poisson", 15, 3)
        report = fit_posterior(problem, FitOptions(damping=0.5, max_iter=500))
        assert report.converged
        assert fixed_point_residual(problem, report.state.xi) <= 1e-9


class TestFactorizationIdentity:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(0)
        gaps = [identity_gap(random_identity_instance(rng)) for _ in range(100)]
        assert max(gaps) <= 1e-8

    def test_hand_built_scalar_instance(self):
        inst = dict(
            u=np.array([1.2]),
            alpha=np.array([0.3]),
            beta=np.array([0.5]),
            gamma=np.array([-0.7]),
            delta=np.array([0.1]),
            X=np.array([[1.0]]),
            Z=np.array([[2.0]]),
            w=np.array([1.5]),
            D=np.array([[0.8]]),
        )
        lhs = joint_logdensity_direct(**inst)
        rhs = joint_logdensity_factored(**inst)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_nonpositive_weights_rejected(self):
        inst = random_identity_instance(np.random.default_rng(3))
        inst["w"] = np.zeros_like(inst["w"])
        with pytest.raises(ValueError, match="positive"):
            joint_logdensity_direct(**inst)

    def test_instance_shapes(self):
        inst = random_identity_instance(np.random.default_rng(5))
        n, r = inst["Z"].shape
        assert inst["u"].shape == (n,)
        assert inst["gamma"].shape == (r,)
        assert inst["D"].shape == (r, r)
        np.linalg.cholesky(inst["D"])
