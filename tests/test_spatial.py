import numpy as np
import pytest
from scipy.special import expit

from glmmfp import covariance, fixed_point, simulate, spatial
from glmmfp.covariance import MaternParams, build_blocked
from glmmfp.estimate import SpatialData, approx_loglik
from glmmfp.families import binomial_kernel, gaussian_kernel, log_likelihood, poisson_kernel
from glmmfp.fixed_point import FitOptions, GlmmProblem, fit_posterior
from glmmfp.spatial import SpatialProblem, conditional_mean, fit_predict


def make_problem(seed=0, n=25, n_star=10, family="poisson", beta0=1.5):
    rng = np.random.default_rng(seed)
    coords_obs = rng.uniform(0, 10, size=(n, 2))
    coords_unobs = rng.uniform(0, 10, size=(n_star, 2))
    blocked = build_blocked(MaternParams(0.5, 1.0), coords_obs, coords_unobs)
    gamma_joint = np.linalg.cholesky(blocked.full) @ rng.standard_normal(n + n_star)
    gamma = gamma_joint[:n]
    X = np.ones((n, 1))
    Xstar = np.ones((n_star, 1))
    beta = np.array([beta0])
    if family == "poisson":
        kernel = poisson_kernel()
        y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)
    elif family == "binomial":
        m = rng.integers(1, 9, size=n)
        kernel = binomial_kernel(m)
        y = rng.binomial(m, expit(X @ beta + gamma)).astype(float)
    else:
        kernel = gaussian_kernel(1.0)
        y = X @ beta + gamma + rng.standard_normal(n)
    problem = SpatialProblem(
        y=y, X=X, Xstar=Xstar, blocked=blocked, beta=beta, kernel=kernel
    )
    return problem, gamma, gamma_joint[n:]


class TestValidation:
    def test_block_size_must_match_response(self):
        problem, _, _ = make_problem()
        with pytest.raises(ValueError, match="observed covariance block"):
            SpatialProblem(
                y=problem.y[:-1],
                X=problem.X[:-1],
                Xstar=problem.Xstar,
                blocked=problem.blocked,
                beta=problem.beta,
                kernel=problem.kernel,
            )

    def test_xstar_must_match_unobserved_block(self):
        problem, _, _ = make_problem()
        with pytest.raises(ValueError, match="unobserved covariance block"):
            SpatialProblem(
                y=problem.y,
                X=problem.X,
                Xstar=problem.Xstar[:-1],
                blocked=problem.blocked,
                beta=problem.beta,
                kernel=problem.kernel,
            )

    def test_design_dimensions_must_agree(self):
        problem, _, _ = make_problem()
        with pytest.raises(ValueError, match="fixed-effects dimension"):
            SpatialProblem(
                y=problem.y,
                X=problem.X,
                Xstar=np.ones((problem.Xstar.shape[0], 2)),
                blocked=problem.blocked,
                beta=problem.beta,
                kernel=problem.kernel,
            )


class TestGaussianClosedForm:
    def test_prediction_matches_kriging(self):
        # for the gaussian kernel the whole pipeline is linear algebra:
        # xi* = D21 (D11 + s2 I)^-1 (y - X beta)
        problem, _, _ = make_problem(seed=3, family="gaussian")
        pred = fit_predict(problem)
        assert pred.report.converged
        s2 = problem.kernel.variance
        n = problem.y.shape[0]
        resid = problem.y - problem.X @ problem.beta
        expected = problem.blocked.d12.T @ np.linalg.solve(
            problem.blocked.d11 + s2 * np.eye(n), resid
        )
        assert np.max(np.abs(pred.xi_star - expected)) < 1e-10

    def test_identity_link_outputs(self):
        problem, _, _ = make_problem(seed=4, family="gaussian")
        pred = fit_predict(problem)
        eta_star = problem.Xstar @ problem.beta + pred.xi_star
        assert np.allclose(pred.u_hat_star, eta_star, atol=1e-14)
        assert np.allclose(pred.y_hat_star, eta_star, atol=1e-14)


class TestPoissonPrediction:
    def test_converges_and_reports_positive_means(self):
        problem, _, _ = make_problem(seed=5)
        pred = fit_predict(problem)
        assert pred.report.converged
        assert np.all(pred.y_hat_star > 0)
        assert np.allclose(
            pred.y_hat_star,
            np.exp(problem.Xstar @ problem.beta + pred.xi_star),
            rtol=1e-12,
        )

    def test_cross_covariance_formula(self):
        # reconstruct xi* from the converged observed-block state
        problem, _, _ = make_problem(seed=6)
        pred = fit_predict(problem)
        state = pred.report.state
        r11 = np.diag(1.0 / state.w) + problem.blocked.d11
        expected = problem.blocked.d12.T @ np.linalg.solve(
            r11, state.u - problem.X @ problem.beta
        )
        assert np.max(np.abs(pred.xi_star - expected)) < 1e-10

    def test_prediction_beats_fixed_effects_alone(self):
        problem, gamma, gamma_star = make_problem(seed=7, n=60, n_star=30)
        pred = fit_predict(problem)
        err_spatial = np.sum((pred.xi_star - gamma_star) ** 2)
        err_null = np.sum(gamma_star**2)
        assert err_spatial < err_null

    def test_no_unobserved_sites(self):
        problem, _, _ = make_problem(seed=8, n_star=0)
        pred = fit_predict(problem)
        assert pred.xi_star.shape == (0,)
        assert pred.y_hat_star.shape == (0,)
        assert pred.report.converged

    def test_options_are_honored(self):
        problem, _, _ = make_problem(seed=9)
        pred = fit_predict(problem, FitOptions(tol=1e-6, max_iter=100))
        assert pred.report.converged
        assert pred.report.state.residual <= 1e-6


class TestConditionalMean:
    def test_matches_direct_solve(self):
        problem, gamma, _ = make_problem(seed=10)
        out = conditional_mean(gamma, problem.blocked)
        expected = problem.blocked.d12.T @ np.linalg.solve(
            problem.blocked.d11, gamma
        )
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_interpolates_at_near_coincident_site(self):
        coords_obs = np.array([[0.0, 0.0], [5.0, 5.0]])
        coords_unobs = np.array([[0.0, 1e-9]])
        blocked = build_blocked(MaternParams(0.5, 1.0), coords_obs, coords_unobs)
        gamma = np.array([2.0, -1.0])
        out = conditional_mean(gamma, blocked)
        assert out[0] == pytest.approx(2.0, abs=1e-6)

    def test_length_check(self):
        problem, gamma, _ = make_problem(seed=11)
        with pytest.raises(ValueError, match="gamma length"):
            conditional_mean(gamma[:-1], problem.blocked)


class TestFactorizationBudget:
    """One Cholesky per solver iterate, none for the prediction or for Xi."""

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(fixed_point, "cho_factor", counted(fixed_point.cho_factor))
        monkeypatch.setattr(spatial, "cho_factor", counted(spatial.cho_factor))
        monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky))
        in_solver = []

        def solver(*args, **kwargs):
            before = len(calls)
            report = fit_posterior(*args, **kwargs)
            in_solver.append(len(calls) - before)
            return report

        monkeypatch.setattr(spatial, "fit_posterior", solver)
        return calls, in_solver

    def test_poisson_fit_predict(self, monkeypatch):
        problem, _, _ = make_problem(seed=5)
        calls, in_solver = self.count_factorizations(monkeypatch)
        pred = fit_predict(problem)
        assert pred.report.converged
        assert in_solver == [len(calls) - 1]  # the other one is GlmmProblem's check of D
        assert in_solver[0] <= pred.report.iterations + 1
        state = pred.report.state
        assert "Xi" not in vars(state)
        Xi = state.Xi
        assert "Xi" in vars(state) and Xi.shape == (25, 25)
        assert len(calls) == in_solver[0] + 1  # reading Xi factors nothing

    def test_gaussian_conjugate_case(self, monkeypatch):
        problem, _, _ = make_problem(seed=3, family="gaussian")
        calls, in_solver = self.count_factorizations(monkeypatch)
        pred = fit_predict(problem)
        assert pred.report.converged
        assert pred.report.iterations == 1
        assert in_solver == [2] and len(calls) == 3


class TestIdentityPathAgainstDenseFormulas:
    """The identity-design solver against R = D + W^-1 built densely."""

    @staticmethod
    def dense_reference(problem, state):
        D = problem.blocked.d11
        R = D + np.diag(1.0 / state.w)
        alpha = np.linalg.solve(R, state.u - problem.X @ problem.beta)
        Xi = D - D @ np.linalg.solve(R, D)
        return D @ alpha, Xi, problem.blocked.d12.T @ alpha

    def check(self, problem):
        pred = fit_predict(problem, FitOptions(tol=1e-13))
        state = pred.report.state
        assert pred.report.converged
        assert state.problem.identity_design
        xi, Xi, xi_star = self.dense_reference(problem, state)
        assert np.max(np.abs(pred.xi - xi)) < 1e-10
        assert np.max(np.abs(state.Xi - Xi)) < 1e-10
        assert np.max(np.abs(pred.xi_star - xi_star)) < 1e-10

    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_xi_Xi_and_prediction(self, family):
        problem, _, _ = make_problem(seed=12, n=20, n_star=20, family=family)
        self.check(problem)

    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_logdet_Xi_in_the_estimation_objective(self, family):
        problem, _, _ = make_problem(seed=13, n=30, n_star=30, family=family)
        coords = np.random.default_rng(13).uniform(0, 10, size=(30, 2))
        omega = MaternParams(0.5, 1.0)
        data = SpatialData(y=problem.y, X=problem.X, coords=coords, kernel=problem.kernel)
        value = approx_loglik(data, problem.beta, omega)
        D = build_blocked(omega, coords).d11
        glmm = GlmmProblem(
            y=problem.y, X=problem.X, Z=np.eye(30), D=D, beta=problem.beta,
            kernel=problem.kernel,
        )
        state = fit_posterior(glmm).state
        R = D + np.diag(1.0 / state.w)
        _, logdet_xi = np.linalg.slogdet(D - D @ np.linalg.solve(R, D))
        _, logdet_d = np.linalg.slogdet(D)
        expected = (
            log_likelihood(problem.kernel, state.eta, problem.y)
            - 0.5 * (logdet_d + state.xi @ np.linalg.solve(D, state.xi))
            + 0.5 * logdet_xi
        )
        assert abs(value - expected) < 1e-10

    def test_prior_that_needs_jitter(self):
        # nearly coincident smooth-field sites: build_blocked must add jitter
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        coords_obs = np.vstack([base, base[:3] + 1e-13])
        coords_unobs = np.array([[0.5, 0.5], [1.5, 1.0]])
        params = MaternParams(0.9, 0.5, 2.5)
        blocked, chol = covariance._blocked_and_factor(params, coords_obs, coords_unobs)
        assert blocked.jitter > 0
        assert np.array_equal(chol, np.linalg.cholesky(blocked.full))
        rng = np.random.default_rng(14)
        y = rng.poisson(3.0, size=7).astype(float)
        problem = SpatialProblem(
            y=y, X=np.ones((7, 1)), Xstar=np.ones((2, 1)), blocked=blocked,
            beta=np.array([1.0]), kernel=poisson_kernel(),
        )
        self.check(problem)

    def test_generate_dataset_draws_with_the_check_factor(self, monkeypatch):
        seen = []

        def spy(*args):
            out = covariance._blocked_and_factor(*args)
            seen.append(out)
            return out

        monkeypatch.setattr(simulate, "_blocked_and_factor", spy)
        config = simulate.SimConfig(n=20, n_star=10, replications=1, side=5.0)
        dataset = simulate.generate_dataset(config, 0)
        [(blocked, chol)] = seen
        assert blocked is dataset.problem.blocked
        assert np.array_equal(chol, np.linalg.cholesky(blocked.full))
