import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.spatial.distance import cdist
from scipy.special import expit

from glmmfp import cli, covariance, dataio, fixed_point, simulate, spatial
from glmmfp import estimate as estimate_module
from glmmfp._lapack import potri
from glmmfp.covariance import BlockedCovariance, MaternParams, build_blocked
from glmmfp.estimate import approx_loglik
from glmmfp.families import (
    binomial_kernel,
    gaussian_kernel,
    log_likelihood,
    mean_and_weight,
    poisson_kernel,
)
from glmmfp.fixed_point import FitOptions, GlmmProblem, fit_posterior
from glmmfp.spatial import SpatialData, conditional_mean, krige, site_problem


def near_duplicate_prior():
    """Nearly coincident smooth-field sites: build_blocked must add jitter."""
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    coords_obs = np.vstack([base, base[:3] + 1e-13])
    coords_unobs = np.array([[0.5, 0.5], [1.5, 1.0]])
    return build_blocked(MaternParams(0.9, 0.5, 2.5), coords_obs, coords_unobs)


def lapack_factor(a):
    """Lower triangle of LAPACK's Cholesky factor of ``a``, upper zeroed."""
    return np.tril(cho_factor(a, lower=True)[0])


@dataclass
class Case:
    """Observed and unobserved sites, their joint prior and the fixed effects."""

    observed: SpatialData
    unobserved: SpatialData
    blocked: BlockedCovariance
    beta: np.ndarray


def fit_and_krige(case, options=FitOptions()):
    """Fit the observed sites on the prior's observed block and krige the fit
    through its ``d12``, as ``simulate``'s ``sic_true`` scenario does."""
    glmm = site_problem(case.observed, case.blocked, case.beta)
    report = fixed_point.fit_posterior(glmm, options)
    return krige(report, case.unobserved, case.blocked.d12)


def make_problem(seed=0, n=25, n_star=10, family="poisson", beta0=1.5):
    rng = np.random.default_rng(seed)
    coords_obs = rng.uniform(0, 10, size=(n, 2))
    coords_unobs = rng.uniform(0, 10, size=(n_star, 2))
    blocked = build_blocked(MaternParams(0.5, 1.0), coords_obs, coords_unobs)
    gamma_joint = np.linalg.cholesky(blocked.full) @ rng.standard_normal(n + n_star)
    gamma = gamma_joint[:n]
    X = np.ones((n, 1))
    beta = np.array([beta0])
    if family == "poisson":
        kernel = kernel_star = poisson_kernel()
        y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)
    elif family == "binomial":
        m = rng.integers(1, 9, size=n)
        kernel = binomial_kernel(m)
        y = rng.binomial(m, expit(X @ beta + gamma)).astype(float)
        kernel_star = binomial_kernel(rng.integers(1, 9, size=n_star))
    else:
        kernel = kernel_star = gaussian_kernel(1.0)
        y = X @ beta + gamma + rng.standard_normal(n)
    problem = Case(
        observed=SpatialData(y=y, X=X, coords=coords_obs, kernel=kernel),
        unobserved=SpatialData(
            y=None, X=np.ones((n_star, 1)), coords=coords_unobs, kernel=kernel_star
        ),
        blocked=blocked, beta=beta,
    )
    return problem, gamma, gamma_joint[n:]


def working_u(problem, state):
    """Working response u = eta + (y - mu) / (phi w) at the solver's last iterate."""
    obs = problem.observed
    mu, _ = mean_and_weight(obs.kernel, state.eta)
    return state.eta + (obs.y - mu) / (obs.kernel.dispersion * state.w)


def sites(data, rows=slice(None), **changes):
    """The ``rows`` of the site set ``data`` as a new one, with ``changes`` applied."""
    trials = data.kernel.trials
    fields = dict(
        y=None if data.y is None else data.y[rows], X=data.X[rows],
        coords=data.coords[rows],
        kernel=data.kernel if trials is None else binomial_kernel(trials[rows]),
    )
    return SpatialData(**{**fields, **changes})


class TestValidation:
    """``krige`` checks the unobserved sites and ``d12`` against the fit."""

    @staticmethod
    def fitted():
        problem, _, _ = make_problem()
        glmm = site_problem(problem.observed, problem.blocked, problem.beta)
        return problem, fit_posterior(glmm)

    def test_d12_rows_must_match_the_fit(self):
        problem, report = self.fitted()
        d12 = problem.blocked.d12
        other = make_problem(n=26)[0].blocked.d12
        for bad in (d12[:-1], other):
            with pytest.raises(ValueError, match="observed covariance block"):
                krige(report, problem.unobserved, bad)

    def test_d12_columns_must_match_the_unobserved_sites(self):
        problem, report = self.fitted()
        d12 = problem.blocked.d12
        for rows in (slice(None, -1), [0] * 11, [0]):
            unobserved = sites(problem.unobserved, rows)
            with pytest.raises(ValueError, match="unobserved covariance block"):
                krige(report, unobserved, d12)
        # one site against five columns is not broadcast to five predictions
        with pytest.raises(ValueError, match="unobserved covariance block"):
            krige(report, sites(problem.unobserved, [0]), d12[:, :5])
        with pytest.raises(ValueError, match="unobserved covariance block"):
            krige(report, problem.unobserved, d12[:, 0])
        # a site set's design and coordinates count the same sites
        for field in ("X", "coords"):
            value = getattr(problem.unobserved, field)[:-1]
            with pytest.raises(ValueError, match="agree in length"):
                sites(problem.unobserved, **{field: value})

    def test_design_dimensions_must_agree(self):
        problem, report = self.fitted()
        wide = sites(problem.unobserved, X=np.ones((problem.unobserved.X.shape[0], 2)))
        with pytest.raises(ValueError, match="fixed-effects dimension"):
            krige(report, wide, problem.blocked.d12)

    def test_observed_sites_need_a_response(self):
        problem, report = self.fitted()
        observed = sites(problem.observed, y=None)
        with pytest.raises(ValueError, match="observed sites need a response"):
            site_problem(observed, problem.blocked, problem.beta)
        # the unobserved sites may carry one, as a test split's do
        responded = sites(problem.unobserved, y=np.zeros(len(problem.unobserved.X)))
        krige(report, responded, problem.blocked.d12)

    def test_families_must_agree(self):
        problem, report = self.fitted()
        gaussian = sites(problem.unobserved, kernel=gaussian_kernel(1.0))
        with pytest.raises(ValueError, match="share the family"):
            krige(report, gaussian, problem.blocked.d12)


class TestGaussianClosedForm:
    def test_prediction_matches_kriging(self):
        # for the gaussian kernel the whole pipeline is linear algebra:
        # xi* = D21 (D11 + s2 I)^-1 (y - X beta)
        problem, _, _ = make_problem(seed=3, family="gaussian")
        pred = fit_and_krige(problem)
        assert pred.report.converged
        s2 = problem.observed.kernel.variance
        n = problem.observed.y.shape[0]
        resid = problem.observed.y - problem.observed.X @ problem.beta
        expected = problem.blocked.d12.T @ np.linalg.solve(
            problem.blocked.d11 + s2 * np.eye(n), resid
        )
        assert np.max(np.abs(pred.xi_star - expected)) < 1e-10

    def test_identity_link_outputs(self):
        problem, _, _ = make_problem(seed=4, family="gaussian")
        pred = fit_and_krige(problem)
        eta_star = problem.unobserved.X @ problem.beta + pred.xi_star
        assert np.allclose(pred.u_hat_star, eta_star, atol=1e-14)
        assert np.allclose(pred.y_hat_star, eta_star, atol=1e-14)


class TestPoissonPrediction:
    def test_converges_and_reports_positive_means(self):
        problem, _, _ = make_problem(seed=5)
        pred = fit_and_krige(problem)
        assert pred.report.converged
        assert np.all(pred.y_hat_star > 0)
        assert np.allclose(
            pred.y_hat_star,
            np.exp(problem.unobserved.X @ problem.beta + pred.xi_star),
            rtol=1e-12,
        )

    def test_cross_covariance_formula(self):
        # reconstruct xi* from the converged observed-block state
        problem, _, _ = make_problem(seed=6)
        pred = fit_and_krige(problem)
        state = pred.report
        r11 = np.diag(1.0 / state.w) + problem.blocked.d11
        expected = problem.blocked.d12.T @ np.linalg.solve(
            r11, working_u(problem, state) - problem.observed.X @ problem.beta
        )
        assert np.max(np.abs(pred.xi_star - expected)) < 1e-10

    def test_prediction_beats_fixed_effects_alone(self):
        problem, gamma, gamma_star = make_problem(seed=7, n=60, n_star=30)
        pred = fit_and_krige(problem)
        err_spatial = np.sum((pred.xi_star - gamma_star) ** 2)
        err_null = np.sum(gamma_star**2)
        assert err_spatial < err_null

    def test_no_unobserved_sites(self):
        problem, _, _ = make_problem(seed=8, n_star=0)
        pred = fit_and_krige(problem)
        assert pred.xi_star.shape == (0,)
        assert pred.y_hat_star.shape == (0,)
        assert pred.report.converged

    def test_options_are_honored(self):
        problem, _, _ = make_problem(seed=9)
        pred = fit_and_krige(problem, FitOptions(tol=1e-6, max_iter=100))
        assert pred.report.converged
        assert pred.report.residual <= 1e-6


class TestBinomialPrediction:
    @pytest.mark.parametrize("n_star", [4, 6], ids=["fewer_unobserved", "as_many"])
    def test_means_use_the_unobserved_trial_counts(self, n_star):
        problem, _, _ = make_problem(seed=15, n=6, n_star=n_star, family="binomial")
        pred = fit_and_krige(problem)
        assert pred.report.converged
        m_star = problem.unobserved.kernel.trials
        assert not np.array_equal(m_star, problem.observed.kernel.trials[:n_star])
        expected = m_star * expit(problem.unobserved.X @ problem.beta + pred.xi_star)
        assert np.allclose(pred.y_hat_star, expected, rtol=1e-14)

    def test_trial_counts_required(self):
        problem, _, _ = make_problem(seed=16, n=6, n_star=4, family="binomial")
        # sites without trial counts are not of the binomial family
        poisson = sites(problem.unobserved, kernel=poisson_kernel())
        with pytest.raises(ValueError, match="share the family"):
            krige(fit_and_krige(problem).report, poisson, problem.blocked.d12)
        for trials in (np.ones(6), np.ones(3)):
            with pytest.raises(ValueError, match="one trial count per site"):
                sites(problem.unobserved, kernel=binomial_kernel(trials))
        with pytest.raises(ValueError, match="one trial count per site"):
            sites(problem.observed, kernel=binomial_kernel(np.ones(4)))
        with pytest.raises(ValueError, match="integers"):
            sites(problem.unobserved, kernel=binomial_kernel(np.zeros(4)))


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

    @pytest.mark.parametrize("n_star", [12, 0])
    @pytest.mark.parametrize("nu", [0.5, 2.5])
    def test_carried_factor_matches_dense_solve(self, nu, n_star):
        rng = np.random.default_rng(16)
        coords_obs = rng.uniform(0, 10, size=(30, 2))
        coords_unobs = rng.uniform(0, 10, size=(n_star, 2))
        blocked = build_blocked(MaternParams(0.5, 1.0, nu), coords_obs, coords_unobs)
        gamma = rng.standard_normal(30)
        out = conditional_mean(gamma, blocked)
        expected = blocked.d12.T @ np.linalg.solve(blocked.d11, gamma)
        assert out.shape == (n_star,)
        assert np.max(np.abs(out - expected), initial=0.0) < 1e-10

    def test_carried_factor_matches_dense_solve_under_jitter(self):
        # the prior of test_prior_that_needs_jitter: d11 has condition
        # number ~6e10, so both paths carry roundoff near 1e-10 (each is
        # that far from a 50-digit solve); gamma is a prior draw, as the
        # simulation oracle's is
        blocked = near_duplicate_prior()
        assert blocked.jitter > 0
        n = blocked.n_observed
        gamma = blocked.chol[:n, :n] @ np.random.default_rng(2).standard_normal(n)
        out = conditional_mean(gamma, blocked)
        expected = blocked.d12.T @ np.linalg.solve(blocked.d11, gamma)
        assert np.max(np.abs(out - expected)) < 1e-9


class TestKrigingOfTheMode:
    # a loose tol stops the solver a visible step short of the mode; the
    # prediction still krigs the xi it reports
    @pytest.mark.parametrize("tol", [1e-10, 1e-2])
    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_prediction_is_the_conditional_mean_of_the_mode(self, family, tol):
        problem, _, _ = make_problem(seed=15, n=40, n_star=15, family=family)
        pred = fit_and_krige(problem, FitOptions(tol=tol))
        assert pred.report.converged
        expected = conditional_mean(pred.report.xi, problem.blocked)
        assert np.max(np.abs(pred.xi_star - expected)) < 1e-9


class TestSiteProblem:
    def test_no_n_x_n_design_is_allocated(self):
        # an n x n design at n = 400 would be 1,250 KiB
        problem, _, _ = make_problem(seed=4, n=400, n_star=1)
        tracemalloc.start()
        try:
            glmm = spatial.site_problem(problem.observed, problem.blocked, problem.beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert glmm.Z is None and glmm.r == 400
        assert peak < 64 * 1024


class TestFactorizationBudget:
    """One Cholesky per solver iterate, none for the prediction or for Xi.

    ``build_blocked``'s factorization of the prior is counted as ``"prior"``.
    """

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []

        def counted(fn, label=None):
            def wrapper(*args, **kwargs):
                calls.append(label or fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(fixed_point, "potrf", counted(fixed_point.potrf))
        monkeypatch.setattr(spatial, "cho_factor", counted(spatial.cho_factor))
        monkeypatch.setattr(covariance, "potrf", counted(covariance.potrf, "prior"))
        monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky))
        in_solver = []

        def solver(*args, **kwargs):
            before = len(calls)
            report = fit_posterior(*args, **kwargs)
            in_solver.append(len(calls) - before)
            return report

        for module in (fixed_point, simulate, estimate_module, cli):
            monkeypatch.setattr(module, "fit_posterior", solver)
        return calls, in_solver

    def test_poisson_fit_and_krige(self, monkeypatch):
        problem, _, _ = make_problem(seed=5)
        calls, in_solver = self.count_factorizations(monkeypatch)
        pred = fit_and_krige(problem)
        assert pred.report.converged
        assert in_solver == [len(calls)]  # the prior's factor certifies D
        assert in_solver[0] <= pred.report.iterations + 1
        state = pred.report
        assert "Xi" not in vars(state)
        Xi = state.Xi
        assert "Xi" in vars(state) and Xi.shape == (25, 25)
        assert len(calls) == in_solver[0]  # reading Xi factors nothing

    def test_gaussian_conjugate_case(self, monkeypatch):
        problem, _, _ = make_problem(seed=3, family="gaussian")
        calls, in_solver = self.count_factorizations(monkeypatch)
        pred = fit_and_krige(problem)
        assert pred.report.converged
        assert pred.report.iterations == 1
        assert in_solver == [2] and len(calls) == 2

    def test_simulate_replication(self, monkeypatch):
        calls, in_solver = self.count_factorizations(monkeypatch)
        config = simulate.SimConfig(n=40, n_star=30, replications=1, side=6.0)
        dataset = simulate.generate_dataset(config, 0)
        assert calls == ["prior"]  # the joint prior's, which draws the field
        simulate._scenario_metrics(dataset, simulate.ORACLE, config)
        assert calls == ["prior"]  # kriging the truth factors nothing
        simulate._scenario_metrics(dataset, simulate.SIC_TRUE, config)
        assert calls.count("prior") == 1 and "cholesky" not in calls
        assert in_solver == [len(calls) - 1]

    def test_sic_estimated_replication(self, monkeypatch):
        # the estimate's own fit is kriged: each of its fits builds one
        # prior, and nothing is built, factored or fitted after it
        config = simulate.SimConfig(
            n=30, n_star=20, beta=(2.0, 0.0), replications=1, side=5.0,
            scenarios=(simulate.SIC_ESTIMATED,),
        )
        dataset = simulate.generate_dataset(config, 0)
        calls, in_solver = self.count_factorizations(monkeypatch)
        record = simulate._scenario_metrics(dataset, simulate.SIC_ESTIMATED, config)
        assert calls.count("prior") == len(in_solver) == record["fits"]

    def test_validate_split(self, monkeypatch, tmp_path):
        # a split fits on its training sites' prior alone and krigs the test
        # sites through their unfactored cross covariance: one prior factor
        # over the 80 training sites, not over all 100
        path, config = tmp_path / "counts.csv", tmp_path / "config.json"
        dataio.write_synthetic_counts(path, n_sites=100, seed=0)
        config.write_text(json.dumps(
            {"family": "poisson", "beta": [1.0], "matern": {"omega1": 0.5, "omega2": 1.5}}
        ))
        cfg = dataio.load_config(config)
        dataset = dataio.load_dataset(path, cfg)
        perm = np.random.default_rng(0).permutation(100)
        calls, in_solver = self.count_factorizations(monkeypatch)
        sizes, prior = [], covariance.potrf
        monkeypatch.setattr(covariance, "potrf", lambda a: sizes.append(len(a)) or prior(a))
        g2 = cli._validate_split(
            cfg, dataset, perm[20:], perm[:20], "intercept", cli._fit_options(cfg)
        )
        assert np.isfinite(g2)
        assert sizes == [80]
        assert calls.count("prior") == 1 and "cholesky" not in calls
        assert in_solver == [len(calls) - 1]

    def test_estimate_evaluation(self, monkeypatch):
        rng = np.random.default_rng(17)
        coords = rng.uniform(0, 5, size=(30, 2))
        data = SpatialData(
            y=rng.poisson(4.0, size=30).astype(float), X=np.ones((30, 1)),
            coords=coords, kernel=poisson_kernel(),
        )
        calls, in_solver = self.count_factorizations(monkeypatch)
        omega, dist = MaternParams(0.5, 1.0), cdist(coords, coords)
        report = estimate_module._fit(data, np.array([1.4]), omega, FitOptions(), dist)
        dD = estimate_module._prior_derivatives(report.problem, omega, dist)
        value = estimate_module._surrogate(report)
        grad = estimate_module._surrogate_gradient(report, dD, potri(report.chol))
        assert np.isfinite(value) and grad.shape == (3,)
        assert calls.count("prior") == 1 and "cholesky" not in calls
        assert in_solver == [len(calls) - 1]

    def test_general_design_battery(self, monkeypatch):
        # verify's battery designs (n <= 6, r <= 2): the identity design's
        # count, one factor for the start and one per Newton step, and no
        # inverse of D
        rng = np.random.default_rng([3, 1])
        battery = [problem for _, problem in cli._verify_battery(rng)]
        calls, _ = self.count_factorizations(monkeypatch)
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda *args: calls.append("inv") or inv(*args))
        for problem in battery:
            before = len(calls)
            report = fit_posterior(problem)
            assert report.converged and problem.Z is not None
            assert calls[before:] == ["potrf"] * (report.iterations + 1)


class TestIdentityPathAgainstDenseFormulas:
    """The identity-design solver against R = D + W^-1 built densely."""

    @staticmethod
    def dense_reference(problem, state):
        D = problem.blocked.d11
        R = D + np.diag(1.0 / state.w)
        resid = working_u(problem, state) - problem.observed.X @ problem.beta
        alpha = np.linalg.solve(R, resid)
        Xi = D - D @ np.linalg.solve(R, D)
        return D @ alpha, Xi, problem.blocked.d12.T @ alpha

    def check(self, problem):
        pred = fit_and_krige(problem, FitOptions(tol=1e-13))
        state = pred.report
        assert pred.report.converged
        assert state.problem.Z is None
        xi, Xi, xi_star = self.dense_reference(problem, state)
        assert np.max(np.abs(pred.report.xi - xi)) < 1e-10
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
        obs = problem.observed
        data = SpatialData(y=obs.y, X=obs.X, coords=coords, kernel=obs.kernel)
        value = approx_loglik(data, problem.beta, omega)
        D = build_blocked(omega, coords).d11
        glmm = GlmmProblem(
            y=obs.y, X=obs.X, Z=np.eye(30), D=D, beta=problem.beta, kernel=obs.kernel,
        )
        state = fit_posterior(glmm)
        R = D + np.diag(1.0 / state.w)
        _, logdet_xi = np.linalg.slogdet(D - D @ np.linalg.solve(R, D))
        _, logdet_d = np.linalg.slogdet(D)
        expected = (
            log_likelihood(obs.kernel, state.eta, obs.y)
            - 0.5 * (logdet_d + state.xi @ np.linalg.solve(D, state.xi))
            + 0.5 * logdet_xi
        )
        assert abs(value - expected) < 1e-10

    def test_prior_that_needs_jitter(self):
        blocked = near_duplicate_prior()
        assert blocked.jitter > 0
        assert np.array_equal(blocked.chol, lapack_factor(blocked.full))
        rng = np.random.default_rng(14)
        y = rng.poisson(3.0, size=7).astype(float)
        coords = np.zeros((9, 2))  # the checks read only how many sites there are
        problem = Case(
            observed=SpatialData(
                y=y, X=np.ones((7, 1)), coords=coords[:7], kernel=poisson_kernel()
            ),
            unobserved=SpatialData(
                y=None, X=np.ones((2, 1)), coords=coords[7:], kernel=poisson_kernel()
            ),
            blocked=blocked, beta=np.array([1.0]),
        )
        self.check(problem)

    def test_generate_dataset_draws_with_the_check_factor(self, monkeypatch):
        seen = []

        def spy(*args):
            out = covariance.build_blocked(*args)
            seen.append(out)
            return out

        monkeypatch.setattr(simulate, "build_blocked", spy)
        config = simulate.SimConfig(n=20, n_star=10, replications=1, side=5.0)
        dataset = simulate.generate_dataset(config, 0)
        [blocked] = seen
        assert blocked is dataset.blocked
        assert np.array_equal(blocked.chol, lapack_factor(blocked.full))
        # the field is the carried factor times the replication's normals
        rng = np.random.default_rng([config.seed, 0])
        rng.uniform(size=(30, 2))
        rng.standard_normal(30)
        gamma_joint = blocked.chol @ rng.standard_normal(30)
        assert np.array_equal(dataset.gamma, gamma_joint[:20])
        assert np.array_equal(dataset.gamma_star, gamma_joint[20:])
