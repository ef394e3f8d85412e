import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import expit
from scipy.stats import multivariate_normal

from glmmfp import cli, covariance, dataio
from glmmfp import estimate as estimate_module
from glmmfp import fixed_point
from glmmfp._lapack import potri
from glmmfp.covariance import MaternParams, build_blocked
from glmmfp.estimate import SpatialData, approx_loglik, estimate
from glmmfp.families import binomial_kernel, gaussian_kernel, poisson_kernel
from glmmfp.spatial import site_problem

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "estimate_reference.json"


def one_iterate_fit(problem, buf=None, eta0=None):
    """A mode fit cut at its first iterate, at a tolerance it cannot meet there."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixed_point, "MAX_ITER", 1)
        patch.setattr(fixed_point, "TOL", 1e-14)
        return fixed_point.fit_posterior(problem, buf, eta0)


def gaussian_data(seed=0, n=30, beta0=2.0, s2=1.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 8, size=(n, 2))
    omega = MaternParams(0.5, 1.0)
    blocked = build_blocked(omega, coords)
    gamma = np.linalg.cholesky(blocked.d11) @ rng.standard_normal(n)
    X = np.ones((n, 1))
    y = X @ [beta0] + gamma + np.sqrt(s2) * rng.standard_normal(n)
    return SpatialData(y=y, X=X, coords=coords, kernel=gaussian_kernel(s2)), omega


def poisson_data(seed=0, n=40, beta0=2.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 12, size=(n, 2))
    omega = MaternParams(0.5, 1.0)
    blocked = build_blocked(omega, coords)
    gamma = np.linalg.cholesky(blocked.d11) @ rng.standard_normal(n)
    X = np.ones((n, 1))
    y = rng.poisson(np.exp(X @ [beta0] + gamma)).astype(float)
    return SpatialData(y=y, X=X, coords=coords, kernel=poisson_kernel()), omega


class TestDataValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="agree in length"):
            SpatialData(
                y=np.ones(3),
                X=np.ones((2, 1)),
                coords=np.zeros((3, 2)),
                kernel=poisson_kernel(),
            )


class TestSurrogateLoglik:
    def test_gaussian_surrogate_is_the_exact_marginal(self):
        # conjugate case: the surrogate collapses to the normal marginal
        # log N(y; X beta, D + s2 I) with no approximation error
        data, omega = gaussian_data(seed=1)
        blocked = build_blocked(omega, data.coords)
        n = data.y.shape[0]
        beta = np.array([1.7])
        exact = multivariate_normal.logpdf(
            data.y, data.X @ beta, blocked.d11 + data.kernel.variance * np.eye(n)
        )
        got = approx_loglik(data, beta, omega)
        assert got == pytest.approx(exact, abs=1e-8)

    def test_poisson_scalar_close_to_brute_force_marginal(self):
        # n = r = 1, y = 2, beta = 0, D = 1: the brute-force log marginal
        # is -1.93193...; a Laplace-style surrogate lands within a few
        # percent on so skewed a posterior, not within oracle error
        data = SpatialData(
            y=np.array([2.0]),
            X=np.zeros((1, 1)),
            coords=np.zeros((1, 2)),
            kernel=poisson_kernel(),
        )
        got = approx_loglik(data, np.zeros(1), MaternParams(0.5, 1.0))
        assert got == pytest.approx(-1.9319342565384447, abs=0.1)

    def test_nonconvergence_maps_to_minus_inf(self, monkeypatch):
        data, omega = poisson_data(seed=2)
        monkeypatch.setattr(estimate_module, "fit_posterior", one_iterate_fit)
        assert approx_loglik(data, np.zeros(1), omega) == -np.inf

    def test_decreases_away_from_plausible_beta(self):
        data, omega = poisson_data(seed=3)
        near = approx_loglik(data, np.array([2.0]), omega)
        far = approx_loglik(data, np.array([6.0]), omega)
        assert near > far


class TestStartObjective:
    # bench/checks.check_estimate compares an estimate with approx_loglik at
    # initial_beta: that value must be the estimate's own start, and the one a
    # fit on build_blocked's prior gives, bit for bit
    @pytest.mark.parametrize("case", ["poisson", "near_duplicates"])
    def test_is_the_first_fit_of_estimate_and_of_the_blocked_prior(self, case, monkeypatch):
        if case == "poisson":
            data, omega = poisson_data(seed=6)
        else:  # nearly coincident smooth-field sites: the prior needs a jitter
            base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
            coords = np.vstack([base, base[:3] + 1e-13])
            y = np.random.default_rng(14).poisson(3.0, size=7).astype(float)
            data = SpatialData(
                y=y, X=np.ones((7, 1)), coords=coords, kernel=poisson_kernel()
            )
            omega = MaternParams(0.9, 0.5, 2.5)
        beta0 = estimate_module.initial_beta(data)
        value = approx_loglik(data, beta0, omega)
        assert np.isfinite(value)
        blocked = build_blocked(omega, data.coords)
        assert (blocked.jitter > 0) == (case == "near_duplicates")
        problem = site_problem(data, blocked, beta0)
        assert value == fixed_point.laplace_marginal(fixed_point.fit_posterior(problem))
        values, marginal = [], estimate_module.laplace_marginal

        def recorded(report):
            values.append(marginal(report))
            return values[-1]

        monkeypatch.setattr(estimate_module, "laplace_marginal", recorded)
        estimate(data, None, omega)
        assert values[0] == value


class TestObjectiveFactorizations:
    def test_only_the_prior_check_and_the_solver_factor(self, monkeypatch):
        # build_blocked's Cholesky ("prior"), which also certifies D for
        # GlmmProblem, and the solver's own factors: no factorization or
        # solve for the prior term or log det Xi
        data, omega = poisson_data(seed=4)
        calls = []

        def counted(module, name, label=None):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(label or name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("cholesky", "solve", "inv", "slogdet"):
            counted(np.linalg, name)
        counted(fixed_point, "potrf")
        counted(covariance, "potrf", "prior")
        in_solver = []
        fit = estimate_module.fit_posterior

        def solver(*args, **kwargs):
            before = len(calls)
            report = fit(*args, **kwargs)
            in_solver.append(calls[before:])
            return report

        monkeypatch.setattr(estimate_module, "fit_posterior", solver)
        value = approx_loglik(data, np.array([2.0]), omega)
        assert np.isfinite(value)
        [solver_calls] = in_solver
        assert solver_calls and set(solver_calls) == {"potrf"}
        assert len(calls) == 1 + len(solver_calls)
        assert calls.count("prior") == 1


class TestEstimate:
    def test_gaussian_beta_matches_gls(self):
        data, omega = gaussian_data(seed=4)
        blocked = build_blocked(omega, data.coords)
        n = data.y.shape[0]
        V = blocked.d11 + data.kernel.variance * np.eye(n)
        Vi_y = np.linalg.solve(V, data.y)
        Vi_X = np.linalg.solve(V, data.X)
        gls = np.linalg.solve(data.X.T @ Vi_X, data.X.T @ Vi_y)
        fit = estimate(data, np.zeros(1), omega, fit_omega=False)
        assert fit.converged
        assert fit.beta_hat[0] == pytest.approx(gls[0], abs=1e-4)

    def test_poisson_intercept_recovered(self):
        data, omega = poisson_data(seed=5, n=60)
        fit = estimate(data, np.array([1.0]), omega, fit_omega=False)
        assert fit.converged
        assert fit.beta_hat[0] == pytest.approx(2.0, abs=0.5)

    def test_omega_estimation_returns_valid_parameters(self):
        data, omega = poisson_data(seed=6, n=40)
        fit = estimate(data, np.array([2.0]), omega)
        assert 0.0 < fit.omega_hat.omega1 < 1.0
        assert fit.omega_hat.omega2 > 0
        assert fit.omega_hat.omega3 == omega.omega3
        assert np.isfinite(fit.objective_value)

    def test_objective_not_worse_than_start(self):
        data, omega = poisson_data(seed=7)
        start = approx_loglik(data, np.array([1.5]), omega)
        fit = estimate(data, np.array([1.5]), omega, fit_omega=False)
        assert fit.objective_value >= start - 1e-9

    @pytest.mark.parametrize("nu", [0.5, 1.5, 0.8])
    def test_each_prior_is_built_from_the_checked_distances(self, monkeypatch, nu):
        # every evaluation's prior is build_blocked's bit for bit, and
        # the sites are checked once, not once per evaluation
        data, _ = poisson_data(seed=9)
        omega = MaternParams(0.5, 1.0, nu)
        dist = covariance.site_distances(data.coords)
        before = dist.copy()
        report = estimate_module._fit(data, np.array([2.0]), omega, dist, None, [])
        assert np.array_equal(report.problem.D, build_blocked(omega, data.coords).d11)
        assert np.array_equal(dist, before)
        checks = []
        site_distances = estimate_module.site_distances
        monkeypatch.setattr(
            estimate_module, "site_distances",
            lambda coords: checks.append(1) or site_distances(coords),
        )
        fit = estimate(data, np.array([2.0]), omega)
        assert fit.fits > 1 and checks == [1]

    def test_duplicate_sites_rejected_before_any_fit(self, monkeypatch):
        data, omega = poisson_data(seed=9)
        data.coords[3] = data.coords[7]
        monkeypatch.setattr(estimate_module, "fit_posterior", None)
        for fit_omega in (True, False):
            with pytest.raises(ValueError, match="duplicate"):
                estimate(data, np.array([2.0]), omega, fit_omega=fit_omega)

    def test_deterministic(self):
        data, omega = poisson_data(seed=8)
        a = estimate(data, np.array([1.0]), omega, fit_omega=False)
        b = estimate(data, np.array([1.0]), omega, fit_omega=False)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert a.objective_value == b.objective_value


def small_data(family, p, seed=0, n=30):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 5, size=(n, 2))
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])[:, :p]
    if family == "poisson":
        y, kernel = rng.poisson(3.0, n).astype(float), poisson_kernel()
    elif family == "binomial":
        m = rng.integers(1, 8, n)
        y, kernel = rng.binomial(m, 0.4).astype(float), binomial_kernel(m)
    else:
        y, kernel = rng.standard_normal(n) + 1.0, gaussian_kernel(0.7)
    return SpatialData(y=y, X=X, coords=coords, kernel=kernel)


def value_and_gradient(data, beta, omega, dist, fit_omega=True):
    """The surrogate and its gradient, as one evaluation of ``estimate`` has them."""
    report = estimate_module._fit(data, beta, omega, dist, None, [])
    dD = estimate_module._prior_derivatives(report.problem, omega, dist) if fit_omega else ()
    Rinv = potri(report.chol)
    terms = estimate_module._marginal_terms(report, dD, Rinv)
    grad = estimate_module._surrogate_gradient(report, Rinv, terms)
    return estimate_module.laplace_marginal(report), grad


class TestGradient:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.0])
    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_matches_central_differences(self, family, nu, p):
        data = small_data(family, p)
        theta = np.concatenate([np.full(p, 0.3), [0.2, -0.1]])

        def split(t):
            return t[:p], MaternParams(float(expit(t[p])), float(np.exp(t[p + 1])), nu)

        value, grad = value_and_gradient(
            data, *split(theta), cdist(data.coords, data.coords)
        )
        assert value == approx_loglik(data, *split(theta))
        h = 1e-5
        central = np.array([
            (approx_loglik(data, *split(theta + h * e))
             - approx_loglik(data, *split(theta - h * e))) / (2 * h)
            for e in np.eye(p + 2)
        ])
        assert np.max(np.abs(grad - central) / np.maximum(1.0, np.abs(central))) < 1e-6

    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_skew_takes_the_laplace_covariance_diagonal(self, family, monkeypatch):
        # the gradient reads diag(Xi) as W^-1 rowsum(R^-1 o D), not off Xi itself
        data = small_data(family, 2)
        omega = MaternParams(0.4, 1.2)
        dist = cdist(data.coords, data.coords)
        report = estimate_module._fit(data, np.array([0.3, 0.1]), omega, dist, None, [])
        seen = []

        def skew(report, xi_diag):
            seen.append(xi_diag)
            return fixed_point.laplace_skew(report, xi_diag)

        monkeypatch.setattr(estimate_module, "laplace_skew", skew)
        Rinv = potri(report.chol)
        terms = estimate_module._marginal_terms(report, (report.problem.D,), Rinv)
        estimate_module._surrogate_gradient(report, Rinv, terms)
        assert np.allclose(seen[0], report.Xi.diagonal(), rtol=1e-12, atol=0.0)

    def test_beta_block_alone_without_distances(self):
        data = small_data("poisson", 2)
        omega = MaternParams(0.4, 1.2)
        beta = np.array([0.5, -0.2])
        _, full = value_and_gradient(data, beta, omega, cdist(data.coords, data.coords))
        _, block = value_and_gradient(
            data, beta, omega, cdist(data.coords, data.coords), fit_omega=False
        )
        assert block.shape == (2,)
        assert np.allclose(block, full[:2], rtol=1e-12, atol=0.0)


class TestFailedFits:
    def test_one_failed_fit_is_a_rejected_trial_point(self, monkeypatch):
        # the second fit is the line search's first trial point; a
        # non-converged fit there must make it backtrack, not stop
        data, omega = poisson_data(seed=6, n=40)
        start = approx_loglik(data, np.array([2.0]), omega)
        fit = estimate_module.fit_posterior
        calls = []

        def fails_once(problem, eta0=None):
            calls.append(1)
            return (one_iterate_fit if len(calls) == 2 else fit)(problem, eta0=eta0)

        monkeypatch.setattr(estimate_module, "fit_posterior", fails_once)
        result = estimate(data, np.array([2.0]), omega)
        assert result.failed_fits == 1
        assert result.fits == len(calls)
        assert result.converged
        assert np.isfinite(result.objective_value)
        assert result.objective_value >= start

    def test_failed_start_is_reported(self, monkeypatch):
        data, omega = poisson_data(seed=2)
        monkeypatch.setattr(estimate_module, "fit_posterior", one_iterate_fit)
        result = estimate(data, np.zeros(1), omega)
        assert not result.converged
        assert result.objective_value == -np.inf
        assert result.fits == result.failed_fits >= 1


class TestPoolReference:
    # datasets of the estimation benchmark's pool, against the estimates
    # recorded for it, at the benchmark's own tolerance
    @pytest.mark.parametrize("seed", [0, 3, 14])
    def test_fit_matches_recorded_estimates(self, tmp_path, seed):
        recorded = json.loads(REFERENCE.read_text())["datasets"][str(seed)]
        data = tmp_path / "counts.csv"
        dataio.write_synthetic_counts(data, n_sites=100, seed=seed)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"family": "poisson", "beta": "estimate", "matern": "estimate"})
        )
        out = tmp_path / "out"
        code = cli.main(
            ["fit", "--config", str(config), "--data", str(data), "--out", str(out),
             "--quiet"]
        )
        assert code == cli.EXIT_OK
        est = json.loads((out / "report.json").read_text())["estimation"]
        assert est["optimizer_converged"]
        got = est["beta_hat"] + est["omega_hat"][:2]
        want = recorded["beta_hat"] + recorded["omega_hat"]
        assert got == pytest.approx(want, rel=1e-4, abs=1e-4)


def dense_R(report):
    """``R = D + W^-1`` of a site fit, formed densely."""
    return report.problem.D + np.diag(1.0 / report.w)


class TestPrecision:
    @pytest.mark.parametrize("family", ["poisson", "binomial", "gaussian"])
    def test_symmetric_inverse_of_R(self, family):
        data = small_data(family, 2)
        dist = cdist(data.coords, data.coords)
        report = estimate_module._fit(
            data, np.array([0.3, 0.1]), MaternParams(0.4, 1.2), dist, None, []
        )
        factor = report.chol.copy()
        Rinv = potri(report.chol)
        assert np.array_equal(Rinv, Rinv.T)
        want = np.linalg.solve(dense_R(report), np.eye(len(Rinv)))
        assert np.max(np.abs(Rinv - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(report.chol, factor)  # the fit's factor is kept


class TestInformation:
    # the Gaussian surrogate is the exact marginal N(X beta, R), quadratic in beta
    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_gaussian_blocks(self, nu):
        data = small_data("gaussian", 2)
        dist = cdist(data.coords, data.coords)
        omega = MaternParams(0.4, 1.2, nu)
        beta = np.array([0.3, 0.1])
        report = estimate_module._fit(data, beta, omega, dist, None, [])
        dD = estimate_module._prior_derivatives(report.problem, omega, dist)
        info = estimate_module._information(report, dD, potri(report.chol))
        assert info.shape == (4, 4)
        assert np.all(info[:2, 2:] == 0.0) and np.all(info[2:, :2] == 0.0)

        def beta_gradient(b):
            rep = estimate_module._fit(data, b, omega, dist, None, [])
            Rinv = potri(rep.chol)
            terms = estimate_module._marginal_terms(rep, (), Rinv)
            return estimate_module._surrogate_gradient(rep, Rinv, terms)

        h = 1e-3
        hessian = np.column_stack([
            (beta_gradient(beta + h * e) - beta_gradient(beta - h * e)) / (2 * h)
            for e in np.eye(2)
        ])
        assert np.allclose(info[:2, :2], -hessian, rtol=1e-8, atol=0.0)
        R = dense_R(report)
        RC = [np.linalg.solve(R, C) for C in dD]
        dense = np.array([[0.5 * np.trace(a @ b) for b in RC] for a in RC])
        assert np.allclose(info[2:, 2:], dense, rtol=1e-12, atol=0.0)


def logit(x):
    return np.log(x / (1.0 - x))


class TestScoringStep:
    def test_first_step_is_the_full_scoring_step(self, monkeypatch):
        data, omega = poisson_data(seed=6, n=40)
        points, reports, infos, grads = [], [], [], []
        fit = estimate_module._fit

        def recorded(data, beta, omega, *args):
            points.append(np.concatenate([beta, [logit(omega.omega1), np.log(omega.omega2)]]))
            reports.append(fit(data, beta, omega, *args))
            return reports[-1]

        def spy(fn, seen):
            def wrapper(report, *args):
                seen.append((report, fn(report, *args)))
                return seen[-1][1]

            return wrapper

        monkeypatch.setattr(estimate_module, "_fit", recorded)
        monkeypatch.setattr(
            estimate_module, "_information", spy(estimate_module._information, infos)
        )
        monkeypatch.setattr(
            estimate_module, "_surrogate_gradient",
            spy(estimate_module._surrogate_gradient, grads),
        )
        result = estimate(data, np.array([2.0]), omega)
        assert result.converged and result.fits == len(points)
        [(_, info), *_], [(_, grad), (second, _), *_] = infos, grads
        assert infos[0][0] is grads[0][0] is reports[0]
        assert np.array_equal(points[0], [2.0, 0.0, 0.0])
        assert np.allclose(points[1], points[0] + np.linalg.solve(info, grad), rtol=1e-12)
        # the full step is accepted: the next gradient is taken at its fit
        assert second is reports[1]

    @pytest.mark.parametrize(
        "info", [-np.eye(3), np.full((3, 3), np.nan)], ids=["indefinite", "nan"]
    )
    def test_information_not_positive_definite_steps_along_the_gradient(
        self, monkeypatch, info
    ):
        data, omega = poisson_data(seed=6, n=40)
        want = estimate(data, np.array([2.0]), omega)
        monkeypatch.setattr(estimate_module, "_information", lambda *args: info)
        result = estimate(data, np.array([2.0]), omega)
        assert result.converged and result.failed_fits == 0
        got = [*result.beta_hat, result.omega_hat.omega1, result.omega_hat.omega2]
        near = [*want.beta_hat, want.omega_hat.omega1, want.omega_hat.omega2]
        assert got == pytest.approx(near, rel=1e-4)
        assert result.objective_value == pytest.approx(want.objective_value, abs=1e-8)

    def test_information_with_a_vanishing_block_still_scales_the_rest(self):
        # at a vanishing sill the covariance block of the information
        # underflows to 0 while beta's stays
        info = np.diag([4.0, 0.0, np.nan])
        step = estimate_module._scoring_step(info, np.array([2.0, 3.0, 5.0]))
        assert np.array_equal(step, [0.5, 3.0, 5.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_trial_out_of_the_matern_range_is_rejected(self, seed):
        # constant counts: the surrogate has no interior maximum, and the
        # steps drive log omega2 toward -inf, past the least positive double
        rng = np.random.default_rng(seed)
        data = SpatialData(
            y=np.full(12, 5.0), X=np.ones((12, 1)), coords=rng.uniform(0, 3, (12, 2)),
            kernel=poisson_kernel(),
        )
        result = estimate(data, [0.0], MaternParams(0.01, 10.0))
        assert result.converged is False
        assert np.isfinite(result.objective_value)
        assert result.report.converged

    def test_jitter_is_logged_once_per_estimate(self, caplog):
        # constant counts from the CLI's start: the sill shrinks toward 0 and
        # most trial priors need a jitter
        data = SpatialData(
            y=np.full(12, 5.0), X=np.ones((12, 1)),
            coords=np.random.default_rng(0).uniform(0, 3, (12, 2)), kernel=poisson_kernel(),
        )
        init_beta = estimate_module.initial_beta(data)
        with caplog.at_level("WARNING"):
            result = estimate(data, init_beta, MaternParams(0.5, 1.0))
        warnings = [
            r.getMessage() for r in caplog.records
            if "covariance jitter escalated" in r.getMessage()
        ]
        assert len(warnings) == 1
        jittered = int(warnings[0].split(" on ")[1].split()[0])
        assert 1 < jittered <= result.fits
        assert warnings[0].endswith(f"of {result.fits} trial priors")

    def test_jitter_count_leaves_out_the_boundary_fit(self, monkeypatch, caplog):
        # the limit prior sill * I is no Matern prior and needs no jitter
        priors = []

        class Jittered(covariance.BlockedCovariance):
            def __init__(self, *args):
                super().__init__(*args)
                self.jitter = 1e-10
                priors.append(self)

        monkeypatch.setattr(estimate_module, "BlockedCovariance", Jittered)
        monkeypatch.setattr(estimate_module, "_nearest_correlation", lambda omega, dist: 0.0)
        data, omega = poisson_data(seed=6, n=40)
        with caplog.at_level("WARNING"):
            result = estimate(data, None, omega)
        assert result.converged and result.fits == len(priors) + 1
        [warning] = [
            r.getMessage() for r in caplog.records
            if "covariance jitter escalated" in r.getMessage()
        ]
        assert warning.endswith(f"on {len(priors)} of {len(priors)} trial priors")


class TestPrecisionOnce:
    def test_one_potri_per_converged_evaluation(self, monkeypatch):
        # the start's R^-1 serves both its gradient and its information
        data, omega = poisson_data(seed=6, n=40)
        inverses, converged = [], []
        potri_fn, fit = estimate_module.potri, estimate_module.fit_posterior
        monkeypatch.setattr(
            estimate_module, "potri", lambda c: inverses.append(1) or potri_fn(c)
        )

        def recorded(*args, **kwargs):
            report = fit(*args, **kwargs)
            converged.append(report.converged)
            return report

        monkeypatch.setattr(estimate_module, "fit_posterior", recorded)
        result = estimate(data, np.array([2.0]), omega)
        assert result.converged and result.fits == len(converged)
        assert len(inverses) == sum(converged)


class TestResponseOnce:
    @pytest.mark.parametrize("family", ["poisson", "binomial"])
    def test_one_start_per_estimate_and_one_check_per_posed_problem(
        self, family, monkeypatch
    ):
        from glmmfp import families

        data = small_data(family, 1)
        counts = {"response_term": 0, "initial_eta": 0, "check_support": 0}
        for name in counts:
            fn = getattr(families, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(families, name, counted)
        result = estimate(data, np.array([1.0]), MaternParams(0.5, 1.0))
        assert result.fits > 1
        # the family's start once, for the first fit; every trial is a new
        # problem, which checks y and evaluates its response term once
        assert counts == {
            "response_term": result.fits, "initial_eta": 1, "check_support": result.fits
        }


class TestStopRule:
    def test_estimate_at_the_acceptance_sizes_converges(self):
        # simulate's sic_estimated on seed 6, replication 0 (n = n* = 400):
        # the gradient's roundoff floor lay above SCORING_GTOL by scoring alone,
        # which the decrement stopped; Newton steps reach the gradient stop
        from glmmfp.simulate import SimConfig, generate_dataset

        config = SimConfig(seed=6)
        observed = generate_dataset(config, 0).observed
        result = estimate(observed, None, config.omega)  # from simulate's start
        assert result.converged and result.failed_fits == 0
        assert result.fits <= 30

    def test_step_that_leaves_the_surrogate_unchanged_stops_unconverged(
        self, monkeypatch
    ):
        data, omega = poisson_data(seed=6, n=40)
        monkeypatch.setattr(estimate_module, "laplace_marginal", lambda report: 0.0)
        result = estimate(data, np.array([2.0]), omega)
        assert not result.converged
        assert result.optimizer_iterations == 1 and result.fits == 2
        assert result.objective_value == 0.0


    @pytest.mark.parametrize("seed", [5, 11])
    def test_sic_estimated_converges_in_every_replication(self, seed):
        # on these seeds a scoring step's gain lies below the surrogate's
        # roundoff, so no halving raises it; the resolution stop counts that
        # step's decrement as converged
        from glmmfp.simulate import SimConfig, run_scenarios

        config = SimConfig(
            n=60, n_star=40, replications=6, seed=seed, scenarios=("sic_estimated",)
        )
        result = run_scenarios(config)
        assert result.failures == {"sic_estimated": 0}


    @pytest.mark.parametrize("seed", [3, 5, 7, 11])
    def test_sic_estimated_fits_per_replication(self, seed):
        # by scoring alone seed 11 took 118 and 280 fits and seed 7 131, the
        # last steps stalling or zig-zagging near the optimum
        from glmmfp.simulate import SimConfig, run_scenarios

        config = SimConfig(
            n=60, n_star=40, replications=6, seed=seed, scenarios=("sic_estimated",)
        )
        result = run_scenarios(config)
        assert result.failures == {"sic_estimated": 0}
        fits = [record["sic_estimated"]["fits"] for record in result.records]
        assert max(fits) <= 20


class TestStopField:
    @pytest.mark.parametrize(
        "stop, converged",
        [("gradient", True), ("decrement", True), ("resolution", True), ("boundary", True),
         ("stalled", False), ("step_limit", False), ("start_failed", False)],
    )
    def test_converged_is_read_off_the_stop(self, stop, converged):
        result = estimate_module.EstimateResult(
            beta_hat=np.zeros(1), omega_hat=MaternParams(0.5, 1.0), objective_value=-1.0,
            optimizer_iterations=0, newton_steps=0, stop=stop, fits=1, failed_fits=0,
            report=None,
        )
        assert result.converged is converged
        assert result.record["optimizer_converged"] is converged
        assert result.record["stop"] == stop

    def test_failed_start(self, monkeypatch):
        data, omega = poisson_data(seed=2)
        monkeypatch.setattr(estimate_module, "fit_posterior", one_iterate_fit)
        result = estimate(data, np.zeros(1), omega)
        assert (result.converged, result.stop) == (False, "start_failed")

    def test_step_limit(self, monkeypatch):
        monkeypatch.setattr(estimate_module, "SCORING_MAX_ITER", 1)
        data, omega = poisson_data(seed=6, n=40)
        result = estimate(data, np.array([2.0]), omega)
        assert (result.converged, result.stop) == (False, "step_limit")
        assert result.optimizer_iterations == 1

    def test_gradient(self):
        data, omega = poisson_data(seed=6, n=40)
        result = estimate(data, np.array([2.0]), omega)
        assert (result.converged, result.stop) == (True, "gradient")
        assert 0 < result.newton_steps <= result.optimizer_iterations

    def test_decrement_or_resolution_below_a_zero_gradient_stop(self, monkeypatch):
        monkeypatch.setattr(estimate_module, "SCORING_GTOL", 0.0)
        data, omega = poisson_data(seed=6, n=40)
        result = estimate(data, np.array([2.0]), omega)
        assert result.converged and result.stop in ("decrement", "resolution")

    def test_stalled(self):
        # constant counts: no interior maximum (TestScoringStep)
        data = SpatialData(
            y=np.full(12, 5.0), X=np.ones((12, 1)),
            coords=np.random.default_rng(0).uniform(0, 3, (12, 2)), kernel=poisson_kernel(),
        )
        result = estimate(data, [0.0], MaternParams(0.01, 10.0))
        assert (result.converged, result.stop) == (False, "stalled")


class TestBoundaryStop:
    """An estimate whose surrogate rises toward omega2 -> inf says so."""

    # simulate's sic_estimated at n = 60, n* = 40: each replication's stop
    STOPS = {
        3: ["gradient"] * 5 + ["decrement"],
        5: ["boundary"] + ["gradient"] * 5,
        7: ["gradient"] * 5 + ["decrement"],
        11: ["gradient"] * 6,
    }

    @staticmethod
    def observed(seed, replication):
        from glmmfp.simulate import SimConfig, generate_dataset

        config = SimConfig(n=60, n_star=40, replications=6, seed=seed)
        return generate_dataset(config, replication).observed, config.omega

    def test_stops_on_the_four_seeds(self):
        stops, fits = {}, 0
        for seed in self.STOPS:
            stops[seed] = []
            for replication in range(6):
                data, omega = self.observed(seed, replication)
                result = estimate(data, None, omega)
                assert result.converged and result.failed_fits == 0
                stops[seed].append(result.stop)
                fits += result.fits
        assert stops == self.STOPS
        assert fits <= 129

    def test_boundary_costs_one_fit_and_keeps_the_estimate(self, monkeypatch):
        data, omega = self.observed(5, 0)
        result = estimate(data, None, omega)
        monkeypatch.setattr(estimate_module, "BOUNDARY_CORRELATION", 0.0)
        unchecked = estimate(data, None, omega)
        assert (result.stop, unchecked.stop) == ("boundary", "gradient")
        assert result.converged and result.fits == unchecked.fits + 1
        assert result.record == {**unchecked.record, "stop": "boundary", "fits": result.fits}
        # exp(-omega2 d_min) at the estimate: the prior is nearly sill * I
        dist = estimate_module.site_distances(data.coords)
        assert estimate_module._nearest_correlation(result.omega_hat, dist) < 1e-4

    def test_interior_estimate_keeps_its_stop(self, monkeypatch):
        data, omega = self.observed(5, 1)
        result = estimate(data, None, omega)
        monkeypatch.setattr(estimate_module, "BOUNDARY_CORRELATION", 1.0)
        checked = estimate(data, None, omega)
        # with every estimate checked, the interior one's limit lies below it
        assert (result.stop, checked.stop) == ("gradient", "gradient")
        assert checked.fits == result.fits + 1


def split_theta(theta, p, nu):
    """``(beta, omega)`` at ``theta = (beta, logit omega1, log omega2)``."""
    return theta[:p], MaternParams(float(expit(theta[p])), float(np.exp(theta[p + 1])), nu)


def observed_information(report, omega, dist):
    dD = estimate_module._prior_derivatives(report.problem, omega, dist)
    Rinv = potri(report.chol)
    info = estimate_module._information(report, dD, Rinv)
    C22 = covariance.matern_scale_derivative(omega, dist, second=True)
    terms = estimate_module._marginal_terms(report, dD, Rinv)
    return estimate_module._observed_information(report, terms, C22, Rinv, info), info


class TestNewtonPhase:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.8])
    def test_gaussian_observed_information_is_the_negative_hessian(self, nu):
        # the Gaussian surrogate is the exact marginal N(X beta, D + s2 I) and W
        # is constant, so J is the surrogate's negative Hessian; central
        # differences of its exact gradient (TestGradient)
        data = small_data("gaussian", 2)
        dist = cdist(data.coords, data.coords)
        theta = np.array([0.3, 0.1, logit(0.4), np.log(1.2)])
        report = estimate_module._fit(data, *split_theta(theta, 2, nu), dist, None, [])
        J, info = observed_information(report, split_theta(theta, 2, nu)[1], dist)
        h = 1e-4
        hessian = np.column_stack([
            (value_and_gradient(data, *split_theta(theta + h * e, 2, nu), dist)[1]
             - value_and_gradient(data, *split_theta(theta - h * e, 2, nu), dist)[1])
            / (2 * h)
            for e in np.eye(4)
        ])
        assert np.max(np.abs(J + hessian)) <= 1e-6 * np.max(np.abs(J))
        assert np.array_equal(J[:2, :2], info[:2, :2])

    @staticmethod
    def record(monkeypatch):
        """Spies on the fits, gradients, informations and observed informations."""
        seen = {"fits": [], "grads": [], "infos": [], "observed": []}
        fit = estimate_module._fit

        def fitted(data, beta, omega, *args):
            report = fit(data, beta, omega, *args)
            point = np.concatenate([beta, [logit(omega.omega1), np.log(omega.omega2)]])
            seen["fits"].append((point, report))
            return report

        def spy(name, key):
            fn = getattr(estimate_module, name)

            def wrapper(report, *args):
                seen[key].append((report, fn(report, *args)))
                return seen[key][-1][1]

            monkeypatch.setattr(estimate_module, name, wrapper)

        monkeypatch.setattr(estimate_module, "_fit", fitted)
        spy("_surrogate_gradient", "grads")
        spy("_information", "infos")
        spy("_observed_information", "observed")
        return seen

    def test_trial_is_the_newton_step_once_the_decrement_is_small(self, monkeypatch):
        data, omega = poisson_data(seed=6, n=40)
        seen = self.record(monkeypatch)
        result = estimate(data, np.array([2.0]), omega)
        assert result.converged and result.newton_steps > 0
        reports = [report for _, report in seen["fits"]]
        infos = {id(report): info for report, info in seen["infos"]}
        observed = {id(report): J for report, J in seen["observed"]}
        newton = fisher = 0
        for report, grad in seen["grads"][:-1]:  # the last pass stops
            step = estimate_module._scoring_step(infos[id(report)], grad)
            i = reports.index(report)
            point, trial = seen["fits"][i][0], seen["fits"][i + 1][0]
            if grad @ step / 2.0 <= estimate_module.NEWTON_DECREMENT:
                J = observed.pop(id(report))
                assert np.allclose(trial, point + np.linalg.solve(J, grad), rtol=1e-10)
                newton += 1
            else:
                assert id(report) not in observed
                assert np.allclose(trial, point + step, rtol=1e-10)
                fisher += 1
        assert newton >= result.newton_steps and fisher > 0 and not observed

    def test_rejected_newton_trial_falls_back_to_the_scoring_step(self, monkeypatch):
        # the first Newton trial and the full scoring step after it fail their
        # mode fits, so the next trial is the scoring step halved
        data, omega = poisson_data(seed=6, n=40)
        seen = self.record(monkeypatch)
        observed = estimate_module._observed_information
        fit_posterior, failing = estimate_module.fit_posterior, []

        def newton_pass(report, *args):
            if not failing:
                failing.extend([len(seen["fits"]), len(seen["fits"]) + 1])
            return observed(report, *args)

        def fits(problem, eta0=None):
            cut = len(seen["fits"]) in failing
            return (one_iterate_fit if cut else fit_posterior)(problem, eta0=eta0)

        monkeypatch.setattr(estimate_module, "_observed_information", newton_pass)
        monkeypatch.setattr(estimate_module, "fit_posterior", fits)
        result = estimate(data, np.array([2.0]), omega)
        assert result.converged and result.failed_fits == 2
        k = failing[0]
        point, report = seen["fits"][k - 1]  # the pass's accepted fit
        [grad] = [g for r, g in seen["grads"] if r is report]
        [info] = [i for r, i in seen["infos"] if r is report]
        [J] = [j for r, j in seen["observed"] if r is report]
        step = estimate_module._scoring_step(info, grad)
        trials = [p for p, _ in seen["fits"][k : k + 3]]
        assert np.allclose(trials[0], point + np.linalg.solve(J, grad), rtol=1e-10)
        assert np.allclose(trials[1], point + step, rtol=1e-10)
        assert np.allclose(trials[2], point + step / 2, rtol=1e-10)


class TestAlphaAtTheMode:
    def test_constant_counts_converge_with_alpha_at_the_score(self):
        # constant counts from the CLI's start: the sill shrinks toward 0,
        # where the step of xi = D alpha is tiny while that of alpha is not;
        # the mode fits stop on both, so alpha is the mode's score y - mu
        # (D^-1 xi = Z' s there) and scoring converges to beta = log 5
        data = SpatialData(
            y=np.full(12, 5.0), X=np.ones((12, 1)),
            coords=np.random.default_rng(0).uniform(0, 3, (12, 2)), kernel=poisson_kernel(),
        )
        init_beta = estimate_module.initial_beta(data)
        result = estimate(data, init_beta, MaternParams(0.5, 1.0))
        report = result.report
        assert result.converged is True and report.converged is True
        assert result.beta_hat[0] == pytest.approx(np.log(5.0), rel=1e-7)
        score = data.y - np.exp(report.eta)
        assert np.max(np.abs(report.alpha - score)) <= 1e-12 * np.max(data.y)


class TestFitsBudget:
    # one BFGS run per pool dataset, as `glmmfp fit` starts it: 56 fits on
    # seeds 0-3 from the identity start, 45 from the information
    def test_pool_fits(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"family": "poisson", "beta": "estimate", "matern": "estimate"})
        )
        cfg = dataio.load_config(config)
        fits = failed = 0
        for seed in range(4):
            path = tmp_path / f"{seed}.csv"
            dataio.write_synthetic_counts(path, n_sites=100, seed=seed)
            sites = cli._sites(cfg, dataio.load_dataset(path, cfg))
            meta = cli._site_fit(cfg, sites)[2].record
            fits += meta["fits"]
            failed += meta["failed_fits"]
        assert failed == 0
        assert fits <= 45 < 56


class TestWarmTrials:
    def test_warm_trial_reaches_the_cold_mode(self, monkeypatch):
        # each trial's fit starts from the accepted fit's predictor: another
        # path than the family's start, to the same mode to TOL
        data, omega = poisson_data(seed=6, n=40)
        fit, trials = estimate_module._fit, []

        def recorded(data, beta, omega, dist, accepted, jitters):
            report = fit(data, beta, omega, dist, accepted, jitters)
            if accepted is not None:
                trials.append((report, fit(data, beta, omega, dist, None, [])))
            return report

        monkeypatch.setattr(estimate_module, "_fit", recorded)
        result = estimate(data, np.array([2.0]), omega)
        assert result.converged and len(trials) == result.fits - 1
        for warm, cold in trials:
            assert warm.converged and cold.converged
            assert warm.iterations <= cold.iterations
            assert np.max(np.abs(warm.xi - cold.xi)) <= fixed_point.TOL
            assert np.max(np.abs(warm.alpha - cold.alpha)) <= fixed_point.TOL
        assert sum(w.iterations for w, _ in trials) < sum(c.iterations for _, c in trials)

    def test_pool_newton_iterations(self, tmp_path, monkeypatch):
        # the estimation benchmark's 16 datasets, as `glmmfp fit` estimates
        # them: 705 Newton iterations when every trial started cold, 373 warm
        # over 179 fits by scoring alone, and 275 over 107 fits with Newton
        # steps near the optimum
        iterations = []
        fit = estimate_module.fit_posterior

        def counted(*args, **kwargs):
            report = fit(*args, **kwargs)
            iterations.append(report.iterations)
            return report

        monkeypatch.setattr(estimate_module, "fit_posterior", counted)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"family": "poisson", "beta": "estimate", "matern": "estimate"})
        )
        cfg = dataio.load_config(config)
        fits = failed = 0
        for seed in range(16):
            path = tmp_path / f"{seed}.csv"
            dataio.write_synthetic_counts(path, n_sites=100, seed=seed)
            sites = cli._sites(cfg, dataio.load_dataset(path, cfg))
            meta = cli._site_fit(cfg, sites)[2].record
            fits += meta["fits"]
            failed += meta["failed_fits"]
        assert (fits, failed) == (107, 0) and len(iterations) == fits
        assert sum(iterations) <= 300
