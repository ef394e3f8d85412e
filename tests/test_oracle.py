import itertools
import json

import numpy as np
import pytest

from glmmfp import cli, oracle
from glmmfp.families import gaussian_kernel, poisson_kernel
from glmmfp.fixed_point import GlmmProblem, corrected_mean, fit_posterior
from glmmfp.oracle import (
    CapabilityError,
    UnreliableEstimateError,
    adjudicate_exactness,
    moments_importance,
    moments_quadrature,
)

# Scalar poisson instance with a known brute-force answer: n = r = 1,
# y = 2, beta = 0, D = 1.  Reference values computed with 30-digit
# arithmetic from the one-dimensional integral.
REF_MEAN = 0.328014986377204239
REF_LOG_MARGINAL = -1.9319342565384447


def scalar_poisson(y=2.0):
    return GlmmProblem(
        y=np.array([y]),
        X=np.zeros((1, 1)),
        Z=np.eye(1),
        D=np.eye(1),
        beta=np.zeros(1),
        kernel=poisson_kernel(),
    )


def gaussian_instance(seed=0, n=6, r=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 1))
    Z = rng.standard_normal((n, r))
    A = rng.standard_normal((r, r))
    D = 0.4 * (A @ A.T) + 0.3 * np.eye(r)
    beta = np.array([0.3])
    y = X @ beta + Z @ (np.linalg.cholesky(D) @ rng.standard_normal(r))
    y = y + rng.standard_normal(n)
    return GlmmProblem(y=y, X=X, Z=Z, D=D, beta=beta, kernel=gaussian_kernel(1.0))


class TestQuadrature:
    def test_scalar_poisson_reference_mean(self):
        ref = moments_quadrature(scalar_poisson(), order=96)
        assert ref.mean[0] == pytest.approx(REF_MEAN, abs=1e-10)

    def test_scalar_poisson_reference_log_marginal(self):
        ref = moments_quadrature(scalar_poisson(), order=96)
        assert ref.log_marginal == pytest.approx(REF_LOG_MARGINAL, abs=1e-10)

    def test_order_doubling_error_shrinks(self):
        coarse = moments_quadrature(scalar_poisson(), order=32)
        fine = moments_quadrature(scalar_poisson(), order=128)
        assert fine.error_estimate < coarse.error_estimate
        assert fine.error_estimate <= 1e-9

    def test_insensitive_to_center(self):
        problem = scalar_poisson()
        a = moments_quadrature(problem, order=192)
        b = moments_quadrature(
            problem, order=192, center=(np.array([0.1]), np.array([[0.9]]))
        )
        assert a.mean[0] == pytest.approx(b.mean[0], abs=1e-9)
        assert a.log_marginal == pytest.approx(b.log_marginal, abs=1e-9)

    def test_gaussian_case_recovers_conjugate_posterior(self):
        problem = gaussian_instance()
        state = fit_posterior(problem)
        ref = moments_quadrature(problem, order=32)
        assert np.max(np.abs(ref.mean - state.xi)) < 1e-8
        assert np.max(np.abs(ref.cov - state.Xi)) < 1e-8

    def test_dimension_limit(self):
        rng = np.random.default_rng(1)
        problem = GlmmProblem(
            y=rng.poisson(1.0, size=6).astype(float),
            X=np.ones((6, 1)),
            Z=rng.standard_normal((6, 5)),
            D=np.eye(5),
            beta=np.zeros(1),
            kernel=poisson_kernel(),
        )
        with pytest.raises(CapabilityError, match="r <= 4"):
            moments_quadrature(problem)

    def test_minimum_order(self):
        with pytest.raises(ValueError, match="at least 8"):
            moments_quadrature(scalar_poisson(), order=4)


class TestImportanceSampling:
    def test_agrees_with_quadrature(self):
        problem = scalar_poisson()
        ref = moments_quadrature(problem, order=96)
        est = moments_importance(problem, samples=40_000, seed=0)
        assert est.mean[0] == pytest.approx(ref.mean[0], abs=5 * est.error_estimate)
        assert est.log_marginal == pytest.approx(ref.log_marginal, abs=0.02)

    def test_deterministic_given_seed(self):
        problem = scalar_poisson()
        a = moments_importance(problem, samples=10_000, seed=42)
        b = moments_importance(problem, samples=10_000, seed=42)
        assert a.mean[0] == b.mean[0]
        assert a.log_marginal == b.log_marginal

    def test_error_estimate_positive_and_reported(self):
        est = moments_importance(scalar_poisson(), samples=10_000, seed=1)
        assert est.error_estimate > 0
        assert est.method == "importance_sampling"
        assert est.order_or_samples == 10_000

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="10000"):
            moments_importance(scalar_poisson(), samples=100)

    def test_works_beyond_quadrature_dimension(self):
        rng = np.random.default_rng(2)
        r = 5
        Z = rng.standard_normal((8, r))
        problem = GlmmProblem(
            y=rng.poisson(1.0, size=8).astype(float),
            X=np.ones((8, 1)),
            Z=Z,
            D=0.3 * np.eye(r),
            beta=np.zeros(1),
            kernel=poisson_kernel(),
        )
        est = moments_importance(problem, samples=20_000, seed=3)
        assert est.mean.shape == (r,)
        assert np.all(np.isfinite(est.cov))

    def test_unreliable_error_is_a_runtime_error(self):
        assert issubclass(UnreliableEstimateError, RuntimeError)


class TestAdjudication:
    def test_scalar_poisson_verdict_and_gaps(self):
        report = adjudicate_exactness(scalar_poisson(y=3.0))
        assert report.oracle.error_estimate <= 1e-8
        # the fixed point is the posterior mode of this skewed posterior,
        # which is measurably below the posterior mean
        assert report.mean_gap > 1e-3
        assert report.verdict == "REFUTED"

    def test_gaussian_instance_confirmed(self):
        report = adjudicate_exactness(gaussian_instance())
        assert report.verdict == "CONFIRMED"
        assert report.mean_gap < 1e-8

    def test_report_carries_both_answers(self):
        report = adjudicate_exactness(scalar_poisson())
        assert report.fit.xi.shape == (1,)
        assert report.fit.Xi.shape == (1, 1)
        assert report.oracle.method == "gauss_hermite"

    def test_dimension_limit(self):
        rng = np.random.default_rng(4)
        problem = GlmmProblem(
            y=rng.poisson(1.0, size=6).astype(float),
            X=np.ones((6, 1)),
            Z=rng.standard_normal((6, 5)),
            D=np.eye(5),
            beta=np.zeros(1),
            kernel=poisson_kernel(),
        )
        with pytest.raises(CapabilityError):
            adjudicate_exactness(problem)


class TestModeToMeanCorrection:
    def test_correction_shrinks_the_battery_mean_gap(self):
        # The leading Laplace term (Tierney & Kadane 1986) should explain most
        # of the mode -> mean gap that `verify` reports on count families:
        # over battery seeds 0-39 the median ratio is 0.044 (880 instances).
        ratios = []
        for seed in range(4):
            rng = np.random.default_rng([seed, 1])
            for family, problem in cli._verify_battery(rng):
                if family == "gaussian":
                    continue
                report = adjudicate_exactness(problem)
                if report.mean_gap <= 1e-6:
                    continue
                mean = corrected_mean(fit_posterior(problem))
                ratios.append(np.max(np.abs(mean - report.oracle.mean)) / report.mean_gap)
        assert len(ratios) >= 80
        assert np.median(ratios) <= 0.1


class TestQuadratureWorkBudget:
    """Each Gauss-Hermite rule once per process, each order once per adjudication."""

    def test_verify_computes_each_rule_once(self, tmp_path, monkeypatch):
        orders = []
        hermgauss = np.polynomial.hermite.hermgauss

        def counted(order):
            orders.append(order)
            return hermgauss(order)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
        oracle._hermite_rule.cache_clear()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"verify": {"identity_instances": 5}}))
        code = cli.main(["verify", "--config", str(config), "--out",
                         str(tmp_path / "out"), "--seed", "5", "--quiet"])
        assert code == cli.EXIT_OK
        assert {32, 64, 128} <= set(orders)
        assert len(orders) == len(set(orders))

    def test_escalation_evaluates_each_order_once(self, monkeypatch):
        orders = []
        gh_raw = oracle._gh_raw

        def counted(problem, order, xi, scale):
            orders.append(order)
            return gh_raw(problem, order, xi, scale)

        monkeypatch.setattr(oracle, "_gh_raw", counted)
        monkeypatch.setattr(oracle, "ERROR_TARGET", 0.0)
        report = adjudicate_exactness(scalar_poisson(), order=64)
        assert report.oracle.order_or_samples == 256
        assert sorted(orders) == [32, 64, 128, 256]

    def test_one_factorization_of_D_per_adjudication(self, monkeypatch):
        # the factor that certified D is the one the integrand reads
        factored = []
        cholesky = np.linalg.cholesky

        def counted(a):
            factored.append(np.array(a, copy=True))
            return cholesky(a)

        drawn = gaussian_instance(seed=3)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        problem = GlmmProblem(
            y=drawn.y, X=drawn.X, Z=drawn.Z, D=drawn.D, beta=drawn.beta, kernel=drawn.kernel
        )
        adjudicate_exactness(problem, order=16)  # evaluates orders 16 and 8 at least
        assert sum(np.array_equal(a, problem.D) for a in factored) == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_grid_is_in_product_order(self, r):
        for order in (5, 8):
            expected = np.array(list(itertools.product(range(order), repeat=r)))
            assert np.array_equal(oracle._tensor_grid(order, r), expected)

    def test_cached_rule_is_read_only(self):
        nodes, log_weights = oracle._hermite_rule(16)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            log_weights[0] = 0.0
