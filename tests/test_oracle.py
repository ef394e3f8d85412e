import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from glmmfp import cli, families, oracle
from glmmfp.covariance import MaternParams, matern, site_distances
from glmmfp.families import gaussian_kernel, poisson_kernel
from glmmfp.fixed_point import GlmmProblem, corrected_mean, fit_posterior, laplace_marginal
from glmmfp.oracle import (
    CapabilityError,
    adjudicate_exactness,
    identity_gaps,
    joint_logdensity_direct,
    joint_logdensity_factored,
    moments_quadrature,
    moments_slice,
    random_identity_stack,
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

    def test_site_design_is_the_explicit_identity(self):
        # the integrand forms no product by Z on the site design
        D = np.array([[1.0, 0.4], [0.4, 0.8]])
        y, X = np.array([2.0, 5.0]), np.ones((2, 1))
        site, explicit = (
            GlmmProblem(y=y, X=X, Z=Z, D=D, beta=np.array([0.5]), kernel=poisson_kernel())
            for Z in (None, np.eye(2))
        )
        a, b = moments_quadrature(site, order=32), moments_quadrature(explicit, order=32)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert a.log_marginal == b.log_marginal and a.error_estimate == b.error_estimate

    def test_order_doubling_error_shrinks(self):
        coarse = moments_quadrature(scalar_poisson(), order=32)
        fine = moments_quadrature(scalar_poisson(), order=128)
        assert fine.error_estimate < coarse.error_estimate
        assert fine.error_estimate <= 1e-9

    def test_insensitive_to_center(self):
        problem = scalar_poisson()
        a = moments_quadrature(problem, order=192)
        center = oracle._center_terms(problem, np.array([0.1]), np.array([[0.9]]))
        b = oracle._quadrature(problem, 192, center, {})
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

    def test_maximum_order(self):
        with pytest.raises(ValueError, match="above 256 underflows"):
            moments_quadrature(scalar_poisson(), order=oracle.MAX_QUADRATURE_ORDER + 1)

    def test_underflow_of_every_node_weight_is_a_floating_point_error(self):
        # centred at xi = 800 with Xi = 1e-6, each node's Poisson mean e^800
        # overflows, so each node's log likelihood, and log weight, is -inf
        problem = scalar_poisson(y=3.0)
        center = oracle._center_terms(problem, np.array([800.0]), np.array([[1e-6]]))
        with pytest.raises(FloatingPointError, match="all quadrature node weights"):
            oracle._quadrature(problem, 16, center, {})


def gaussian_r5():
    """A Gaussian-kernel problem past the quadrature's dimension limit."""
    problem = gaussian_instance(seed=5, n=8, r=5)
    assert problem.r > oracle.QUADRATURE_DIM_LIMIT
    return problem


class TestEllipticalSlice:
    @pytest.mark.parametrize("name", ["scalar_poisson", "gaussian_r2", "battery_r2_poisson"])
    def test_agrees_with_quadrature(self, name):
        problem = {
            "scalar_poisson": scalar_poisson, "gaussian_r2": gaussian_instance,
            "battery_r2_poisson": escalated_r2_poisson,
        }[name]()
        ref = moments_quadrature(problem, order=96)
        est = moments_slice(problem, steps=1_000, seed=0)
        assert np.max(np.abs(est.mean - ref.mean)) <= 4.0 * est.error_estimate
        assert np.max(np.abs(est.cov - ref.cov)) <= 0.1 * np.max(np.abs(ref.cov))

    def test_matches_the_conjugate_mean_beyond_quadrature(self):
        problem = gaussian_r5()
        conjugate = fit_posterior(problem)
        est = moments_slice(problem, steps=1_000, seed=0)
        assert np.max(np.abs(est.mean - conjugate.xi)) <= 4.0 * est.error_estimate
        assert np.max(np.abs(est.cov - conjugate.Xi)) <= 0.1 * np.max(np.abs(conjugate.Xi))

    def test_deterministic_given_seed(self):
        problem = gaussian_r5()
        a, b = (moments_slice(problem, steps=100, seed=42) for _ in range(2))
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert a.error_estimate == b.error_estimate
        assert not np.array_equal(a.mean, moments_slice(problem, steps=100, seed=43).mean)

    def test_reports_its_draws_and_no_marginal(self):
        est = moments_slice(scalar_poisson(), steps=105, seed=1)
        assert est.method == "elliptical_slice"
        # the first 105 // 10 steps of each chain are discarded
        assert est.order_or_samples == oracle.SLICE_CHAINS * 95
        assert est.error_estimate > 0 and np.isnan(est.log_marginal)

    def test_too_few_steps_to_keep_a_draw(self):
        with pytest.raises(ValueError, match="at least one step"):
            moments_slice(scalar_poisson(), steps=0)


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

    def test_gap_between_the_thresholds_is_inconclusive(self, monkeypatch):
        # one order and its half, so the oracle error stays well above zero
        monkeypatch.setattr(oracle, "ERROR_TARGET", np.inf)
        known = adjudicate_exactness(scalar_poisson(y=3.0), order=8)
        gap = max(known.mean_gap, known.cov_gap)
        ratio = gap / known.oracle.error_estimate
        assert known.oracle.error_estimate > 0.0 and gap > 0.0
        monkeypatch.setattr(oracle, "CONFIRM_FLOOR", 0.0)
        monkeypatch.setattr(oracle, "CONFIRM_MULT", ratio / 2)
        monkeypatch.setattr(oracle, "REFUTE_MULT", ratio * 2)
        report = adjudicate_exactness(scalar_poisson(y=3.0), order=8)
        assert (report.mean_gap, report.cov_gap) == (known.mean_gap, known.cov_gap)
        assert report.verdict == "INCONCLUSIVE"
        # the same gap on either side of the band
        monkeypatch.setattr(oracle, "CONFIRM_MULT", ratio * 1.5)
        assert adjudicate_exactness(scalar_poisson(y=3.0), order=8).verdict == "CONFIRMED"
        monkeypatch.setattr(oracle, "CONFIRM_MULT", ratio / 4)
        monkeypatch.setattr(oracle, "REFUTE_MULT", ratio / 2)
        assert adjudicate_exactness(scalar_poisson(y=3.0), order=8).verdict == "REFUTED"

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


class TestLaplaceMarginal:
    """``verify``'s ``marginal_gap``: the estimation surrogate against the quadrature."""

    def test_gap_is_the_fit_surrogate_minus_the_oracle(self):
        report = adjudicate_exactness(scalar_poisson(y=3.0))
        want = laplace_marginal(report.fit) - report.oracle.log_marginal
        assert report.marginal_gap == want

    def test_gaussian_surrogate_is_the_exact_marginal_on_a_general_design(self):
        problem = gaussian_instance()
        exact = multivariate_normal.logpdf(
            problem.y, problem.X @ problem.beta,
            problem.Z @ problem.D @ problem.Z.T + problem.kernel.variance * np.eye(problem.n),
        )
        value = laplace_marginal(fit_posterior(problem))
        assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_battery_gaps(self):
        # battery seeds 0-3 at the adjudicated order: the Gaussian surrogate
        # is the exact marginal; the largest count-family gaps were 0.049
        # nats (Poisson) and 0.047 (binomial), and over seeds 0-39 0.073
        # and 0.070, so 0.06 bounds seeds 0-3 with room for roundoff only
        gaps = {"poisson": [], "binomial": [], "gaussian": []}
        for problem in battery_problems(range(4)):
            family = problem.kernel.family
            report = adjudicate_exactness(problem)
            gaps[family].append(report.marginal_gap)
            if family == "gaussian":
                assert abs(report.marginal_gap) <= 1e-12 * abs(report.oracle.log_marginal)
        assert [len(gaps[f]) for f in ("poisson", "binomial", "gaussian")] == [48, 40, 16]
        assert max(abs(g) for g in gaps["poisson"] + gaps["binomial"]) <= 0.06


class TestModeToMeanCorrection:
    def test_correction_shrinks_the_battery_mean_gap(self):
        # The leading Laplace term (Tierney & Kadane 1986) should explain most
        # of the mode -> mean gap that `verify` reports on count families:
        # over battery seeds 0-39 the median ratio is 0.044 (880 instances).
        ratios = []
        for seed in range(4):
            rng = np.random.default_rng([seed, 1])
            for problem in oracle.verify_battery(rng):
                if problem.kernel.family == "gaussian":
                    continue
                report = adjudicate_exactness(problem)
                if report.mean_gap <= 1e-6:
                    continue
                mean = corrected_mean(fit_posterior(problem))
                ratios.append(np.max(np.abs(mean - report.oracle.mean)) / report.mean_gap)
        assert len(ratios) >= 80
        assert np.median(ratios) <= 0.1


def poisson_sites(n=50, seed=11):
    """Poisson counts at ``n`` sites on a square of area ``n``, under an
    exponential Matern prior of sill 1 and range 1."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, np.sqrt(n), size=(n, 2))
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    D = matern(MaternParams(0.5, 1.0), site_distances(coords))
    beta = np.array([0.0, 0.3])
    gamma = np.linalg.cholesky(D) @ rng.standard_normal(n)
    y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)
    return GlmmProblem(y=y, X=X, Z=None, D=D, beta=beta, kernel=poisson_kernel())


class TestMeanAtSpatialScale:
    def test_corrected_mean_is_nearer_the_slice_mean_than_the_mode(self):
        # past the quadrature, the slice sampler is the reference: the mode
        # sits a median 0.2 posterior sd from its mean, the corrected mean 0.04
        problem = poisson_sites()
        start = time.process_time()
        fit = fit_posterior(problem)
        est = moments_slice(problem, steps=2_000, seed=0)
        elapsed = time.process_time() - start
        nearer = np.abs(corrected_mean(fit) - est.mean) < np.abs(fit.xi - est.mean)
        assert np.mean(nearer) >= 0.9
        assert elapsed <= 5.0


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
        oracle._node_grid.cache_clear()
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

        def counted(problem, order, center):
            orders.append(order)
            return gh_raw(problem, order, center)

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
    def test_grid_is_in_product_order(self, monkeypatch, r):
        # in one block, and in blocks of 8 nodes: rows of the last axis
        for block in (oracle.QUADRATURE_BLOCK, 8):
            monkeypatch.setattr(oracle, "QUADRATURE_BLOCK", block)
            for order in (5, 8):
                nodes, weights = np.polynomial.hermite.hermgauss(order)
                index = np.array(list(itertools.product(range(order), repeat=r)))
                blocks = list(oracle._node_blocks(order, r))
                assert max(len(base) for _, base in blocks) <= block
                assert np.array_equal(np.concatenate([x for x, _ in blocks]), nodes[index])
                np.testing.assert_allclose(
                    np.concatenate([base for _, base in blocks]),
                    np.sum(np.log(weights)[index] + nodes[index] ** 2, axis=1),
                    rtol=1e-15, atol=1e-13,
                )

    def test_cached_rule_is_read_only(self):
        nodes, log_weights = oracle._hermite_rule(16)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            log_weights[0] = 0.0


def gamma_space_log_posterior(problem, gammas):
    """log f(y | gamma) pi(gamma) evaluated at each row of ``gammas``."""
    eta = problem.beta @ problem.X.T + gammas @ problem.Z.T
    L = np.linalg.cholesky(problem.D)
    quad = np.sum(np.linalg.solve(L, gammas.T) ** 2, axis=0)
    logdet = 2.0 * np.sum(np.log(L.diagonal()))
    logprior = -0.5 * (problem.r * np.log(2.0 * np.pi) + logdet + quad)
    return families.log_likelihood(problem.kernel, eta, problem.y) + logprior


def gamma_space_quadrature(problem, order, xi, scale):
    """Adaptive Gauss-Hermite moments summed over the grid of gamma nodes."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    index = np.array(list(itertools.product(range(order), repeat=problem.r)))
    x = nodes[index]
    gammas = xi + x @ scale.T
    log_terms = (
        np.sum(np.log(weights)[index], axis=1) + np.sum(x**2, axis=1)
        + gamma_space_log_posterior(problem, gammas)
    )
    top = np.max(log_terms)
    log_norm = top + np.log(np.sum(np.exp(log_terms - top)))
    p = np.exp(log_terms - log_norm)
    mean = p @ gammas
    dev = gammas - mean
    cov = (dev * p[:, None]).T @ dev
    return mean, 0.5 * (cov + cov.T), log_norm + np.sum(np.log(np.diag(scale)))


def battery_problems(seeds):
    for seed in seeds:
        rng = np.random.default_rng([seed, 1])
        yield from oracle.verify_battery(rng)


def escalated_r2_poisson():
    """Battery seed 5, instance 9: r = 2 Poisson that adjudication doubles to 256."""
    problem = list(battery_problems([5]))[9]
    assert (problem.kernel.family, problem.r) == ("poisson", 2)
    return problem


def assert_matches_gamma_space(problem, order):
    fit = fit_posterior(problem)
    center = oracle._center_terms(problem, fit.xi, fit.Xi)
    mean, cov, logz = oracle._gh_raw(problem, order, center)
    ref_mean, ref_cov, ref_logz = gamma_space_quadrature(problem, order, fit.xi, center.scale)
    np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=1e-12)
    assert logz == pytest.approx(ref_logz, rel=0, abs=1e-12)


class TestCenterTerms:
    """An adjudication makes its center terms once, whatever orders it evaluates."""

    @pytest.mark.parametrize("seed, index, order", [(2, 2, 128), (5, 9, 256)])
    def test_one_center_per_adjudication(self, monkeypatch, seed, index, order):
        problem = list(battery_problems([seed]))[index]
        centers, evaluated = [], {}
        center_terms, gh_raw = oracle._center_terms, oracle._gh_raw

        def counted_center(problem, xi, Xi):
            centers.append(center_terms(problem, xi, Xi))
            return centers[-1]

        def recorded(problem, k, center):
            evaluated[k] = gh_raw(problem, k, center)
            return evaluated[k]

        monkeypatch.setattr(oracle, "_center_terms", counted_center)
        monkeypatch.setattr(oracle, "_gh_raw", recorded)
        report = adjudicate_exactness(problem, order=64)
        assert report.oracle.order_or_samples == order
        assert len(centers) == 1
        assert sorted(evaluated) == [k for k in (32, 64, 128, 256) if k <= order]
        monkeypatch.undo()
        for k, (mean, cov, logz) in evaluated.items():
            ref = moments_quadrature(problem, order=k)
            assert np.array_equal(mean, ref.mean)
            assert np.array_equal(cov, ref.cov)
            assert logz == ref.log_marginal
        ref = moments_quadrature(problem, order=order)
        assert report.oracle.error_estimate == ref.error_estimate


class TestNodeSpaceQuadrature:
    """The integrand and moments in standardized nodes equal the gamma-space sums."""

    @pytest.mark.parametrize("order", [32, 64])
    def test_battery_moments_match_gamma_space(self, order):
        problems = list(battery_problems(range(4)))
        assert {problem.r for problem in problems} == {1, 2}
        for problem in problems:
            assert_matches_gamma_space(problem, order)

    def test_escalated_r2_poisson_matches_gamma_space(self):
        problem = escalated_r2_poisson()
        assert adjudicate_exactness(problem).oracle.order_or_samples == 256
        assert_matches_gamma_space(problem, 256)

    def test_cached_grid_is_read_only_product_order_built_once(self):
        oracle._node_grid.cache_clear()
        for _ in range(2):
            moments_quadrature(scalar_poisson(), order=16)
            moments_quadrature(gaussian_instance(seed=1), order=16)
        # the one-block grids of orders 16 and 8 at r = 1 and 2, each built once
        for key in [(8, 1), (8, 2), (16, 1), (16, 2)]:
            oracle._node_grid(*key)
        assert oracle._node_grid.cache_info().misses == 4
        # order 128 at r = 2 is four blocks made from the cached (128, 1) grid;
        # its half order is the one-block (64, 2) grid
        for _ in range(2):
            moments_quadrature(gaussian_instance(seed=1), order=128)
        assert oracle._node_grid.cache_info().misses == 6
        [(x, base)] = oracle._node_blocks(16, 2)
        assert oracle._node_grid.cache_info().misses == 6
        nodes, weights = np.polynomial.hermite.hermgauss(16)
        index = np.array(list(itertools.product(range(16), repeat=2)))
        assert np.array_equal(x, nodes[index])
        np.testing.assert_allclose(
            base, np.sum(np.log(weights)[index] + nodes[index] ** 2, axis=1),
            rtol=1e-15, atol=1e-13,
        )
        with pytest.raises(ValueError):
            x[0, 0] = 0.0
        with pytest.raises(ValueError):
            base[0] = 0.0


def node_major_log_integrand(problem, xi, scale, x):
    """The integrand with the predictor as (K, n) and the prior term as (K, r)."""
    L = problem.D_chol
    m = np.linalg.solve(L, xi)
    M = np.linalg.solve(L, scale)
    eta = (problem.X @ problem.beta + problem.Z @ xi) + x @ (problem.Z @ scale).T
    loglik = families.log_likelihood(
        problem.kernel, eta, problem.y, const=problem.response_term
    )
    quad = np.sum((m + x @ M.T) ** 2, axis=1)
    logdet = 2.0 * np.sum(np.log(L.diagonal()))
    return loglik - 0.5 * (problem.r * np.log(2.0 * np.pi) + logdet + quad)


def product_grid(order, r):
    """Gauss-Hermite nodes (K, r) in product order, and log weight + ``|x|^2``.

    Fortran-ordered, as ``np.indices`` has always left the oracle's grid:
    ``p @ x`` on a C-ordered copy runs another BLAS kernel, which rounds
    the moments differently in the last bits.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    index = np.array(list(itertools.product(range(order), repeat=r)))
    x = np.asfortranarray(nodes[index])
    return x, np.sum(np.log(weights)[index], axis=1) + np.sum(x**2, axis=1)


def node_major_gh_raw(problem, order, xi, scale):
    """Adaptive Gauss-Hermite moments from the (K, n) and (K, r) node arrays."""
    x, base = product_grid(order, problem.r)
    log_terms = base + node_major_log_integrand(problem, xi, scale, x)
    top = np.max(log_terms)
    log_norm = top + np.log(np.sum(np.exp(log_terms - top)))
    p = np.exp(log_terms - log_norm)
    mean_x = p @ x
    dev = x - mean_x
    cov = scale @ ((dev * p[:, None]).T @ dev) @ scale.T
    cov = 0.5 * (cov + cov.T)
    log_jac = np.sum(np.log(np.diag(scale)))
    return xi + scale @ mean_x, cov, float(log_norm + log_jac)


def poisson_n40_r2():
    rng = np.random.default_rng(0)
    X = np.ones((40, 1))
    Z = rng.standard_normal((40, 2)) / np.sqrt(2.0)
    D = np.array([[0.5, 0.2], [0.2, 0.4]])
    gamma = np.linalg.cholesky(D) @ rng.standard_normal(2)
    beta = np.array([0.4])
    y = rng.poisson(np.exp(X @ beta + Z @ gamma)).astype(float)
    return GlmmProblem(y=y, X=X, Z=Z, D=D, beta=beta, kernel=poisson_kernel())


def assert_bitwise_node_major(problem, order):
    fit = fit_posterior(problem)
    center = oracle._center_terms(problem, fit.xi, fit.Xi)
    scale = center.scale
    x, _ = product_grid(order, problem.r)
    assert np.array_equal(
        oracle._log_integrand(problem, center, x),
        node_major_log_integrand(problem, fit.xi, scale, x),
    )
    mean, cov, logz = oracle._gh_raw(problem, order, center)
    ref_mean, ref_cov, ref_logz = node_major_gh_raw(problem, order, fit.xi, scale)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(cov, ref_cov)
    assert logz == ref_logz


class TestNodeContiguousIntegrand:
    """Sums over contiguous node vectors give the node-major sums' bits for n, r < 8
    on a one-block grid."""

    @pytest.mark.parametrize("order", [32, 64])
    def test_battery_matches_node_major_bitwise(self, order):
        problems = list(battery_problems(range(4)))
        assert {problem.r for problem in problems} == {1, 2}
        assert max(problem.n for problem in problems) < 8
        assert order**2 <= oracle.QUADRATURE_BLOCK
        for problem in problems:
            assert_bitwise_node_major(problem, order)

    def test_many_observations_match_node_major(self, monkeypatch):
        # n = 40 is past numpy's 8-term sequential sum, so only rounding may move
        problem = poisson_n40_r2()
        got = moments_quadrature(problem, order=64)
        monkeypatch.setattr(
            oracle, "_gh_raw",
            lambda problem, order, c: node_major_gh_raw(problem, order, c.xi, c.scale),
        )
        ref = moments_quadrature(problem, order=64)
        np.testing.assert_allclose(got.mean, ref.mean, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.cov, ref.cov, rtol=0, atol=1e-13)
        assert got.log_marginal == pytest.approx(ref.log_marginal, rel=1e-13)
        assert got.error_estimate == pytest.approx(ref.error_estimate, abs=1e-13)


class TestNodeContiguousLayout:
    """The integrand's sums run along contiguous node vectors."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_grid_is_fortran_ordered_read_only_product_order(self, r):
        [(x, _)] = oracle._node_blocks(8, r)
        assert x.shape == (8**r, r)
        assert x.flags.f_contiguous and not x.flags.c_contiguous
        assert not x.flags.writeable
        nodes, _ = np.polynomial.hermite.hermgauss(8)
        index = np.array(list(itertools.product(range(8), repeat=r)))
        assert np.array_equal(x, nodes[index])

    @pytest.mark.parametrize("order, r", [(128, 2), (64, 3)])
    def test_blocks_of_a_larger_grid_are_fortran_ordered(self, order, r):
        blocks = list(oracle._node_blocks(order, r))
        assert len(blocks) > 1
        for x, base in blocks:
            assert x.shape == (len(base), r)
            assert x.flags.f_contiguous and not x.flags.c_contiguous

    def test_likelihood_gets_node_contiguous_predictor(self, monkeypatch):
        seen = []
        log_likelihood = families.log_likelihood

        def recorded(kernel, eta, y, const=None):
            seen.append(eta)
            return log_likelihood(kernel, eta, y, const=const)

        monkeypatch.setattr(families, "log_likelihood", recorded)
        problem = gaussian_instance(seed=2)
        moments_quadrature(problem, order=16)
        quadrature = [eta for eta in seen if eta.ndim == 2]  # the fits pass one eta
        seen.clear()
        moments_slice(problem, steps=20, seed=1)
        chains = [eta for eta in seen if eta.ndim == 2]
        assert [eta.shape for eta in quadrature] == [(256, 6), (64, 6)]
        # every step evaluates the chains still shrinking, first all of them
        assert chains[0].shape == (oracle.SLICE_CHAINS, 6)
        assert all(0 < len(eta) <= oracle.SLICE_CHAINS for eta in chains)
        for eta in quadrature + chains:
            assert eta.shape[1] == 6 and eta.strides[0] == eta.itemsize


def centered(problem):
    fit = fit_posterior(problem)
    return oracle._center_terms(problem, fit.xi, fit.Xi)


def battery_r2_n6():
    """The first r = 2, n = 6 instance of the battery seeds."""
    return next(p for p in battery_problems(range(40)) if (p.r, p.n) == (2, 6))


def gh_raw_in_blocks(monkeypatch, problem, order, center, block):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "QUADRATURE_BLOCK", block)
        return oracle._gh_raw(problem, order, center)


def assert_roundoff_apart(got, ref):
    """Within 1e-13: absolute on the mean and covariance, relative on the log marginal."""
    mean, cov, logz = got
    ref_mean, ref_cov, ref_logz = ref
    np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-13)
    np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=1e-13)
    assert logz == pytest.approx(ref_logz, rel=1e-13, abs=0)


def edit_log_terms(monkeypatch, edit):
    """Have the integrand's terms of the i-th block edited by ``edit(i, terms)``."""
    blocks = []
    log_integrand = oracle._log_integrand

    def edited(problem, center, x):
        terms = log_integrand(problem, center, x)
        edit(len(blocks), terms)
        blocks.append(len(terms))
        return terms

    monkeypatch.setattr(oracle, "_log_integrand", edited)
    return blocks


class TestQuadratureBlocks:
    """Node blocks merged in order: a one-block grid's bits, roundoff otherwise,
    and one memory bound at every order."""

    @pytest.mark.parametrize("block", [1000, 4096, "above_K"])
    def test_block_size_moves_only_roundoff(self, monkeypatch, block):
        # a grid over several blocks merges their moments in another order of
        # adds, so its bits depend on the block size; one block is the reference
        cases = [(problem, (64, 128, 256)) for problem in battery_problems(range(4))]
        cases += [(gaussian_instance(seed=3, r=3), (64,)), (poisson_n40_r2(), (64, 128, 256))]
        for problem, orders in cases:
            center = centered(problem)
            for order in orders:
                K = order**problem.r
                size = K + 1 if block == "above_K" else block
                assert_roundoff_apart(
                    gh_raw_in_blocks(monkeypatch, problem, order, center, size),
                    gh_raw_in_blocks(monkeypatch, problem, order, center, K),
                )
        problem = escalated_r2_poisson()
        center = centered(problem)
        size = 256**2 + 1 if block == "above_K" else block
        assert_roundoff_apart(
            gh_raw_in_blocks(monkeypatch, problem, 256, center, size),
            node_major_gh_raw(problem, 256, center.xi, center.scale),
        )

    def test_merge_takes_both_shares_from_the_logs(self):
        # battery seed 27, instance 15, adjudicated at order 128: a merge that
        # scaled the running moments by 1 - f moved cov by 2.2e-14 from the
        # whole-grid sums, its rounding times a |delta|^2 of the far blocks
        problem = list(battery_problems([27]))[15]
        center = centered(problem)
        mean, cov, _ = oracle._gh_raw(problem, 128, center)
        ref_mean, ref_cov, _ = node_major_gh_raw(problem, 128, center.xi, center.scale)
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=2e-15)
        np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=2e-15)

    def test_likelihood_gets_at_most_a_block_of_nodes(self, monkeypatch):
        problem = escalated_r2_poisson()
        center = centered(problem)
        rows = []
        log_likelihood = families.log_likelihood

        def recorded(kernel, eta, y, const=None):
            rows.append(len(eta))
            return log_likelihood(kernel, eta, y, const=const)

        monkeypatch.setattr(families, "log_likelihood", recorded)
        oracle._gh_raw(problem, 256, center)
        assert max(rows) == oracle.QUADRATURE_BLOCK
        assert sum(rows) == 256**2

    @pytest.mark.parametrize("case", ["r2_order64", "r2_order256", "r3_order64"])
    def test_peak_memory(self, case):
        # one bound at every order, with no grid or rule built beforehand; with
        # whole grids cached and summed at once, the r = 3 call peaked at 22.0
        # MiB and the order-256 one at 4.0 MiB
        problem, order = {
            "r2_order64": (battery_r2_n6(), 64),
            "r2_order256": (battery_r2_n6(), 256),
            "r3_order64": (gaussian_instance(seed=3, r=3), 64),
        }[case]
        center = centered(problem)
        oracle._hermite_rule.cache_clear()
        oracle._node_grid.cache_clear()
        tracemalloc.start()
        try:
            oracle._quadrature(problem, order, center, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_underflow_of_every_block_is_a_floating_point_error(self, monkeypatch):
        problem = escalated_r2_poisson()
        center = centered(problem)
        blocks = edit_log_terms(monkeypatch, lambda i, terms: terms.fill(-np.inf))
        with pytest.raises(FloatingPointError, match="all quadrature node weights underflowed"):
            oracle._gh_raw(problem, 128, center)
        assert len(blocks) == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nan_or_infinite_log_term_is_named(self, monkeypatch, value):
        # in the second of four blocks, beside finite ones
        problem = escalated_r2_poisson()
        center = centered(problem)

        def edit(i, terms):
            if i == 1:
                terms[7] = value

        edit_log_terms(monkeypatch, edit)
        with pytest.raises(FloatingPointError, match=f"log term is {value}$"):
            oracle._gh_raw(problem, 128, center)

    def test_block_that_underflowed_is_skipped(self, monkeypatch):
        # the second of four blocks underflows: the moments of the others, as
        # one block with those nodes' terms at -inf gives them
        problem = escalated_r2_poisson()
        center = centered(problem)
        block = oracle.QUADRATURE_BLOCK

        def second_block(i, terms):
            if i == 1:
                terms.fill(-np.inf)

        blocks = edit_log_terms(monkeypatch, second_block)
        got = oracle._gh_raw(problem, 128, center)
        assert blocks == [block] * 4
        monkeypatch.undo()

        def same_nodes(i, terms):
            terms[block:2 * block] = -np.inf

        edit_log_terms(monkeypatch, same_nodes)
        ref = gh_raw_in_blocks(monkeypatch, problem, 128, center, 128**2)
        assert np.isfinite(got[2]) and np.all(np.isfinite(got[1]))
        assert_roundoff_apart(got, ref)


def unstack(stack):
    """The instances of a random stack, unpadded.

    A padded entry of ``u``, ``gamma`` or ``beta`` is exactly zero and a
    drawn one is a standard normal, so their nonzero counts are the
    instance's n, r and p.
    """
    instances = []
    for i in range(len(stack["w"])):
        n, r, p = (int(np.count_nonzero(stack[k][i])) for k in ("u", "gamma", "beta"))
        instances.append(dict(
            u=stack["u"][i, :n], alpha=stack["alpha"][i, :n], beta=stack["beta"][i, :p],
            gamma=stack["gamma"][i, :r], delta=stack["delta"][i, :r],
            X=stack["X"][i, :n, :p], Z=stack["Z"][i, :n, :r], w=stack["w"][i, :n],
            D=stack["D"][i, :r, :r],
        ))
    return instances


class TestFactorizationIdentity:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(0)
        gaps = identity_gaps(random_identity_stack(rng, 100))
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
        inst = random_identity_stack(np.random.default_rng(3), 1)
        inst["w"] = np.zeros_like(inst["w"])
        with pytest.raises(ValueError, match="positive"):
            joint_logdensity_direct(**inst)

    def test_nonpositive_weights_rejected_by_the_factored_form(self):
        # identity_gaps evaluates the direct form first, whose check fires first;
        # only a direct caller of the factored form reaches its own check
        inst = random_identity_stack(np.random.default_rng(3), 1)
        inst["w"] = -inst["w"]
        with pytest.raises(ValueError, match="working weights must be positive"):
            joint_logdensity_factored(**inst)

    def test_instance_shapes(self):
        inst = unstack(random_identity_stack(np.random.default_rng(5), 1))[0]
        n, r = inst["Z"].shape
        assert inst["u"].shape == (n,)
        assert inst["gamma"].shape == (r,)
        assert inst["D"].shape == (r, r)
        np.linalg.cholesky(inst["D"])


class TestIdentityStack:
    """The padded stack of identity_gaps against one instance at a time."""

    def test_agrees_with_unpadded_evaluation(self):
        stack = random_identity_stack(np.random.default_rng(0), 300)
        instances = unstack(stack)
        shapes = {(i["X"].shape[0], i["Z"].shape[1], i["X"].shape[1]) for i in instances}
        assert len(shapes) == (
            oracle.IDENTITY_MAX_N * oracle.IDENTITY_MAX_R * oracle.IDENTITY_MAX_P
        )
        unpadded = []
        for inst in instances:
            direct = joint_logdensity_direct(**inst)
            assert isinstance(direct, float)
            unpadded.append(abs(direct - joint_logdensity_factored(**inst)))
        gaps = identity_gaps(stack)
        assert gaps.shape == (300,)
        np.testing.assert_allclose(gaps, unpadded, rtol=0, atol=1e-11)

    def test_gap_does_not_depend_on_the_stack(self):
        stack = random_identity_stack(np.random.default_rng(1), 40)
        whole = identity_gaps(stack)
        parts = np.concatenate([
            identity_gaps({k: v[i : i + 7] for k, v in stack.items()}) for i in range(0, 40, 7)
        ])
        assert np.array_equal(whole, parts)
        assert identity_gaps({k: v[5:6] for k, v in stack.items()})[0] == whole[5]

    def test_perturbed_position_alone_has_a_gap(self):
        stack = random_identity_stack(np.random.default_rng(1), 8)
        direct = joint_logdensity_direct(**stack)
        D = stack["D"].copy()
        D[3] *= 1.5
        gaps = np.abs(direct - joint_logdensity_factored(**{**stack, "D": D}))
        assert gaps[3] > 1e-3
        assert np.all(np.delete(gaps, 3) <= 1e-8)

    @pytest.mark.parametrize("position", [0, 4, 9])
    def test_nonpositive_weight_anywhere_rejected(self, position):
        stack = random_identity_stack(np.random.default_rng(2), 10)
        stack["w"][position, 0] = -0.5
        with pytest.raises(ValueError, match="positive"):
            identity_gaps(stack)


class TestRandomIdentityStack:
    """random_identity_stack draws the padded batch that identity_gaps evaluates."""

    def test_instances_keep_their_distribution(self):
        for inst in unstack(random_identity_stack(np.random.default_rng(2), 200)):
            assert np.all((inst["w"] >= 0.2) & (inst["w"] <= 5.0))
            # D = A A' + (0.5 + U) I with U on [0, 1)
            assert np.array_equal(inst["D"], inst["D"].T)
            assert np.linalg.eigvalsh(inst["D"]).min() >= 0.5 - 1e-12

    def test_max_gap_on_the_verify_seeds(self):
        # verify's draw on battery seeds 0-39: 100 instances from [seed, 0] each
        gaps = [
            identity_gaps(random_identity_stack(np.random.default_rng([seed, 0]), 100)).max()
            for seed in range(40)
        ]
        assert max(gaps) <= 1e-10

    @pytest.mark.parametrize("size", [1, 100, 1024])
    def test_one_generator_call_per_kind_of_draw(self, size):
        calls = []

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        random_identity_stack(Counted(np.random.default_rng(0)), size)
        assert calls == [
            "integers", "integers", "integers", "standard_normal", "random",
            "standard_normal", "uniform",
        ]
