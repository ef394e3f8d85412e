import numpy as np
import pytest

from glmmfp import families
from glmmfp.families import (
    binomial_kernel,
    gaussian_kernel,
    initial_eta,
    log_likelihood,
    mean_and_weight,
    poisson_kernel,
)


class TestConstruction:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            families.FamilyKernel("negbin")

    def test_binomial_requires_trials(self):
        with pytest.raises(ValueError, match="trial counts"):
            families.FamilyKernel("binomial")

    def test_trials_must_be_positive_integers(self):
        with pytest.raises(ValueError, match="integers"):
            binomial_kernel([0, 2])
        with pytest.raises(ValueError, match="integers"):
            binomial_kernel([1.5, 2])
        with pytest.raises(ValueError, match="vector"):
            binomial_kernel([[1, 2]])
        # no counts is an empty site set, such as a split with no test rows
        assert binomial_kernel([]).trials.shape == (0,)

    def test_poisson_rejects_trials(self):
        with pytest.raises(ValueError):
            families.FamilyKernel("poisson", trials=np.array([1.0]))

    def test_gaussian_requires_positive_variance(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0)
        with pytest.raises(ValueError):
            families.FamilyKernel("gaussian")

    def test_poisson_rejects_variance(self):
        with pytest.raises(ValueError):
            families.FamilyKernel("poisson", variance=1.0)

    def test_dispersion(self):
        assert gaussian_kernel(2.5).dispersion == 2.5
        assert poisson_kernel().dispersion == 1.0
        assert binomial_kernel([3]).dispersion == 1.0


class TestMeanAndWeight:
    def test_binomial_midpoint(self):
        mu, w = mean_and_weight(binomial_kernel([4]), np.array([0.0]))
        assert mu[0] == 2.0
        assert w[0] == 1.0

    def test_poisson_at_zero(self):
        mu, w = mean_and_weight(poisson_kernel(), np.array([0.0]))
        assert mu[0] == 1.0 and w[0] == 1.0

    def test_gaussian_identity_and_precision(self):
        mu, w = mean_and_weight(gaussian_kernel(2.0), np.array([5.0]))
        assert mu[0] == 5.0
        assert w[0] == 0.5

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            mean_and_weight(poisson_kernel(), np.array([np.nan]))

    def test_overflow_safe_at_extreme_eta(self):
        for k in (poisson_kernel(), binomial_kernel([3])):
            mu, w = mean_and_weight(k, np.array([500.0]))
            assert np.isfinite(mu[0]) and np.isfinite(w[0])

    @pytest.mark.parametrize(
        "kernel",
        [poisson_kernel(), binomial_kernel([5] * 81)],
        ids=["poisson", "binomial"],
    )
    def test_curvature_is_derivative_of_mean(self, kernel):
        # central finite differences of b' over eta in [-10, 10]
        eta = np.linspace(-10.0, 10.0, 81)
        h = 1e-5
        if kernel.family == "binomial":
            mu_p, _ = mean_and_weight(kernel, eta + h)
            mu_m, _ = mean_and_weight(kernel, eta - h)
            _, w = mean_and_weight(kernel, eta)
        else:
            mu_p, _ = mean_and_weight(kernel, eta + h)
            mu_m, _ = mean_and_weight(kernel, eta - h)
            _, w = mean_and_weight(kernel, eta)
        fd = (mu_p - mu_m) / (2.0 * h)
        assert np.allclose(fd, w, rtol=1e-6, atol=1e-12)

    def test_binomial_score_and_weight_keep_their_digits_near_p_one(self):
        # past eta = 37, 1 - p rounds to 0; the weight and the score of y = m
        # are m e^-eta to roundoff, as at -eta for y = 0
        m = np.array([4.0, 4.0])
        eta = np.array([40.0, 300.0])
        kernel = binomial_kernel(m)
        s, w = families.score_and_weight(kernel, eta, m)
        s_neg, w_neg = families.score_and_weight(kernel, -eta, np.zeros(2))
        tail = m * np.exp(-eta)
        np.testing.assert_allclose(w, tail, rtol=1e-14)
        np.testing.assert_allclose(s, tail, rtol=1e-14)
        np.testing.assert_allclose(w_neg, tail, rtol=1e-14)
        np.testing.assert_allclose(s_neg, -tail, rtol=1e-14)

    def test_curvature_strictly_positive(self):
        eta = np.linspace(-25.0, 25.0, 101)
        _, w_p = mean_and_weight(poisson_kernel(), eta)
        _, w_b = mean_and_weight(binomial_kernel([2] * 101), eta)
        assert np.all(w_p > 0) and np.all(w_b > 0)


class TestThirdDerivative:
    @pytest.mark.parametrize(
        "kernel",
        [poisson_kernel(), binomial_kernel([5] * 81), gaussian_kernel(2.0)],
        ids=["poisson", "binomial", "gaussian"],
    )
    def test_is_derivative_of_weight(self, kernel):
        # central finite differences of the working weight over eta in [-10, 10]
        eta = np.linspace(-10.0, 10.0, 81)
        h = 1e-5
        _, w_p = mean_and_weight(kernel, eta + h)
        _, w_m = mean_and_weight(kernel, eta - h)
        fd = (w_p - w_m) / (2.0 * h)
        b3 = families.third_derivative(kernel, eta)
        assert np.allclose(fd, b3, rtol=1e-6, atol=1e-9)

    def test_gaussian_is_zero(self):
        assert np.all(families.third_derivative(gaussian_kernel(2.0), np.ones(3)) == 0.0)

    def test_clamped_like_the_weight(self):
        # both saturate at the clamp, half the log of the largest double,
        # where the weight and its reciprocal are still finite and nonzero
        assert 354.0 < families.ETA_CLAMP < 355.0
        edge = np.array([families.ETA_CLAMP, -families.ETA_CLAMP])
        for k in (poisson_kernel(), binomial_kernel([3])):
            b3 = families.third_derivative(k, np.array([500.0, -500.0]))
            assert np.array_equal(b3, families.third_derivative(k, edge))
            _, w = mean_and_weight(k, np.array([500.0, -500.0]))
            assert np.array_equal(w, mean_and_weight(k, edge)[1])
            assert np.all(w > 0.0) and np.all(np.isfinite(1.0 / w))


class TestCheckSupport:
    def test_support_violation(self):
        with pytest.raises(ValueError, match="counts"):
            families.check_support(poisson_kernel(), np.array([-1.0]))
        with pytest.raises(ValueError, match="counts"):
            families.check_support(binomial_kernel([2]), np.array([3.0]))
        with pytest.raises(ValueError, match="non-finite"):
            families.check_support(gaussian_kernel(1.0), np.array([0.5, np.inf]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatched"):
            families.check_support(binomial_kernel([2, 2]), np.zeros(3))


class TestInitialEta:
    def test_poisson_zero_count(self):
        eta0, w0 = initial_eta(poisson_kernel(), np.array([0.0]))
        assert eta0[0] == pytest.approx(np.log(0.5), abs=1e-15)
        assert w0[0] == 0.5

    def test_binomial_zero_count(self):
        eta0, _ = initial_eta(binomial_kernel([1]), np.array([0.0]))
        assert eta0[0] == pytest.approx(np.log(0.5 / 1.5), abs=1e-15)

    def test_binomial_starting_weight(self):
        _, w0 = initial_eta(binomial_kernel([3]), np.array([1.0]))
        assert w0[0] == pytest.approx(3 * 1.5 * 2.5 / 16.0, abs=1e-15)

    def test_gaussian_start(self):
        eta0, w0 = initial_eta(gaussian_kernel(4.0), np.array([1.5]))
        assert eta0[0] == 1.5
        assert w0[0] == 0.25

    @pytest.mark.parametrize(
        "kernel", [poisson_kernel(), binomial_kernel([1, 4, 4, 9])],
        ids=["poisson", "binomial"],
    )
    def test_starting_weights_are_the_curvature(self, kernel):
        y = np.array([0.0, 1.0, 4.0, 7.0])
        eta0, w0 = initial_eta(kernel, y)
        _, w = mean_and_weight(kernel, eta0)
        assert np.allclose(w0, w, rtol=1e-13)
        assert np.all(w0 >= 0.1)


class TestLogLikelihood:
    def test_poisson_matches_scipy(self):
        from scipy.stats import poisson as sp_poisson

        y = np.array([0.0, 2.0, 5.0])
        eta = np.array([0.1, 0.5, 1.4])
        expected = sp_poisson.logpmf(y.astype(int), np.exp(eta)).sum()
        assert log_likelihood(poisson_kernel(), eta, y) == pytest.approx(
            expected, abs=1e-12
        )

    def test_binomial_matches_scipy(self):
        from scipy.special import expit
        from scipy.stats import binom as sp_binom

        m = np.array([2, 5, 7])
        y = np.array([0.0, 3.0, 7.0])
        eta = np.array([-0.3, 0.2, 1.0])
        expected = sp_binom.logpmf(y.astype(int), m, expit(eta)).sum()
        assert log_likelihood(binomial_kernel(m), eta, y) == pytest.approx(
            expected, abs=1e-12
        )

    def test_gaussian_matches_scipy(self):
        from scipy.stats import norm

        y = np.array([0.4, -1.0])
        eta = np.array([0.0, 0.3])
        expected = norm.logpdf(y, eta, np.sqrt(2.0)).sum()
        assert log_likelihood(gaussian_kernel(2.0), eta, y) == pytest.approx(
            expected, abs=1e-12
        )

    def test_response_term_split_is_bitwise(self):
        # the single-expression forms that the split into response_term
        # and the eta terms must reproduce bit for bit, with the module's
        # own log-gamma, so that the split alone is tested
        log_gamma = families._log_gamma
        rng = np.random.default_rng(5)
        eta = rng.normal(0.0, 2.0, size=(3, 40))
        m = rng.integers(1, 9, size=40).astype(float)
        y = rng.binomial(m.astype(int), 0.4).astype(float)
        cases = [
            (poisson_kernel(), y, y * eta - np.exp(eta) - log_gamma(y + 1.0)),
            (binomial_kernel(m), y,
             y * eta - m * (np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta))))
             + (log_gamma(m + 1.0) - log_gamma(y + 1.0) - log_gamma(m - y + 1.0))),
            (gaussian_kernel(0.7), eta[0], -0.5 * np.log(2.0 * np.pi * 0.7)
             - 0.5 * (eta[0] - eta) ** 2 / 0.7),
        ]
        for kernel, resp, terms in cases:
            want = np.sum(terms, axis=-1)
            const = families.response_term(kernel, resp)
            assert np.array_equal(log_likelihood(kernel, eta, resp), want)
            assert np.array_equal(log_likelihood(kernel, eta, resp, const=const), want)

    def test_log_gamma_matches_scipy(self):
        from scipy.special import gammaln

        x = np.arange(1.0, 20_001.0)
        want = gammaln(x)
        got = families._log_gamma(x)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_binomial_overflow_safe(self):
        out = log_likelihood(binomial_kernel([2]), np.array([[500.0], [-500.0]]), np.zeros(1))
        assert out[0] == pytest.approx(-1000.0, rel=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-200)

    def test_batched_eta(self):
        y = np.array([1.0, 2.0])
        etas = np.array([[0.0, 0.1], [0.5, 0.2]])
        out = log_likelihood(poisson_kernel(), etas, y)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(
            log_likelihood(poisson_kernel(), etas[0], y), abs=1e-14
        )


def node_batch(rng, n, K):
    """Predictors for K nodes as the oracle forms them: (n, K), read as its (K, n) transpose."""
    return np.asfortranarray(rng.normal(0.0, 2.0, size=(n, K))).T


class TestLogPartition:
    """The binomial log-partition ``log(1 + e^eta)`` in the ``log1pexp`` form."""

    GRID = np.union1d(np.linspace(-800.0, 800.0, 16_001), [0.0, -30.0, 30.0])

    def test_agrees_with_logaddexp(self):
        # with y = 0 and one trial the log-likelihood is minus the log-partition
        got = -log_likelihood(binomial_kernel([1.0]), self.GRID[:, None], np.zeros(1))
        want = np.logaddexp(0.0, self.GRID)
        assert {0.0, -30.0, 30.0} <= set(self.GRID)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_extreme_predictors_are_finite_and_silent(self, recwarn):
        kernel = binomial_kernel([3.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = log_likelihood(kernel, np.array([[800.0], [-800.0]]), np.array([1.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(800.0 - 3.0 * 800.0 + np.log(3.0), rel=1e-15)
        assert out[1] == pytest.approx(-800.0 + np.log(3.0), rel=1e-15)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_poisson_and_gaussian_unchanged_bitwise(self):
        # the expressions the binomial change left alone, over the same grid
        # and on a node-contiguous batch
        rng = np.random.default_rng(11)
        y = rng.poisson(3.0, size=6).astype(float)
        for eta in (self.GRID.reshape(-1, 1), node_batch(rng, 6, 500)):
            y_eta = y[: eta.shape[1]]
            const = -families._log_gamma(y_eta + 1.0)
            with np.errstate(over="ignore"):
                want = np.sum(y_eta * eta - np.exp(eta) + const, axis=-1)
            assert np.array_equal(log_likelihood(poisson_kernel(), eta, y_eta), want)
            const = -0.5 * np.log(2.0 * np.pi * 0.7)
            want = np.sum(-0.5 * (y_eta - eta) ** 2 / 0.7 + const, axis=-1)
            assert np.array_equal(log_likelihood(gaussian_kernel(0.7), eta, y_eta), want)

    def test_node_batch_holds_one_scratch_array(self):
        import tracemalloc

        rng = np.random.default_rng(3)
        m = rng.integers(1, 9, size=6).astype(float)
        y = rng.binomial(m.astype(int), 0.4).astype(float)
        kernel = binomial_kernel(m)
        const = families.response_term(kernel, y)
        eta = node_batch(rng, 6, 2**15)
        tracemalloc.start()
        try:
            log_likelihood(kernel, eta, y, const=const)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the log-partition and the terms, with a small buffer for the sum
        assert peak <= 2.25 * eta.nbytes

    @pytest.mark.parametrize("family", ["poisson", "binomial"])
    def test_one_block_holds_at_most_two_more_predictors(self, family):
        # one QUADRATURE_BLOCK of nodes: below numpy's size for eliding
        # temporaries, so only terms formed in place keep the peak down
        import tracemalloc

        rng = np.random.default_rng(5)
        m = rng.integers(1, 9, size=6).astype(float)
        if family == "poisson":
            kernel, y = poisson_kernel(), rng.poisson(3.0, size=6).astype(float)
        else:
            kernel = binomial_kernel(m)
            y = rng.binomial(m.astype(int), 0.4).astype(float)
        const = families.response_term(kernel, y)
        eta = node_batch(rng, 6, 4096)
        tracemalloc.start()
        try:
            log_likelihood(kernel, eta, y, const=const)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the terms and the exponential or log-partition, not their difference too
        assert peak <= 2.5 * eta.nbytes


class TestAgainstScipySpecial:
    # the module computes the logistic function with numpy and log-gamma
    # with math.lgamma so that importing it loads no scipy.special; these
    # hold the replacements to scipy's functions
    def test_binomial_mean_weight_and_third_derivative(self):
        from scipy.special import expit

        eta = np.linspace(-40.0, 40.0, 20001)
        m = np.resize([1.0, 3.0, 50.0, 1e4], eta.shape)
        kernel = binomial_kernel(m)
        p = expit(np.clip(eta, -families.ETA_CLAMP, families.ETA_CLAMP))
        mu, w = mean_and_weight(kernel, eta)
        assert np.allclose(mu, m * p, rtol=1e-15, atol=0.0)
        # w and b''' take 1 - p, which magnifies p's last bit where p is
        # near 1; an error of 1e-15 in p moves them by at most 1e-15 m
        assert np.allclose(w, m * p * (1.0 - p), rtol=0.0, atol=1e-15 * m)
        b3 = families.third_derivative(kernel, eta)
        assert np.allclose(b3, m * p * (1.0 - p) * (1.0 - 2.0 * p), rtol=0.0, atol=1e-15 * m)

    def test_poisson_response_term(self):
        from scipy.special import gammaln

        y = np.concatenate([np.arange(0.0, 2001.0), np.geomspace(2001.0, 1e6, 500).round()])
        got = families.response_term(poisson_kernel(), y)
        assert np.allclose(got, -gammaln(y + 1.0), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("share", [0.0, 1.0 / 3.0, 1.0])
    def test_binomial_response_term(self, share):
        from scipy.special import gammaln

        m = np.concatenate([np.arange(1.0, 1001.0), np.geomspace(1001.0, 1e4, 200).round()])
        y = np.floor(share * m)
        got = families.response_term(binomial_kernel(m), y)
        terms = gammaln(m + 1.0), gammaln(y + 1.0), gammaln(m - y + 1.0)
        # a difference of three log-gamma values, each off by at most 1e-15 relative
        assert np.all(np.abs(got - (terms[0] - terms[1] - terms[2])) <= 1e-15 * sum(terms))

    def test_empty_binomial_site_set(self):
        term = families.response_term(binomial_kernel([]), np.zeros(0))
        assert term.shape == (0,) and term.dtype == float
