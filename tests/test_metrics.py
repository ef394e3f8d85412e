import numpy as np
import pytest

from glmmfp.metrics import deviance_gof, rl2


class TestRl2:
    def test_zero_at_exact_estimate(self):
        x = np.array([1.0, -2.0, 3.0])
        assert rl2(x, x) == 0.0

    def test_one_at_zero_estimate(self):
        x = np.array([1.0, -2.0, 3.0])
        assert rl2(x, np.zeros(3)) == 1.0

    def test_hand_value(self):
        assert rl2(np.array([3.0, 4.0]), np.array([3.0, 0.0])) == pytest.approx(
            16.0 / 25.0, abs=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatched"):
            rl2(np.zeros(2), np.zeros(3))

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            rl2(np.zeros(3), np.ones(3))


class TestDevianceGof:
    def test_perfect_prediction_is_zero(self):
        y = np.array([3.0, 1.0, 5.0, 12.0])
        assert deviance_gof(y, y.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_two_vs_one(self):
        expected = 2.0 * (2.0 * np.log(2.0) - 1.0)
        assert deviance_gof(np.array([2.0]), np.array([1.0])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_zero_count_term(self):
        assert deviance_gof(np.array([0.0]), np.array([1.0])) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            y = rng.poisson(3.0, size=10).astype(float)
            mu = rng.uniform(0.5, 6.0, size=10)
            assert deviance_gof(y, mu) >= 0.0

    def test_additive_over_sites(self):
        y = np.array([2.0, 0.0])
        mu = np.array([1.0, 1.0])
        parts = deviance_gof(y[:1], mu[:1]) + deviance_gof(y[1:], mu[1:])
        assert deviance_gof(y, mu) == pytest.approx(parts, abs=1e-12)

    def test_nonpositive_prediction_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            deviance_gof(np.array([1.0]), np.array([0.0]))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            deviance_gof(np.array([-1.0]), np.array([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatched"):
            deviance_gof(np.zeros(2), np.ones(3))


class TestBinomialDeviance:
    def test_hand_value(self):
        # site terms: log(2) + log(1/1.5); 0 + 4 log(4/3); 3 log(1.5) + 0
        y, m = np.array([1.0, 0.0, 3.0]), np.array([2.0, 4.0, 3.0])
        mu = np.array([0.5, 1.0, 2.0])
        expected = 2.0 * (5.0 * np.log(4.0 / 3.0) + 3.0 * np.log(1.5))
        assert deviance_gof(y, mu, m) == pytest.approx(expected, abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        y, m = np.array([1.0, 2.0, 0.0]), np.array([4.0, 2.0, 3.0])
        mu = np.array([1.0, 2.0 - 1e-12, 1e-12])
        assert deviance_gof(y, mu, m) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.integers(1, 10, size=8).astype(float)
            y = rng.binomial(m.astype(int), 0.4).astype(float)
            mu = m * rng.uniform(0.01, 0.99, size=8)
            assert deviance_gof(y, mu, m) >= 0.0

    def test_counts_and_predictions_must_stay_within_the_trials(self):
        with pytest.raises(ValueError, match="trials"):
            deviance_gof(np.array([3.0]), np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError, match="trials"):
            deviance_gof(np.array([1.0]), np.array([2.0]), np.array([2.0]))
        with pytest.raises(ValueError, match="trial counts"):
            deviance_gof(np.ones(2), np.ones(2), np.full(3, 2.0))


class TestGaussianDeviance:
    def test_hand_value_on_real_responses(self):
        y, mu = np.array([-1.0, 0.0, 2.5]), np.array([0.5, -0.25, 2.5])
        expected = (1.5**2 + 0.25**2) / 0.5
        assert deviance_gof(y, mu, variance=0.5) == pytest.approx(expected, abs=1e-12)

    def test_variance_must_be_positive_and_alone(self):
        with pytest.raises(ValueError, match="positive"):
            deviance_gof(np.ones(2), np.ones(2), variance=0.0)
        with pytest.raises(ValueError, match="not both"):
            deviance_gof(np.ones(2), np.ones(2), np.full(2, 3.0), variance=1.0)
