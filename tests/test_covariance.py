import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.spatial.distance import cdist

from glmmfp.covariance import (
    PRIOR_BUDGET,
    BlockedCovariance,
    MaternParams,
    SingularCovarianceError,
    build_blocked,
    cross_covariance,
    matern,
    matern_scale_derivative,
    site_distances,
)


def mpmath_matern(omega1, omega2, omega3, d, dps=40):
    """Independent high-precision Bessel-K reference."""
    import mpmath

    with mpmath.workdps(dps):
        sill = mpmath.mpf(omega1) / (1 - mpmath.mpf(omega1))
        if d == 0:
            return float(sill)
        a = mpmath.mpf(omega2) * mpmath.mpf(d)
        nu = mpmath.mpf(omega3)
        val = sill * a**nu / (2 ** (nu - 1) * mpmath.gamma(nu)) * mpmath.besselk(nu, a)
        return float(val)


class TestParams:
    def test_sill(self):
        assert MaternParams(0.5, 1.0).sill == 1.0
        assert MaternParams(0.75, 1.0).sill == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega1=0.0, omega2=1.0),
            dict(omega1=1.0, omega2=1.0),
            dict(omega1=0.5, omega2=0.0),
            dict(omega1=0.5, omega2=1.0, omega3=-1.0),
            dict(omega1=np.nan, omega2=1.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MaternParams(**kwargs)


class TestMatern:
    def test_exponential_closed_form(self):
        p = MaternParams(0.5, 2.0, 0.5)
        d = np.linspace(0.0, 20.0, 201)
        assert np.allclose(matern(p, d), np.exp(-2.0 * d), rtol=0, atol=1e-14)

    def test_exponential_in_place_is_bit_identical(self):
        p = MaternParams(0.7, 1.3, 0.5)
        d = np.random.default_rng(2).uniform(0.0, 30.0, size=(40, 30))
        before = d.copy()
        assert np.array_equal(matern(p, d), p.sill * np.exp(-p.omega2 * d))
        assert np.array_equal(d, before)  # d is not overwritten

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.8])
    def test_out_receives_the_fresh_result(self, nu):
        p = MaternParams(0.7, 1.3, nu)
        d = np.random.default_rng(3).uniform(0.0, 30.0, size=(40, 30))
        d[0, :3] = 0.0
        fresh = matern(p, d)
        out = np.empty_like(d)
        assert matern(p, d, out=out) is out and np.array_equal(out, fresh)
        assert not np.array_equal(d, fresh)  # a separate out leaves d alone
        assert matern(p, d, out=d) is d and np.array_equal(d, fresh)

    def test_zero_distance_is_sill(self):
        for nu in (0.5, 1.5, 2.5, 0.8, 3.2):
            p = MaternParams(0.6, 1.3, nu)
            assert matern(p, 0.0) == pytest.approx(p.sill, abs=1e-15)

    def test_smoothness_15_closed_form(self):
        p = MaternParams(0.5, 2.0, 1.5)
        a = 2.0 * 0.7
        assert matern(p, 0.7) == pytest.approx((1 + a) * np.exp(-a), abs=1e-15)

    def test_frozen_value_nu_15(self):
        # independently derived reference at omega=(0.5, 2.0, 1.5), d=0.7
        assert matern(MaternParams(0.5, 2.0, 1.5), 0.7) == pytest.approx(
            0.5918327134598556, abs=1e-15
        )

    def test_smoothness_25_closed_form(self):
        p = MaternParams(0.4, 1.1, 2.5)
        a = 1.1 * 3.0
        expected = p.sill * (1 + a + a**2 / 3.0) * np.exp(-a)
        assert matern(p, 3.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.8, 1.5, 3.2])
    @pytest.mark.parametrize("d", [0.1, 1.0, 5.0])
    def test_general_smoothness_matches_bessel_reference(self, nu, d):
        pytest.importorskip("mpmath")
        p = MaternParams(0.5, 1.0, nu)
        # force the Bessel path even at half-integers by perturbing nothing:
        # nu=1.5 goes through the closed form, which must agree with the
        # reference too, so the comparison is meaningful either way
        expected = mpmath_matern(0.5, 1.0, nu, d)
        assert matern(p, d) == pytest.approx(expected, rel=1e-8)

    def test_closed_form_agrees_with_bessel_path(self):
        pytest.importorskip("mpmath")
        # half-integer smoothness: polynomial form vs the general formula
        for nu in (0.5, 1.5, 2.5):
            p = MaternParams(0.3, 0.8, nu)
            for d in (0.2, 1.0, 4.0):
                assert matern(p, d) == pytest.approx(
                    mpmath_matern(0.3, 0.8, nu, d), rel=1e-12
                )

    def test_monotone_decreasing(self):
        p = MaternParams(0.5, 1.0, 3.2)
        d = np.linspace(0.0, 10.0, 100)
        vals = matern(p, d)
        assert np.all(np.diff(vals) < 0)

    def test_large_distance_underflow_is_zero(self):
        p = MaternParams(0.5, 1.0, 3.2)
        assert matern(p, 1e6) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            matern(MaternParams(0.5, 1.0), -0.1)

    def test_array_shape_preserved(self):
        out = matern(MaternParams(0.5, 1.0), np.ones((3, 4)))
        assert out.shape == (3, 4)


class TestMaternScaleDerivative:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.0, 3.2])
    def test_matches_central_differences_in_log_scale(self, nu):
        d = np.array([0.0, 0.05, 0.4, 1.0, 2.5, 7.0])
        h = 1e-6

        def at(log_omega2):
            return matern(MaternParams(0.3, float(np.exp(log_omega2)), nu), d)

        log_omega2 = np.log(1.3)
        fd = (at(log_omega2 + h) - at(log_omega2 - h)) / (2 * h)
        got = matern_scale_derivative(MaternParams(0.3, 1.3, nu), d)
        assert got[0] == 0.0
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-10)

    def test_large_distance_underflow_is_zero(self):
        far = matern_scale_derivative(MaternParams(0.5, 1.0, 3.2), np.array([1e6]))
        assert far[0] == 0.0


class TestBuildBlocked:
    def test_shapes_and_symmetry(self):
        rng = np.random.default_rng(0)
        obs = rng.uniform(0, 5, size=(12, 2))
        unobs = rng.uniform(0, 5, size=(7, 2))
        b = build_blocked(MaternParams(0.5, 1.0), obs, unobs)
        assert b.d11.shape == (12, 12)
        assert b.d12.shape == (12, 7)
        assert b.d22.shape == (7, 7)
        assert np.allclose(b.d11, b.d11.T)
        assert np.allclose(b.full, b.full.T)
        assert b.n_observed == 12 and b.d22.shape == (7, 7)

    def test_full_is_positive_definite(self):
        rng = np.random.default_rng(1)
        obs = rng.uniform(0, 5, size=(20, 2))
        unobs = rng.uniform(0, 5, size=(5, 2))
        b = build_blocked(MaternParams(0.5, 1.0, 1.5), obs, unobs)
        np.linalg.cholesky(b.full)  # must not raise

    def test_entries_match_matern(self):
        obs = np.array([[0.0, 0.0], [1.0, 0.0]])
        unobs = np.array([[0.0, 2.0]])
        p = MaternParams(0.5, 1.0)
        b = build_blocked(p, obs, unobs)
        assert b.d11[0, 1] == pytest.approx(matern(p, 1.0), abs=1e-15)
        assert b.d12[0, 0] == pytest.approx(matern(p, 2.0), abs=1e-15)
        assert b.d22[0, 0] == pytest.approx(p.sill, abs=1e-15)

    def test_no_unobserved_block(self):
        obs = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = build_blocked(MaternParams(0.5, 1.0), obs)
        assert b.d12.shape == (2, 0)
        assert b.d22.shape == (0, 0)
        assert b.full.shape == (2, 2)

    def test_duplicate_observed_sites_rejected(self):
        obs = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="duplicate"):
            build_blocked(MaternParams(0.5, 1.0), obs)

    def test_jitter_escalation_on_near_duplicates(self):
        # nearly coincident smooth-field sites are numerically singular
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        near = base + 1e-13
        obs = np.vstack([base, near])
        b = build_blocked(MaternParams(0.9, 0.5, 2.5), obs)
        assert b.jitter > 0
        np.linalg.cholesky(b.full)

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_blocked(MaternParams(0.5, 1.0), np.array([[np.inf, 0.0]]))

    def test_dimension_mismatch_rejected(self):
        obs = np.zeros((2, 2))
        obs[1, 0] = 1.0
        with pytest.raises(ValueError, match="dimensions differ"):
            build_blocked(MaternParams(0.5, 1.0), obs, np.zeros((1, 3)))

    def test_singular_error_exists(self):
        assert issubclass(SingularCovarianceError, RuntimeError)

    def test_blocked_dataclass_full_roundtrip(self):
        d11 = np.eye(2)
        d12 = np.zeros((2, 1))
        d22 = np.eye(1)
        b = BlockedCovariance(np.block([[d11, d12], [d12.T, d22]]), 2)
        assert np.array_equal(b.full, np.eye(3))
        assert np.array_equal(b.d11, d11) and np.array_equal(b.d12, d12)
        assert np.array_equal(b.d22, d22)


class TestAssembly:
    """One preallocated ``full`` with the blocks as views of it."""

    @staticmethod
    def stacked(params, obs, unobs, jitter):
        # the blocks assembled by hstack/vstack, the jitter added per block
        d11 = matern(params, cdist(obs, obs))
        d12 = matern(params, cdist(obs, unobs))
        d22 = matern(params, cdist(unobs, unobs))
        d11[np.diag_indices_from(d11)] += jitter
        d22[np.diag_indices_from(d22)] += jitter
        full = np.vstack([np.hstack([d11, d12]), np.hstack([d12.T, d22])])
        return d11, d12, d22, full

    @pytest.mark.parametrize("n_star", [9, 0])
    @pytest.mark.parametrize("nu", [0.5, 0.8, 1.2, 1.5, 2.5])
    def test_bit_identical_to_stacked_blocks(self, nu, n_star):
        # one cdist over the stacked sites, evaluated in place, against
        # matern of the three blocks' own cdist calls
        rng = np.random.default_rng(4)
        obs = rng.uniform(0, 5, size=(15, 2))
        unobs = rng.uniform(0, 5, size=(n_star, 2))
        params = MaternParams(0.6, 0.8, nu)
        b = build_blocked(params, obs, unobs)
        assert b.jitter == 0.0
        stacked = self.stacked(params, obs, unobs, 0.0)
        for got, want in zip((b.d11, b.d12, b.d22, b.full), stacked):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(b.full, b.full.T)

    def test_site_distances_are_one_symmetric_cdist(self):
        rng = np.random.default_rng(8)
        obs, unobs = rng.uniform(0, 5, size=(6, 2)), rng.uniform(0, 5, size=(4, 2))
        dist = site_distances(obs, unobs)
        assert np.array_equal(dist, cdist(np.vstack([obs, unobs]), np.vstack([obs, unobs])))
        assert np.array_equal(dist, dist.T)
        assert np.array_equal(site_distances(obs), cdist(obs, obs))
        # a duplicate among the unobserved sites alone leaves d11 regular
        site_distances(obs, np.vstack([unobs, unobs[:1]]))
        with pytest.raises(ValueError, match="duplicate"):
            site_distances(np.vstack([obs, obs[2:3]]), unobs)

    def test_sites_over_the_budget_are_rejected_before_cdist(self):
        # 4,097 sites would take 134 MB of distances
        rng = np.random.default_rng(9)
        obs, unobs = rng.uniform(0, 5, size=(4000, 2)), rng.uniform(0, 5, size=(97, 2))
        assert PRIOR_BUDGET == 4096**2
        for args in ((obs, unobs), (np.vstack([obs, unobs]),)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="4097 sites are more than the 4096"):
                    site_distances(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_bit_identical_under_jitter(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        obs = np.vstack([base, base + 1e-13])
        unobs = np.array([[0.5, 0.5], [2.0, 1.0]])
        params = MaternParams(0.9, 0.5, 2.5)
        b = build_blocked(params, obs, unobs)
        assert b.jitter > 0
        stacked = self.stacked(params, obs, unobs, b.jitter)
        for got, want in zip((b.d11, b.d12, b.d22, b.full), stacked):
            assert np.array_equal(got, want)

    def test_blocks_are_views_and_chol_factors_full(self):
        rng = np.random.default_rng(5)
        b = build_blocked(MaternParams(0.5, 1.0), rng.uniform(0, 5, size=(8, 2)),
                          rng.uniform(0, 5, size=(3, 2)))
        for block in (b.d11, b.d12, b.d22):
            assert np.shares_memory(block, b.full)
        assert np.array_equal(b.full[8:, :8], b.d12.T)
        assert np.array_equal(b.chol, np.linalg.cholesky(b.full))
        # the leading block factors d11, up to a blocked factorization's rounding
        assert np.allclose(b.chol[:8, :8], np.linalg.cholesky(b.d11), rtol=0, atol=1e-14)

    def test_blocks_that_are_not_positive_definite_rejected(self):
        d12 = np.full((2, 1), 2.0)
        with pytest.raises(SingularCovarianceError):
            BlockedCovariance(np.block([[np.eye(2), d12], [d12.T, np.eye(1)]]), 2)


class TestBands:
    """The distances are made 64 rows a band, bit for bit as ``cdist`` makes them."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 129, 800])
    def test_distances_equal_cdist(self, m, dim):
        rng = np.random.default_rng(m * 10 + dim)
        sites = rng.uniform(0, 5, size=(m, dim)) * 10.0 ** rng.uniform(-8, 8, size=dim)
        want = cdist(sites, sites)
        for n in {1, (m + 1) // 2, m}:
            got = site_distances(sites[:n], sites[n:])
            assert np.array_equal(got, want)
            assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.0])
    def test_covariance_in_the_bands_equals_matern_of_cdist(self, nu):
        rng = np.random.default_rng(12)
        obs, unobs = rng.uniform(0, 5, size=(100, 2)), rng.uniform(0, 5, size=(70, 2))
        params = MaternParams(0.6, 0.8, nu)
        sites = np.vstack([obs, unobs])
        full = build_blocked(params, obs, unobs).full
        assert np.array_equal(full, matern(params, cdist(sites, sites)))

    @pytest.mark.parametrize("pair", [(128, 3), (128, 127), (129, 128)])
    def test_duplicate_observed_pair_in_the_last_band_rejected(self, pair):
        # sites 128 and 129 make up the last band; 127 lies in the band before it
        sites = np.random.default_rng(13).uniform(0, 5, size=(130, 2))
        sites[pair[0]] = sites[pair[1]]
        with pytest.raises(ValueError, match="duplicate"):
            site_distances(sites)
        with pytest.raises(ValueError, match="duplicate"):
            build_blocked(MaternParams(0.5, 1.0), sites)
        # the same pair among the unobserved sites leaves d11 regular
        site_distances(sites[:100], sites[100:])
        build_blocked(MaternParams(0.5, 1.0), sites[:100], sites[100:])

    def test_lent_buffer_of_another_order_or_dtype_rejected(self):
        # a spent prior lends its full to the bands, which check it first
        sites = np.random.default_rng(14).uniform(0, 5, size=(5, 2))
        params = MaternParams(0.5, 1.0)
        spent = build_blocked(params, sites)
        for out in (np.zeros((5, 5), order="F"), np.zeros((5, 5), dtype=np.float32),
                    np.zeros((5, 4))):
            before = out.copy()
            spent.full = out
            with pytest.raises(ValueError, match="incorrect shape"):
                build_blocked(params, sites, spent=spent)
            assert np.array_equal(out, before)


class TestCrossCovariance:
    """``D12`` alone: bit for bit ``build_blocked``'s, its sites checked alike."""

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.0])
    @pytest.mark.parametrize(
        "n, n_star, dim", [(1, 1, 2), (5, 1, 1), (9, 3, 2), (64, 65, 3), (129, 70, 2), (30, 0, 2)]
    )
    def test_equals_the_d12_of_build_blocked(self, n, n_star, dim, nu):
        rng = np.random.default_rng([n, n_star, dim])
        obs, unobs = rng.uniform(0, 5, size=(n, dim)), rng.uniform(0, 5, size=(n_star, dim))
        params = MaternParams(0.6, 0.8, nu)
        want = build_blocked(params, obs, unobs).d12
        got = cross_covariance(params, obs, unobs)
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)
        # so kriging through either rounds alike, also for n* <= 3
        for _ in range(3):
            alpha = rng.standard_normal(n)
            assert np.array_equal(got.T @ alpha, want.T @ alpha)

    def test_makes_no_stacked_covariance(self):
        # n (n + n*) doubles (2.56 MB at n = n* = 400) and band temporaries;
        # the covariance of the (n + n*)^2 stacked site pairs alone is 5.12 MB
        rng = np.random.default_rng(10)
        obs, unobs = rng.uniform(0, 20, size=(400, 2)), rng.uniform(0, 20, size=(400, 2))
        tracemalloc.start()
        try:
            cross_covariance(MaternParams(0.5, 1.0), obs, unobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 400 * 800 + 600_000

    def test_sites_are_checked_before_the_block_is_allocated(self):
        rng = np.random.default_rng(9)
        obs, unobs = rng.uniform(0, 5, size=(4000, 2)), rng.uniform(0, 5, size=(97, 2))
        params = MaternParams(0.5, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="4097 sites are more than the 4096"):
                cross_covariance(params, obs, unobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        for o, u, message in (
            (obs[:3], np.array([[np.nan, 0.0]]), "non-finite"),
            (obs[:3], np.zeros((2, 3)), "dimensions differ"),
            (obs[:0], unobs[:3], "at least one observed site"),
        ):
            with pytest.raises(ValueError, match=message):
                cross_covariance(params, o, u)


class TestSpentPrior:
    """A dead prior over as many sites lends ``full`` and ``chol`` to the next."""

    @staticmethod
    def sites(seed, n, n_star, near=False):
        rng = np.random.default_rng(seed)
        obs = rng.uniform(0, 5, size=(n, 2))
        if near:
            # three pairs of nearly coincident sites: a smooth field needs a jitter
            obs[1:6:2] = obs[0:6:2] + 1e-13
        return obs, rng.uniform(0, 5, size=(n_star, 2))

    # each pair: whether the spent prior and the next one need a jitter
    @pytest.mark.parametrize("near", [(False, False), (True, False), (False, True)])
    @pytest.mark.parametrize("nu", [1.2, 1.5, 2.5])
    def test_lent_buffers_hold_the_fresh_prior_bit_for_bit(self, nu, near):
        params = MaternParams(0.9, 0.5, nu)
        spent = build_blocked(params, *self.sites(1, 12, 5, near[0]))
        full, chol = spent.full, spent.chol
        lent = build_blocked(params, *self.sites(2, 12, 5, near[1]), spent=spent)
        fresh = build_blocked(params, *self.sites(2, 12, 5, near[1]))
        assert lent.full is full and lent.chol is chol
        assert lent.chol.flags.f_contiguous
        assert lent.jitter == fresh.jitter and (lent.jitter > 0) == near[1]
        for name in ("full", "chol", "d11", "d12", "d22"):
            assert np.array_equal(getattr(lent, name), getattr(fresh, name))

    def test_lent_buffers_may_split_the_sites_otherwise(self):
        params = MaternParams(0.5, 1.0)
        spent = build_blocked(params, *self.sites(3, 9, 4))
        lent = build_blocked(params, *self.sites(4, 5, 8), spent=spent)
        fresh = build_blocked(params, *self.sites(4, 5, 8))
        assert lent.n_observed == 5 and lent.d22.shape == (8, 8)
        assert np.array_equal(lent.chol, fresh.chol)

    @pytest.mark.parametrize("n, n_star", [(12, 6), (12, 4), (1, 0)])
    def test_prior_over_another_number_of_sites_rejected(self, n, n_star):
        params = MaternParams(0.5, 1.0)
        spent = build_blocked(params, *self.sites(5, 12, 5))
        full, chol = spent.full.copy(), spent.chol.copy()
        with pytest.raises(ValueError, match="incorrect shape"):
            build_blocked(params, *self.sites(6, n, n_star), spent=spent)
        assert np.array_equal(spent.full, full) and np.array_equal(spent.chol, chol)

    def test_factor_buffer_of_another_shape_or_order_rejected(self):
        full = build_blocked(MaternParams(0.5, 1.0), *self.sites(7, 4, 2)).full
        for buf in (np.empty((6, 6)), np.empty((1, 1), order="F"),
                    np.empty((5, 5), order="F")):
            with pytest.raises(ValueError, match="lent buffer"):
                BlockedCovariance(full.copy(), 4, buf)

    def test_jitter_is_logged_once_per_prior(self, caplog):
        params = MaternParams(0.9, 0.5, 2.5)
        with caplog.at_level("WARNING", logger="glmmfp.covariance"):
            b = build_blocked(params, *self.sites(8, 6, 2, near=True))
            build_blocked(params, *self.sites(9, 6, 2))
        assert b.jitter > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"covariance jitter escalated to {b.jitter:.3e}"
        ]


class TestLapackFactor:
    """``chol`` is LAPACK's lower factor of ``full``, upper triangle zeroed."""

    @staticmethod
    def check(b):
        chol = b.chol
        assert np.array_equal(np.triu(chol, 1), np.zeros_like(chol))
        # the zeroing touches only the strict upper triangle of LAPACK's output
        assert np.array_equal(chol, np.tril(cho_factor(b.full.T, lower=True)[0]))
        rel = np.max(np.abs(chol @ chol.T - b.full)) / np.max(np.abs(b.full))
        assert rel < 1e-13

    @pytest.mark.parametrize("n_star", [9, 0])
    @pytest.mark.parametrize("nu", [0.5, 1.2, 1.5, 2.5])
    def test_factor_reproduces_full(self, nu, n_star):
        rng = np.random.default_rng(6)
        b = build_blocked(MaternParams(0.6, 0.8, nu), rng.uniform(0, 5, size=(40, 2)),
                          rng.uniform(0, 5, size=(n_star, 2)))
        assert b.jitter == 0.0
        self.check(b)

    @pytest.mark.parametrize("n, n_star", [(64, 0), (100, 37), (400, 400)])
    def test_upper_triangle_zeroed_across_row_bands(self, n, n_star):
        rng = np.random.default_rng(7)
        b = build_blocked(MaternParams(0.6, 0.8), rng.uniform(0, 20, size=(n, 2)),
                          rng.uniform(0, 20, size=(n_star, 2)))
        self.check(b)

    def test_factor_reproduces_full_under_jitter(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = build_blocked(MaternParams(0.9, 0.5, 2.5), np.vstack([base, base + 1e-13]),
                          np.array([[0.5, 0.5], [2.0, 1.0]]))
        assert b.jitter > 0
        self.check(b)

    def test_non_finite_blocks_rejected(self):
        d11 = np.array([[1.0, np.nan], [np.nan, 1.0]])
        d12 = np.zeros((2, 1))
        with pytest.raises(ValueError, match="infs or NaNs"):
            BlockedCovariance(np.block([[d11, d12], [d12.T, np.eye(1)]]), 2)
        # the factor's diagonal certifies these: potrf does not stop on them
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 6))
        base = A @ A.T + 6.0 * np.eye(6)
        for i, j, value in [
            (3, 1, np.nan),  # off the diagonal of d11
            (2, 2, np.inf),  # on the diagonal
            (0, 5, np.nan),  # in d12, with n = 4
            (1, 4, np.inf),  # in d12, infinite
        ]:
            full = base.copy()
            full[i, j] = full[j, i] = value
            with pytest.raises(ValueError, match="infs or NaNs"):
                BlockedCovariance(full, 4)
        # potrf stops at the first pivot, so the matrix itself is scanned
        # before any jitter
        full = np.array([[-1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            BlockedCovariance(full, 1)
