import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist

from glmmfp import covariance
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


def covariance_of(params, obs, unobs=None, jitter=0.0):
    """The prior that ``build_blocked`` factors, built independently: the Matern
    covariance of the site distances, ``jitter`` added to its diagonal."""
    full = matern(params, site_distances(obs, unobs))
    full[np.diag_indices_from(full)] += jitter
    return full


def blocked_of(full, n, buf=None):
    """``BlockedCovariance`` of the covariance ``full``, whose source, for a
    jitter retry, writes a copy of it."""
    kept = full.copy()
    return BlockedCovariance(full, n, lambda out: np.copyto(out, kept), buf)


def lapack_factor(a):
    """Lower triangle of LAPACK's Cholesky factor of ``a``, upper zeroed."""
    return np.tril(cho_factor(a, lower=True)[0])


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

    def test_exponential_scales_by_the_negated_omega2_bit_for_bit(self):
        # negation is exact: exp((-omega2) d) in one multiply is the two-step
        # exp(-(omega2 d)), also at 0, subnormal products and overflow
        d = np.array([0.0, 1e-300, 1e-13, 1.0, 700.0, 1e300])
        band = np.random.default_rng(16).uniform(0.0, 30.0, size=(64, 800))
        for omega2 in (1.3, 0.5, 1e-8, 1e8):
            p = MaternParams(0.7, omega2, 0.5)
            for x in (d, band):
                two_step = np.exp(np.negative(np.multiply(omega2, x)))
                two_step *= p.sill
                assert np.array_equal(matern(p, x), two_step)
                assert np.array_equal(matern(p, x.copy(), out=x.copy()), two_step)

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

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.8])
    def test_second_derivative_matches_central_differences(self, nu):
        d = np.array([0.0, 0.05, 0.4, 1.0, 2.5, 7.0])
        h = 1e-5

        def first(log_omega2):
            return matern_scale_derivative(MaternParams(0.3, float(np.exp(log_omega2)), nu), d)

        log_omega2 = np.log(1.3)
        fd = (first(log_omega2 + h) - first(log_omega2 - h)) / (2 * h)
        got = matern_scale_derivative(MaternParams(0.3, 1.3, nu), d, second=True)
        assert got[0] == 0.0
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-10)

    def test_large_distance_underflow_is_zero(self):
        far = matern_scale_derivative(MaternParams(0.5, 1.0, 3.2), np.array([1e6]))
        assert far[0] == 0.0
        far = matern_scale_derivative(MaternParams(0.5, 1.0, 3.2), np.array([1e6]), True)
        assert far[0] == 0.0


class TestBuildBlocked:
    def test_shapes_and_symmetry(self):
        rng = np.random.default_rng(0)
        obs = rng.uniform(0, 5, size=(12, 2))
        unobs = rng.uniform(0, 5, size=(7, 2))
        params = MaternParams(0.5, 1.0)
        b = build_blocked(params, obs, unobs)
        assert b.d11.shape == (12, 12)
        assert b.d12.shape == (12, 7)
        assert b.chol.shape == (19, 19)
        assert np.allclose(b.d11, b.d11.T)
        full = covariance_of(params, obs, unobs, b.jitter)
        assert np.allclose(full, full.T)
        assert np.allclose(b.chol @ b.chol.T, full)
        assert b.n_observed == 12 and b.rows.shape == (12, 19)

    def test_full_is_positive_definite(self):
        rng = np.random.default_rng(1)
        obs = rng.uniform(0, 5, size=(20, 2))
        unobs = rng.uniform(0, 5, size=(5, 2))
        params = MaternParams(0.5, 1.0, 1.5)
        b = build_blocked(params, obs, unobs)
        np.linalg.cholesky(covariance_of(params, obs, unobs, b.jitter))  # must not raise

    def test_entries_match_matern(self):
        obs = np.array([[0.0, 0.0], [1.0, 0.0]])
        unobs = np.array([[0.0, 2.0]])
        p = MaternParams(0.5, 1.0)
        b = build_blocked(p, obs, unobs)
        assert b.d11[0, 1] == pytest.approx(matern(p, 1.0), abs=1e-15)
        assert b.d12[0, 0] == pytest.approx(matern(p, 2.0), abs=1e-15)
        # the unobserved site's variance, from the factor's last row
        assert b.chol[2] @ b.chol[2] == pytest.approx(p.sill, abs=1e-15)

    def test_no_unobserved_block(self):
        obs = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = build_blocked(MaternParams(0.5, 1.0), obs)
        assert b.d12.shape == (2, 0)
        assert b.rows.shape == (2, 2)
        assert b.chol.shape == (2, 2)

    def test_duplicate_observed_sites_rejected(self):
        obs = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="duplicate"):
            build_blocked(MaternParams(0.5, 1.0), obs)

    def test_jitter_escalation_on_near_duplicates(self):
        # nearly coincident smooth-field sites are numerically singular
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        near = base + 1e-13
        obs = np.vstack([base, near])
        params = MaternParams(0.9, 0.5, 2.5)
        b = build_blocked(params, obs)
        assert b.jitter > 0
        np.linalg.cholesky(covariance_of(params, obs, None, b.jitter))

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
        b = blocked_of(np.block([[d11, d12], [d12.T, d22]]), 2)
        # the identity is its own factor
        assert np.array_equal(b.chol, np.eye(3))
        assert np.array_equal(b.d11, d11) and np.array_equal(b.d12, d12)
        assert np.array_equal(b.chol[2:, 2:], d22)


class TestAssembly:
    """One preallocated covariance, factored in place; the observed rows are
    copied out first and the blocks are views of them."""

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
        d11, d12, _, full = self.stacked(params, obs, unobs, 0.0)
        for got, want in ((b.d11, d11), (b.d12, d12), (b.chol, lapack_factor(full))):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(b.d11, b.d11.T)

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
        with pytest.raises(ValueError, match="2-D array of site coordinates"):
            site_distances(obs[:, 0])

    def test_sites_over_the_budget_are_rejected_before_cdist(self):
        # 4,097 sites would take 134 MB of distances
        rng = np.random.default_rng(9)
        obs, unobs = rng.uniform(0, 5, size=(4000, 2)), rng.uniform(0, 5, size=(97, 2))
        assert PRIOR_BUDGET == 4096**2
        for args in ((obs, unobs), (np.vstack([obs, unobs]),)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="the number of sites must be at most 4096.*: 4097"):
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
        d11, d12, _, full = self.stacked(params, obs, unobs, b.jitter)
        for got, want in ((b.d11, d11), (b.d12, d12), (b.chol, lapack_factor(full))):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lent", [False, True])
    @pytest.mark.parametrize("n", [12, 130])
    def test_bit_identical_under_jitter_in_the_unobserved_block(self, n, lent):
        # three near-duplicate unobserved pairs: the failing pivot lies in d22,
        # so a retry writes the whole covariance again; at n = 130 the bands
        # are made in the observed rows, which each retry copies again
        def sites(seed):
            rng = np.random.default_rng(seed)
            base = rng.uniform(0, 5, size=(3, 2))
            return rng.uniform(0, 5, size=(n, 2)), np.vstack([base, base + 1e-13])

        params, (obs, unobs), spent = MaternParams(0.9, 0.5, 2.5), sites(17), None
        m = n + len(unobs)
        full = self.stacked(params, obs, unobs, 0.0)[3]
        assert dpotrf(full, lower=True)[1] > n
        if lent:
            # nothing below the lent buffer's diagonal is read
            spent = build_blocked(params, *sites(18))
            spent.chol.T[np.tril_indices(m, -1)] = np.nan
            spent.rows.fill(np.nan)
        b = build_blocked(params, obs, unobs, spent)
        jitter = TestInPlaceFactor.escalated(full)[0]
        assert b.jitter == jitter > 0
        d11, d12, _, full = self.stacked(params, obs, unobs, jitter)
        for got, want in ((b.d11, d11), (b.d12, d12), (b.chol, lapack_factor(full))):
            assert np.array_equal(got, want)

    def test_blocks_are_views_and_chol_factors_full(self):
        rng = np.random.default_rng(5)
        params = MaternParams(0.5, 1.0)
        obs, unobs = rng.uniform(0, 5, size=(8, 2)), rng.uniform(0, 5, size=(3, 2))
        b = build_blocked(params, obs, unobs)
        for block in (b.d11, b.d12):
            assert np.shares_memory(block, b.rows)
            assert block.strides == (8 * 11, 8)
        full = covariance_of(params, obs, unobs, b.jitter)
        assert np.array_equal(full[:8], b.rows)
        assert np.array_equal(b.chol, np.linalg.cholesky(full))
        # the leading block factors d11, up to a blocked factorization's rounding
        assert np.allclose(b.chol[:8, :8], np.linalg.cholesky(b.d11), rtol=0, atol=1e-14)

    def test_blocks_that_are_not_positive_definite_rejected(self):
        d12 = np.full((2, 1), 2.0)
        with pytest.raises(SingularCovarianceError):
            blocked_of(np.block([[np.eye(2), d12], [d12.T, np.eye(1)]]), 2)


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

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.0, None])
    def test_covariance_in_the_bands_equals_matern_of_cdist(self, nu):
        # bit for bit matern of cdist above the diagonal and nothing below it,
        # with no scratch and with one of n x (n + n*), which holds two bands
        # from n = 128 on
        params = None if nu is None else MaternParams(0.6, 0.8, nu)
        for n, lend in itertools.product((100, 200), (False, True)):
            rng = np.random.default_rng(12)
            obs, unobs = rng.uniform(0, 5, size=(n, 2)), rng.uniform(0, 5, size=(70, 2))
            sites = np.vstack([obs, unobs])
            m = len(sites)
            want = cdist(sites, sites)
            if params is not None:
                want = matern(params, want)
            out = np.full((m, m), np.nan)
            scratch = np.full((n, m), np.nan) if lend else None
            assert covariance._fill_bands(obs, unobs, out, params, scratch) is out
            upper = np.triu(np.ones((m, m), dtype=bool))
            assert np.array_equal(out[upper], want[upper])
            assert np.all(np.isnan(out[~upper]))
            if params is not None:
                b = build_blocked(params, obs, unobs)
                assert b.jitter == 0.0
                assert np.array_equal(b.rows, want[:n])
                assert np.array_equal(b.chol, lapack_factor(want))

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
        # a spent prior's buffers are checked before the bands write in its factor's memory
        sites = np.random.default_rng(14).uniform(0, 5, size=(5, 2))
        params = MaternParams(0.5, 1.0)
        spent = build_blocked(params, sites)
        for out in (np.zeros((5, 5), order="F"), np.zeros((5, 5), dtype=np.float32),
                    np.zeros((5, 4))):
            before = out.copy()
            spent.chol = out.T
            with pytest.raises(ValueError, match="lent array must be a C-ordered"):
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
            with pytest.raises(ValueError, match="the number of sites must be at most 4096.*: 4097"):
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
    """A dead prior over as many sites, split alike, lends the memory of its
    ``chol`` and its ``rows`` to the next; one split otherwise lends neither."""

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
        rows, chol = spent.rows, spent.chol
        lent = build_blocked(params, *self.sites(2, 12, 5, near[1]), spent=spent)
        fresh = build_blocked(params, *self.sites(2, 12, 5, near[1]))
        assert lent.rows is rows and np.shares_memory(lent.chol, chol)
        assert lent.chol.flags.f_contiguous and lent.chol.strides == chol.strides
        assert lent.jitter == fresh.jitter and (lent.jitter > 0) == near[1]
        for name in ("rows", "chol", "d11", "d12"):
            assert np.array_equal(getattr(lent, name), getattr(fresh, name))

    def test_prior_that_split_the_sites_otherwise_rejected(self):
        # 9 + 4 sites as many as 5 + 8: the factor's memory would fit, the rows not
        params = MaternParams(0.5, 1.0)
        spent = build_blocked(params, *self.sites(3, 9, 4))
        rows, chol = spent.rows.copy(), spent.chol.copy()
        with pytest.raises(ValueError, match=r"C-ordered \(5, 13\) float64"):
            build_blocked(params, *self.sites(4, 5, 8), spent=spent)
        assert np.array_equal(spent.rows, rows) and np.array_equal(spent.chol, chol)

    @pytest.mark.parametrize("n, n_star", [(12, 6), (12, 4), (1, 0)])
    def test_prior_over_another_number_of_sites_rejected(self, n, n_star):
        params = MaternParams(0.5, 1.0)
        spent = build_blocked(params, *self.sites(5, 12, 5))
        rows, chol = spent.rows.copy(), spent.chol.copy()
        with pytest.raises(ValueError, match="lent array"):
            build_blocked(params, *self.sites(6, n, n_star), spent=spent)
        assert np.array_equal(spent.rows, rows) and np.array_equal(spent.chol, chol)

    def test_rows_buffer_of_another_shape_order_or_dtype_rejected(self):
        full = covariance_of(MaternParams(0.5, 1.0), *self.sites(7, 4, 2))
        for buf in (np.empty((6, 6)), np.empty((4, 6), order="F"), np.empty((4, 5)),
                    np.empty((4, 6), dtype=np.float32)):
            with pytest.raises(ValueError, match=r"C-ordered \(4, 6\) float64"):
                blocked_of(full.copy(), 4, buf)

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
    """``chol`` is LAPACK's lower factor of the covariance, upper triangle zeroed."""

    @staticmethod
    def check(b, params, obs, unobs):
        chol, full = b.chol, covariance_of(params, obs, unobs, b.jitter)
        assert np.array_equal(np.triu(chol, 1), np.zeros_like(chol))
        # the zeroing touches only the strict upper triangle of LAPACK's output
        assert np.array_equal(chol, np.tril(cho_factor(full.T, lower=True)[0]))
        rel = np.max(np.abs(chol @ chol.T - full)) / np.max(np.abs(full))
        assert rel < 1e-13

    @pytest.mark.parametrize("n_star", [9, 0])
    @pytest.mark.parametrize("nu", [0.5, 1.2, 1.5, 2.5])
    def test_factor_reproduces_full(self, nu, n_star):
        rng = np.random.default_rng(6)
        params = MaternParams(0.6, 0.8, nu)
        sites = rng.uniform(0, 5, size=(40, 2)), rng.uniform(0, 5, size=(n_star, 2))
        b = build_blocked(params, *sites)
        assert b.jitter == 0.0
        self.check(b, params, *sites)

    @pytest.mark.parametrize("n, n_star", [(64, 0), (100, 37), (400, 400)])
    def test_upper_triangle_zeroed_across_row_bands(self, n, n_star):
        rng = np.random.default_rng(7)
        params = MaternParams(0.6, 0.8)
        sites = rng.uniform(0, 20, size=(n, 2)), rng.uniform(0, 20, size=(n_star, 2))
        b = build_blocked(params, *sites)
        self.check(b, params, *sites)

    def test_factor_reproduces_full_under_jitter(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        params = MaternParams(0.9, 0.5, 2.5)
        sites = np.vstack([base, base + 1e-13]), np.array([[0.5, 0.5], [2.0, 1.0]])
        b = build_blocked(params, *sites)
        assert b.jitter > 0
        self.check(b, params, *sites)

    def test_non_finite_blocks_rejected(self):
        d11 = np.array([[1.0, np.nan], [np.nan, 1.0]])
        d12 = np.zeros((2, 1))
        with pytest.raises(ValueError, match="infs or NaNs"):
            blocked_of(np.block([[d11, d12], [d12.T, np.eye(1)]]), 2)
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
                blocked_of(full, 4)
        # potrf stops at the first pivot, so the matrix itself is scanned
        # before any jitter
        full = np.array([[-1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            blocked_of(full, 1)


class TestInPlaceFactor:
    """The covariance is factored in the buffer passed in; the observed rows are
    copied out first, and a jitter retry has the source write the covariance
    again: nothing below the buffer's diagonal is read."""

    sites = staticmethod(TestSpentPrior.sites)

    @staticmethod
    def escalated(full):
        """The jitter and factor of an independent escalation over ``full``."""
        jitter, scale = 0.0, np.max(full.diagonal())
        candidate = 1e-10 * scale
        while True:
            jittered = full.copy()
            jittered[np.diag_indices_from(jittered)] += jitter
            try:
                return jitter, jittered, lapack_factor(jittered)
            except np.linalg.LinAlgError:
                jitter, candidate = candidate, candidate * 10.0

    def test_factor_shares_the_buffer_passed_in_and_not_the_rows(self):
        params = MaternParams(0.6, 0.8)
        obs, unobs = self.sites(20, 12, 5)
        full = covariance_of(params, obs, unobs)
        b = blocked_of(full, 12)
        assert np.shares_memory(b.chol, full) and not np.shares_memory(b.chol, b.rows)
        assert b.chol.flags.f_contiguous and b.rows.flags.c_contiguous
        lent = build_blocked(params, obs, unobs, spent=b)
        assert np.shares_memory(lent.chol, full) and lent.rows is b.rows
        fresh = build_blocked(params, obs, unobs)
        assert not np.shares_memory(fresh.chol, fresh.rows)
        for name in ("chol", "rows"):
            assert np.array_equal(getattr(lent, name), getattr(fresh, name))

    @pytest.mark.parametrize("n_star", [5, 0])
    def test_near_duplicate_pairs_equal_the_jittered_covariance_bit_for_bit(self, n_star):
        # three pairs of nearly coincident observed sites need a jitter
        params = MaternParams(0.9, 0.5, 2.5)
        obs, unobs = self.sites(21, 12, n_star, near=True)
        b = build_blocked(params, obs, unobs)
        jitter, full, chol = self.escalated(covariance_of(params, obs, unobs))
        assert jitter > 0 and b.jitter == jitter
        assert np.array_equal(b.chol, chol)
        assert np.array_equal(b.d11, full[:12, :12]) and np.array_equal(b.d12, full[:12, 12:])

    def test_each_retry_restores_the_covariance(self):
        # an exactly symmetric matrix whose least eigenvalue, -3e-9, takes three
        # retries (jitter 1e-10, 1e-9, 1e-8) over 200 rows, four bands
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        a = (q * np.linspace(-3e-9, 2.0, 200)) @ q.T
        full = np.triu(a) + np.triu(a, 1).T
        jitter, jittered, chol = self.escalated(full)
        assert jitter == pytest.approx(1e-8 * np.max(full.diagonal()), rel=1e-12)
        poisoned = full.copy()
        poisoned[np.tril_indices(200, -1)] = np.nan
        b = blocked_of(poisoned, 150)
        assert b.jitter == jitter and np.array_equal(b.chol, chol)
        assert np.array_equal(b.rows, jittered[:150])

    def test_non_finite_covariance_behind_a_failed_pivot_rejected(self):
        # potrf stops in d11 before reaching the NaN in the unobserved block,
        # which the covariance written again for the retry holds
        full = np.eye(4)
        full[0, 1] = full[1, 0] = 2.0
        full[3, 2] = full[2, 3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            blocked_of(full, 2)

    def test_covariance_that_cannot_be_factored_in_place_rejected(self):
        full = covariance_of(MaternParams(0.5, 1.0), *self.sites(23, 4, 2))
        for bad in (np.asfortranarray(full), full[::2, ::2], full[:, :5],
                    full.astype(np.float32), np.vstack([full, full])[::2]):
            before = bad.copy()
            with pytest.raises(ValueError, match="lent array must be a C-ordered"):
                blocked_of(bad, 2)
            assert np.array_equal(bad, before)
