"""Conjugate-update oracles and chain-level invariants.

The closed-form means and variances asserted here are computed inside the
tests from the stated conditional laws, independently of the sampler's
own linear algebra.
"""


from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import blas, lapack

import subsetgibbs.gibbs as gibbs
from subsetgibbs import (
    BasisConfig,
    DatasetView,
    FixedVariances,
    InvalidParameterError,
    NumericalError,
    SamplerConfig,
    kernel_matrix,
    make_rng,
    run_chain,
    spawn_seed,
)
from subsetgibbs.gibbs import (
    _banded_eta_factor,
    _beta_factor,
    _cholesky_with_jitter,
    _factor_eta_precision,
    _sample_mvn_precision,
    draw_inactive_prediction_components,
    update_beta,
    update_eta_active,
    update_variances,
    update_xi_active,
    variance_shapes,
)
from subsetgibbs.model import _BANDED_MIN_RHO_GAP, BandedKernel, banded_kernels


def moments(draw_one, count, seed=0):
    rng = make_rng(seed)
    draws = np.array([draw_one(rng) for _ in range(count)])
    return draws.mean(axis=0), draws.var(axis=0, ddof=1), draws


def eta_sampler(residual, banded, coords, basis, sigma2=1.0, sigma2_eta=1.0):
    """The chain's eta call on a fixed subset: factor once, then draw eta.

    ``banded`` is the subset's BandedKernel, or None for the dense kernel
    on ``coords``."""
    psi, chol, _ = _factor_eta_precision(banded, coords, basis, sigma2, sigma2_eta)
    n = residual.shape[0]
    return lambda rng: update_eta_active(residual, psi, chol, sigma2,
                                         rng.standard_normal(n))[0]


def beta_sampler(x, residual, sigma2=1.0, sigma2_beta=1.0):
    """The chain's beta call on a fixed subset: factor once, then draw beta."""
    chol, _ = _beta_factor(x.T @ x, sigma2, sigma2_beta)
    return lambda rng: update_beta(x, residual, chol, sigma2, rng.standard_normal(x.shape[1]))


class TestUpdateEtaActive:
    def test_scalar_half_shrinkage(self):
        # n=1, Psi=[1], unit variances: mean r/2, variance 1/2
        r = 1.8
        draw = eta_sampler(np.array([r]), None, np.zeros(1), BasisConfig(rho=1.0))
        mean, var, _ = moments(lambda rng: draw(rng)[0], 100_000)
        assert mean == pytest.approx(r / 2.0, abs=3.0 * np.sqrt(0.5 / 100_000))
        assert var == pytest.approx(0.5, rel=0.02)

    def test_flat_prior_limit_recovers_residual(self):
        y = np.array([0.5, -1.0, 2.0])
        # exp(-1e4) underflows to 0: the dense kernel is the identity
        coords, basis = np.array([0.0, 1e4, 2e4]), BasisConfig(rho=1.0)
        np.testing.assert_array_equal(kernel_matrix(coords, coords, basis), np.eye(3))
        mean, var, _ = moments(eta_sampler(y, None, coords, basis, sigma2_eta=1e12), 50_000)
        np.testing.assert_allclose(mean, y, atol=3.0 * np.sqrt(1.0 / 50_000) + 1e-9)
        np.testing.assert_allclose(var, 1.0, rtol=0.03)

    def test_matches_closed_form_on_correlated_design(self):
        # moment oracle with a non-trivial kernel: the conditional is
        # N((Psi'Psi + (s/se) I)^-1 Psi' r, (Psi'Psi/s + I/se)^-1)
        coords, basis = np.array([0.0, 1.0, 2.5, 4.0]), BasisConfig(rho=0.4)
        psi = kernel_matrix(coords, coords, basis)
        sigma2, sigma2_eta = 0.7, 2.3
        y = np.array([1.0, -0.5, 0.8, 0.2])
        residual = y - 0.4 - np.array([0.1, -0.2, 0.3, 0.0])
        precision = psi.T @ psi / sigma2 + np.eye(4) / sigma2_eta
        cov = np.linalg.inv(precision)
        expected_mean = cov @ psi.T @ residual / sigma2
        count = 100_000
        mean, var, _ = moments(eta_sampler(residual, None, coords, basis, sigma2, sigma2_eta),
                               count)
        assert np.all(np.abs(mean - expected_mean) < 3.0 * np.sqrt(np.diag(cov) / count))
        np.testing.assert_allclose(var, np.diag(cov), rtol=0.03)


def eta_law(residual, banded, coords, basis, sigma2, sigma2_eta):
    """Exact mean and covariance of update_eta_active's draw and of Psi eta.

    ``banded`` is the subset's BandedKernel, or None for the dense kernel
    on ``coords``.  The draw is affine in the standard normals z: the draw
    at z = 0 is the mean, and the draws at the unit vectors give the
    columns of a factor A with covariance A A'.
    """
    n = residual.shape[0]
    psi, chol, _ = _factor_eta_precision(banded, coords, basis, sigma2, sigma2_eta)
    mean, product_mean = update_eta_active(residual, psi, chol, sigma2, np.zeros(n))
    columns, product_columns = [], []
    for k in range(n):
        draw, product = update_eta_active(residual, psi, chol, sigma2, np.eye(n)[k])
        columns.append(draw - mean)
        product_columns.append(product - product_mean)
    a, b = np.array(columns).T, np.array(product_columns).T
    return mean, a @ a.T, product_mean, b @ b.T


def max_relative_error(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


def coords_down_to_threshold(n, rho, seed):
    """Increasing scalar coordinates whose smallest rho * gap sits just
    above the banded threshold, with the rest spread over [1, 3] times it."""
    rng = np.random.default_rng(seed)
    scaled = _BANDED_MIN_RHO_GAP * rng.uniform(1.0, 3.0, size=n - 1)
    if n > 1:
        scaled[rng.integers(n - 1)] = _BANDED_MIN_RHO_GAP * (1.0 + 1e-9)
    return np.concatenate([[0.0], np.cumsum(scaled / rho)])


def assert_moments_within_3se(draws, expected_mean, expected_var):
    # criterion 2's rule: sample mean and variance within 3 standard errors
    sample_mean = draws.mean(axis=0)
    sample_var = draws.var(axis=0, ddof=1)
    se_mean = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    fourth = ((draws - sample_mean) ** 4).mean(axis=0)
    se_var = np.sqrt(np.maximum(fourth - sample_var**2, 1e-30) / draws.shape[0])
    assert np.all(np.abs(sample_mean - expected_mean) <= 3.0 * se_mean)
    assert np.all(np.abs(sample_var - expected_var) <= 3.0 * se_var)


class TestBandedEtaDraw:
    @pytest.mark.parametrize("spacing, n", [
        *((spacing, n) for spacing in ("threshold", "moderate") for n in (1, 2, 3, 200)),
        ("moderate", 1000),  # fit-large-subset's n
    ])
    def test_exact_law_matches_dense(self, n, spacing):
        rho = 0.4
        rng = np.random.default_rng(n)
        if spacing == "moderate":
            coords = np.cumsum(rng.uniform(0.5, 5.0, size=n))
        else:
            coords = coords_down_to_threshold(n, rho, seed=n)
        basis = BasisConfig(rho=rho)
        banded = banded_kernels(coords[None], basis)[0]
        assert isinstance(banded, BandedKernel)
        y = rng.normal(size=n)
        residual = y - 0.4 - 0.3 * rng.normal(size=n)
        for got, want in zip(eta_law(residual, banded, coords, basis, 0.7, 2.3),
                             eta_law(residual, None, coords, basis, 0.7, 2.3)):
            assert max_relative_error(got, want) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 1000])
    @pytest.mark.parametrize("rho", [0.4, 0.003])
    def test_two_solves_equal_the_noise_product_form(self, n, rho):
        # with the same normals z, L'^-1 (L^-1 r/sigma2 + z) is
        # v = M^-1 (r/sigma2 + Lz), and eta is T v; at n <= 2 the band of
        # the factor is wider than the matrix
        rng = np.random.default_rng(n)
        coords = np.cumsum(rng.uniform(0.5, 5.0, size=n))
        kernel = banded_kernels(coords[None], BasisConfig(rho=rho))[0]
        residual, z = rng.normal(size=n), rng.normal(size=n)
        sigma2, sigma2_eta = 0.7, 2.3
        chol = _banded_eta_factor(kernel, sigma2, sigma2_eta)
        rhs = residual / sigma2 + dense_from_lower_band(chol) @ z
        product, info = lapack.dpbtrs(chol, rhs, lower=1)
        assert info == 0
        off = kernel.band[1, :-1]
        t = np.diag(kernel.band[0]) + np.diag(off, 1) + np.diag(off, -1)
        draw, psi_eta = update_eta_active(residual, kernel, chol, sigma2, z)
        assert max_relative_error(psi_eta, product) < 1e-12
        assert max_relative_error(draw, t @ product) < 1e-12

    def test_dense_law_is_the_closed_form(self):
        # anchors eta_law's dense side to the stated conditional
        coords, basis = np.array([0.0, 1.0, 2.5, 4.0]), BasisConfig(rho=0.4)
        psi = kernel_matrix(coords, coords, basis)
        residual = np.array([1.0, -0.5, 0.8, 0.2]) - 0.4 - np.array([0.1, -0.2, 0.3, 0.0])
        cov = np.linalg.inv(psi.T @ psi / 0.7 + np.eye(4) / 2.3)
        mean = cov @ psi.T @ residual / 0.7
        got_mean, got_cov, product_mean, product_cov = eta_law(residual, None, coords, basis,
                                                               0.7, 2.3)
        np.testing.assert_allclose(got_mean, mean, rtol=1e-12)
        np.testing.assert_allclose(got_cov, cov, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(product_mean, psi @ mean, rtol=1e-12)
        np.testing.assert_allclose(product_cov, psi @ cov @ psi, rtol=1e-12, atol=1e-15)

    def test_monte_carlo_moments(self):
        # criterion 2's eta setting, drawn through the banded kernel
        coords = np.array([0.0, 1.0, 2.5, 4.0])
        basis = BasisConfig(rho=0.4)
        banded = banded_kernels(coords[None], basis)[0]
        assert isinstance(banded, BandedKernel)
        psi = kernel_matrix(coords, coords, basis)
        rng_fix = np.random.default_rng(5)
        y = rng_fix.normal(size=4)
        residual = y - 0.4 - rng_fix.normal(size=4) * 0.3
        sigma2, sigma2_eta = 0.7, 2.3
        cov = np.linalg.inv(psi.T @ psi / sigma2 + np.eye(4) / sigma2_eta)
        mean = cov @ psi.T @ residual / sigma2
        draw = eta_sampler(residual, banded, coords, basis, sigma2, sigma2_eta)
        rng = make_rng(101)
        draws = np.array([draw(rng) for _ in range(100_000)])
        assert_moments_within_3se(draws, mean, np.diag(cov))


def dense_from_lower_band(band):
    """The dense matrix whose lower triangle LAPACK's lower band layout holds:
    row 0 the diagonal, rows 1 and 2 the first and second subdiagonals."""
    n = band.shape[1]
    dense = np.diag(band[0])
    for k in range(1, min(n, 3)):
        dense += np.diag(band[k, :n - k], -k)
    return dense


def band_matrix(square_band, sigma2, sigma2_eta):
    """M = I/sigma2 + T^2/sigma2_eta, dense, from a lower-layout band of T^2."""
    lower = dense_from_lower_band(square_band.T)
    return (lower + np.tril(lower, -1).T) / sigma2_eta + np.eye(len(lower)) / sigma2


class TestBandedEtaFactor:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 1000])
    @pytest.mark.parametrize("spacing", ["threshold", "moderate"])
    @pytest.mark.parametrize("sigma2, sigma2_eta", [(0.013, 17.0), (2.5, 0.02), (0.7, 2.3)])
    def test_factor_reproduces_the_precision(self, n, spacing, sigma2, sigma2_eta):
        rho = 0.4
        if spacing == "moderate":
            coords = np.cumsum(np.random.default_rng(n).uniform(0.5, 5.0, size=n))
        else:
            coords = coords_down_to_threshold(n, rho, seed=n)
        kernel = banded_kernels(coords[None], BasisConfig(rho=rho))[0]
        lower = dense_from_lower_band(_banded_eta_factor(kernel, sigma2, sigma2_eta))
        precision = band_matrix(kernel.square_band, sigma2, sigma2_eta)
        assert max_relative_error(lower @ lower.T, precision) < 1e-12

    @pytest.mark.parametrize("diagonal, first, second", [
        ([1.0] * 5, [0.3] * 4, [0.1] * 3),            # positive definite
        ([-3.0] + [1.0] * 4, [0.0] * 4, [0.0] * 3),   # fails at column 1
        ([0.0] * 5, [1.5] * 4, [0.0] * 3),            # fails at column 2
        ([1.0] * 4 + [-2.5], [0.0] * 4, [0.0] * 3),   # fails at column 5
    ])
    def test_fails_exactly_when_lapack_reports_failure(self, diagonal, first, second):
        # a stand-in kernel: only its band of "T^2" is read, and with unit
        # variances M = I + that band
        square_band = np.zeros((5, 3))
        square_band[:, 0] = diagonal
        square_band[:-1, 1] = first
        square_band[:-2, 2] = second
        band = square_band.T.copy(order="F")
        band[0] += 1.0
        expected, info = lapack.dpbtrf(band, lower=1)
        factor = _banded_eta_factor(SimpleNamespace(square_band=square_band), 1.0, 1.0)
        assert (factor is None) == (info > 0)
        if factor is not None:
            assert np.array_equal(factor, expected)


class TestVarianceGammaDraws:
    @pytest.mark.parametrize("n, p", [(1, 1), (2, 2), (10, 1), (57, 3), (1000, 1)])
    def test_one_call_per_block_draws_the_per_sweep_variates(self, n, p):
        # run_chain draws a block's gammas in one call, the four shapes
        # broadcast to size (B, 4): the variates of B per-sweep draws,
        # whatever B is, and the same stream after
        shapes = variance_shapes(n, p)
        rng_sweep, rng_block, rng_blocks_of_7 = make_rng(n), make_rng(n), make_rng(n)
        per_sweep = np.array([rng_sweep.standard_gamma(shapes) for _ in range(50)])
        assert np.array_equal(rng_block.standard_gamma(shapes, (50, 4)), per_sweep)
        blocks = [rng_blocks_of_7.standard_gamma(shapes, (min(7, 50 - start), 4))
                  for start in range(0, 50, 7)]
        assert np.array_equal(np.vstack(blocks), per_sweep)
        after = rng_sweep.standard_gamma(shapes)
        assert np.array_equal(rng_block.standard_gamma(shapes), after)
        assert np.array_equal(rng_blocks_of_7.standard_gamma(shapes), after)


class TestUpdateXiActive:
    def test_equal_variances_split_residual(self):
        residual = np.array([2.0, -1.0])
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_xi_active(residual, 0.8, 0.8, rng.standard_normal(2)), count)
        np.testing.assert_allclose(mean, residual / 2.0, atol=3.0 * np.sqrt(0.4 / count))
        np.testing.assert_allclose(var, 0.4, rtol=0.03)

    def test_vanishing_variance_shrinks_away(self):
        draws = update_xi_active(np.array([2.0, -1.0]), 1.0, 1e-14, make_rng(0).standard_normal(2))
        np.testing.assert_allclose(draws, 0.0, atol=1e-5)

    def test_matches_closed_form_on_fixed_subset(self):
        coords = np.arange(5.0)
        psi = kernel_matrix(coords, coords, BasisConfig(rho=0.3))
        eta = np.array([0.3, -0.1, 0.6, 0.0, -0.4])
        y = np.array([0.9, -0.3, 1.2, 0.1, -0.6])
        residual = y - 0.2 - psi @ eta
        shrink = 1.5 / (0.5 + 1.5)
        expected_mean = shrink * residual
        expected_var = 0.5 * 1.5 / 2.0
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_xi_active(residual, 0.5, 1.5, rng.standard_normal(5)), count)
        np.testing.assert_allclose(
            mean, expected_mean, atol=3.0 * np.sqrt(expected_var / count))
        np.testing.assert_allclose(var, expected_var, rtol=0.03)


class TestUpdateBeta:
    def test_scalar_plug_in(self):
        # p=1, X=[1], unit variances, residual 2: mean 1, variance 1/2
        count = 100_000
        draw = beta_sampler(np.ones((1, 1)), np.array([2.0]))
        mean, var, _ = moments(lambda rng: draw(rng)[0], count)
        assert mean == pytest.approx(1.0, abs=3.0 * np.sqrt(0.5 / count))
        assert var == pytest.approx(0.5, rel=0.02)

    def test_zero_design_recovers_prior(self):
        count = 100_000
        draw = beta_sampler(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]), sigma2_beta=2.5)
        mean, var, _ = moments(lambda rng: draw(rng)[0], count)
        assert mean == pytest.approx(0.0, abs=3.0 * np.sqrt(2.5 / count))
        assert var == pytest.approx(2.5, rel=0.02)

    def test_matches_two_dimensional_closed_form(self):
        rng0 = np.random.default_rng(8)
        x = rng0.normal(size=(6, 2))
        sigma2, sigma2_beta = 0.9, 3.0
        eta, xi = rng0.normal(size=6), rng0.normal(size=6)
        y = rng0.normal(size=6)
        residual = y - eta - xi
        cov = np.linalg.inv(x.T @ x / sigma2 + np.eye(2) / sigma2_beta)
        expected_mean = cov @ x.T @ residual / sigma2
        count = 100_000
        mean, var, _ = moments(beta_sampler(x, residual, sigma2, sigma2_beta), count)
        assert np.all(np.abs(mean - expected_mean) < 3.0 * np.sqrt(np.diag(cov) / count))
        np.testing.assert_allclose(var, np.diag(cov), rtol=0.03)


class TestUpdateVariances:
    def test_zero_sums_force_unit_rate_draws(self):
        # SSR=0 with n=2 gives IG(2, 1) for sigma2; the draw stream must
        # match the reciprocal-gamma construction exactly
        rng_a, rng_b = make_rng(5), make_rng(5)
        drawn = update_variances(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2),
                                 rng_a.standard_gamma(variance_shapes(2, 2)))
        direct = tuple(1.0 / rng_b.gamma(shape, 1.0) for shape in (2.0, 2.0, 2.0, 2.0))
        assert drawn == direct

    def test_moment_oracle_with_finite_variance(self):
        # n=6 makes the conditional IG(4, 1 + SSR/2): mean and variance finite
        residual = np.array([1.0, -1.0, 0.5, -0.5, 0.3, -0.3])
        ssr = float(residual @ residual)
        shape, rate = 4.0, 1.0 + ssr / 2.0
        expected_mean = rate / (shape - 1.0)
        expected_var = rate**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
        count = 200_000
        draws = np.array([
            update_variances(residual, np.zeros(6), np.zeros(6), np.zeros(6),
                             rng.standard_gamma(variance_shapes(6, 6)))[0]
            for rng in [make_rng(77)] for _ in range(count)
        ])
        assert draws.mean() == pytest.approx(
            expected_mean, abs=3.0 * np.sqrt(expected_var / count))

    def test_fixed_components_pass_through_without_randomness(self, monkeypatch):
        # a pinned chain skips the variance step, so it draws nothing for
        # it, and its trace holds the pins at every sweep
        calls = count_calls(monkeypatch, ["update_variances"])
        pins = (0.3, 0.4, 0.5, 0.6)
        for policy in ("carry", "prior"):
            config = small_config(12, iterations=25, burn_in=5, prediction_refresh=policy,
                                  fixed_variances=FixedVariances(*pins))
            out = run_chain(small_dataset(), config, 4, collect_trace=True)
            np.testing.assert_array_equal(out.trace[:, -4:], np.tile(pins, (25, 1)))
        assert calls["update_variances"] == 0

    def test_beta_prior_recovery(self):
        # beta = 0 with p=2 gives sigma2_beta ~ IG(2, 1)
        rng_a, rng_b = make_rng(123), make_rng(123)
        drawn = update_variances(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(2),
                                 rng_a.standard_gamma(variance_shapes(3, 2)))
        for _ in range(3):
            rng_b.gamma(1.0 + 1.5, 1.0)
        assert drawn[3] == 1.0 / rng_b.gamma(2.0, 1.0)

    @pytest.mark.parametrize("block", range(4))
    @pytest.mark.parametrize("bad", [1e160, np.nan])
    def test_non_finite_sum_of_squares_is_numerical_error(self, block, bad):
        # 1e160 squared overflows to inf, which made the gamma scale zero
        # and the reciprocal a ZeroDivisionError; NaN gave NaN variances
        parts = [np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(1)]
        parts[block][0] = bad
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="not finite"):
            update_variances(*parts, np.ones(4))


class TestDrawInactivePredictionComponents:
    def test_empty_intersection_leaves_stream_untouched(self):
        # a subset that covers the prediction set leaves nothing outside it
        rng = make_rng(4)
        eta, xi = draw_inactive_prediction_components(
            np.empty(0, dtype=np.int64), 1.0, 1.0, rng.standard_normal(0))
        assert eta.size == 0 and xi.size == 0
        assert make_rng(4).standard_normal() == rng.standard_normal()

    def test_prior_moments(self):
        outside = np.arange(1, 201)
        rng = make_rng(10)
        eta_all, xi_all = [], []
        for _ in range(5000):
            eta, xi = draw_inactive_prediction_components(outside, 1.0, 4.0,
                                                          rng.standard_normal(400))
            eta_all.append(eta)
            xi_all.append(xi)
        eta_all = np.concatenate(eta_all)
        xi_all = np.concatenate(xi_all)
        assert eta_all.size == 10**6
        assert eta_all.var() == pytest.approx(1.0, abs=0.01)
        assert xi_all.var() == pytest.approx(4.0, rel=0.01)
        assert abs(eta_all.mean()) < 0.01

    def test_draws_independent_across_indices(self):
        outside = np.array([1, 2])
        rng = make_rng(21)
        draws = np.array([
            draw_inactive_prediction_components(outside, 1.0, 1.0, rng.standard_normal(4))[0]
            for _ in range(100_000)
        ])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.01

    def test_lagged_variance_override(self):
        # the chain passes the previous sweep's variances; the draw scales
        # with exactly the variances it is given
        rng_a, rng_b = make_rng(3), make_rng(3)
        eta_a, _ = draw_inactive_prediction_components(np.array([1]), 9.0, 9.0,
                                                       rng_a.standard_normal(2))
        z = rng_b.standard_normal(1)
        np.testing.assert_allclose(eta_a, 3.0 * z)

    def test_outside_indices_before_between_and_after_subset(self, monkeypatch):
        # the chain hands the helper the whole prediction set; after the
        # sweep, the prediction indices its subset misses hold the prior
        # draws and the others the subset's own, wherever they fall
        # relative to the subset.  The chain's eta there is read off the
        # prediction kernel's product, which runs on every kept sweep
        record = record_draws(monkeypatch)
        products = []
        kernel_operator = gibbs._kernel_operator

        def building(coords, basis):
            product = kernel_operator(coords, basis)
            return lambda v: products.append(v.copy()) or product(v)

        monkeypatch.setattr(gibbs, "_kernel_operator", building)
        pred = np.array([0, 2, 3, 6, 9, 11])
        config = small_config(12, iterations=60, burn_in=0, prediction_set=pred,
                              prediction_refresh="prior")
        assert_banded(small_dataset().index_coords[pred], config.basis)
        run_chain(small_dataset(), config, 4)
        assert len(record["refresh"]) == len(products) == config.iterations
        seen = set()
        for g, active in enumerate(record["subsets"]):
            indices, eta_prior, xi_prior = record["refresh"][g]
            np.testing.assert_array_equal(indices, pred)
            assert eta_prior.size == xi_prior.size == pred.size
            inside = np.isin(pred, active)
            outside = pred[~inside]
            np.testing.assert_array_equal(products[g][~inside], eta_prior[~inside])
            np.testing.assert_array_equal(products[g][inside],
                                          record["eta"][g][np.isin(active, pred)])
            seen.update(place for place, where in (
                ("before", outside < active[0]),
                ("between", (outside > active[0]) & (outside < active[-1])),
                ("after", outside > active[-1])) if where.any())
            seen.add("hit" if inside.any() else "miss")
        assert seen == {"before", "between", "after", "hit", "miss"}
        # a subset that covers the set overwrites every prior draw: at n = N
        # the prior chain is the carry chain
        prior = run_chain(small_dataset(), config, 12, collect_trace=True)
        carry = run_chain(small_dataset(), replace(config, prediction_refresh="carry"), 12,
                          collect_trace=True)
        assert_same_chain(prior, carry)


class TestSampleMvnPrecision:
    def test_indefinite_matrix_raises(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="not positive definite after jitter"):
            _cholesky_with_jitter(indefinite)

    def test_chain_attaches_subset_size_and_sweep_to_a_failure(self, monkeypatch):
        # the chain, not the factorization helper, names n and the sweep
        real = gibbs._cholesky_with_jitter
        calls = []

        def failing_at_sweep_3(precision):
            # the eta block takes the banded path on these coordinates, so
            # the beta factor is the one dense Cholesky of each sweep
            calls.append(None)
            if len(calls) == 3:
                raise NumericalError("synthetic failure")
            return real(precision)

        monkeypatch.setattr(gibbs, "_cholesky_with_jitter", failing_at_sweep_3)
        data = small_dataset()
        with pytest.raises(NumericalError) as err:
            run_chain(data, small_config(data.n_obs), 5)
        assert str(err.value) == "synthetic failure [n=5] [iteration=3]"
        assert (err.value.n, err.value.iteration) == (5, 3)

    @pytest.mark.parametrize("p", [1, 3])
    def test_two_solves_equal_the_mean_plus_the_noise(self, p):
        # L'^-1 (L^-1 h + z) = P^-1 h + L'^-1 z for P = LL'
        rng = np.random.default_rng(p)
        x = rng.normal(size=(8, p))
        precision = x.T @ x / 0.7 + np.eye(p) / 1.9
        linear, normals = rng.normal(size=p), rng.normal(size=p)
        chol, jitter = _cholesky_with_jitter(precision)
        draw = _sample_mvn_precision(chol, linear, normals)
        lower = np.linalg.cholesky(precision)
        expected = np.linalg.solve(precision, linear) + np.linalg.solve(lower.T, normals)
        assert jitter == 0
        np.testing.assert_allclose(draw, expected, rtol=1e-12, atol=0.0)

    def test_singular_matrix_recovers_with_jitter(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        chol, jitter = _cholesky_with_jitter(singular)
        draw = _sample_mvn_precision(chol, np.ones(2), make_rng(0).standard_normal(2))
        assert jitter >= 1
        assert np.all(np.isfinite(chol)) and np.all(np.isfinite(draw))

    def test_one_failure_counts_one_event_and_factors_the_jittered_matrix(self):
        # singular with trace 5, so the first jitter is 1e-10 * 5 / 2
        singular = np.array([[4.0, 2.0], [2.0, 1.0]])
        lower, jitter = _cholesky_with_jitter(singular)
        assert jitter == 1
        np.testing.assert_array_equal(lower, np.tril(lower))
        np.testing.assert_allclose(lower @ lower.T, singular + 2.5e-10 * np.eye(2),
                                   rtol=0.0, atol=1e-14)


class TestBetaFactor:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_is_the_cholesky_factor_of_the_precision(self, p):
        rng = np.random.default_rng(p)
        x = rng.normal(size=(10, p))
        lower, jitter = _beta_factor(x.T @ x, 0.7, 1.9)
        expected = np.linalg.cholesky(x.T @ x / 0.7 + np.eye(p) / 1.9)
        assert jitter == 0
        np.testing.assert_allclose(lower, expected, rtol=1e-14, atol=0.0)

    def test_singular_precision_falls_back_to_jitter(self):
        # a flat beta prior (1/sigma2_beta = 0) on collinear columns
        xtx = np.ones((4, 2)).T @ np.ones((4, 2))
        lower, jitter = _beta_factor(xtx, 1.0, np.inf)
        assert jitter >= 1
        assert np.all(np.isfinite(lower))


# The block steps in the call forms they had before the sampler moved to
# ndarray.dot, positional LAPACK and BLAS arguments and take gathers: the
# same arithmetic by the keyword and operator routes.
def keyword_banded_eta_factor(kernel, sigma2, sigma2_eta):
    band = (kernel.square_band / sigma2_eta).T
    band[0] += 1.0 / sigma2
    lower, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    return lower if info == 0 else None


def keyword_banded_eta_draw(residual, kernel, chol, sigma2, normals):
    product = blas.dtbsv(2, chol, residual / sigma2, lower=1, overwrite_x=1)
    product += normals
    product = blas.dtbsv(2, chol, product, lower=1, trans=1, overwrite_x=1)
    return blas.dsbmv(1, 1.0, kernel.band, product, lower=1), product


def keyword_beta_draw(x_delta, residual, xtx, sigma2, sigma2_beta, normals):
    precision = xtx / sigma2
    precision.ravel()[::precision.shape[0] + 1] += 1.0 / sigma2_beta
    chol, info = lapack.dpotrf(precision, lower=1)
    assert info == 0
    half, _ = lapack.dtrtrs(chol, x_delta.T @ residual / sigma2, lower=1)
    draw, _ = lapack.dtrtrs(chol, half + normals, lower=1, trans=1)
    return chol, draw


def operator_variances(residual, eta_delta, xi_delta, beta, gammas):
    sums = [float(v @ v) for v in (residual, eta_delta, xi_delta, beta)]
    return tuple(1.0 / ((1.0 / (1.0 + 0.5 * ss)) * gamma) for ss, gamma in zip(sums, gammas))


class TestCallForms:
    @pytest.mark.parametrize("n", [1, 2, 10, 200, 1000])
    @pytest.mark.parametrize("p", [1, 3])
    def test_steps_give_the_bits_of_the_keyword_and_operator_forms(self, n, p):
        rng = np.random.default_rng(10 * n + p)
        N, size = 2 * n + 5, 3
        x = np.ones((N, p))
        x[:, 1:] = rng.normal(size=(N, p - 1))
        coords = np.cumsum(rng.uniform(0.5, 5.0, size=N))
        actives = np.sort(rng.permuted(np.tile(np.arange(N), (size, 1)), axis=1)[:, :n], axis=1)
        taken, indexed = x.take(actives, axis=0), x[actives]
        assert np.array_equal(taken, indexed)
        kernels = banded_kernels(coords[actives], BasisConfig(rho=0.4 if n < 1000 else 0.003))
        sigma2, sigma2_eta, sigma2_beta = 0.7, 2.3, 1.9
        for b in range(size):
            kernel, x_delta = kernels[b], taken[b]
            assert isinstance(kernel, BandedKernel)
            residual, normals = rng.normal(size=n), rng.normal(size=n)
            chol = _banded_eta_factor(kernel, sigma2, sigma2_eta)
            assert np.array_equal(chol, keyword_banded_eta_factor(kernel, sigma2, sigma2_eta))
            eta, product = update_eta_active(residual, kernel, chol, sigma2, normals)
            want_eta, want_product = keyword_banded_eta_draw(residual, kernel, chol, sigma2,
                                                             normals)
            assert np.array_equal(eta, want_eta) and np.array_equal(product, want_product)

            xtx, beta_normals = indexed[b].T @ indexed[b], rng.normal(size=p)
            chol_beta, jitter = _beta_factor(xtx, sigma2, sigma2_beta)
            beta = update_beta(x_delta, residual, chol_beta, sigma2, beta_normals)
            want_chol, want_beta = keyword_beta_draw(indexed[b], residual, xtx, sigma2,
                                                     sigma2_beta, beta_normals)
            assert jitter == 0 and np.array_equal(chol_beta, want_chol)
            assert np.array_equal(beta, want_beta)

            xi, gammas = rng.normal(size=n), rng.gamma(1.0 + n / 2.0, size=4).tolist()
            resid = residual - x_delta.dot(beta)
            assert np.array_equal(resid, residual - indexed[b] @ beta)
            assert (update_variances(resid, eta, xi, beta, gammas)
                    == operator_variances(resid, eta, xi, beta, gammas))


def small_dataset(N=12, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetView(y=rng.normal(size=N), x=np.ones((N, 1)),
                       index_coords=np.arange(N, dtype=float))


def small_config(N, **overrides):
    defaults = dict(iterations=40, burn_in=10, prediction_set=np.array([0, N // 2]),
                    basis=BasisConfig(rho=0.3), seed=11)
    defaults.update(overrides)
    return SamplerConfig(**defaults)


def _chain_and_direct_sampler(basis, eta_step, N=6, p=1, iterations=30):
    """Traces of run_chain at n = N and of a from-scratch full-data sampler.

    ``eta_step(psi, residual, s2, s2_eta, rng)`` draws eta; every other
    step is written out here with dense numpy.
    """
    data = small_dataset(N=N, seed=2)
    config = SamplerConfig(iterations=iterations, burn_in=0,
                           prediction_set=np.array([0, 4]), basis=basis, seed=33,
                           prediction_refresh="prior")
    ours = run_chain(data, config, N, collect_trace=True)

    # the subset stream (0) always gives the full set here and the refresh
    # stream (3) is overwritten at n = N, so only normals and gammas matter
    normal_rng, gamma_rng = (make_rng(spawn_seed(33, k)) for k in (1, 2))
    psi = kernel_matrix(data.index_coords, data.index_coords, basis)
    x = data.x
    y = data.y
    beta = np.zeros(p)
    eta = np.zeros(N)
    xi = np.zeros(N)
    s2 = s2_eta = s2_xi = s2_beta = 1.0
    trace = np.empty((iterations, p + 4))
    for g in range(iterations):
        eta = eta_step(psi, y - x @ beta - xi, s2, s2_eta, normal_rng)
        shrink = s2_xi / (s2 + s2_xi)
        xi = shrink * (y - x @ beta - psi @ eta) + np.sqrt(
            s2 * s2_xi / (s2 + s2_xi)) * normal_rng.standard_normal(N)
        prec_beta = x.T @ x / s2 + np.eye(p) / s2_beta
        lower_b = np.linalg.cholesky(prec_beta)
        mean_beta = np.linalg.solve(prec_beta, x.T @ (y - psi @ eta - xi) / s2)
        beta = mean_beta + np.linalg.solve(lower_b.T, normal_rng.standard_normal(p))
        residual = y - x @ beta - psi @ eta - xi
        s2 = 1.0 / gamma_rng.gamma(1.0 + N / 2.0, 1.0 / (1.0 + residual @ residual / 2.0))
        s2_eta = 1.0 / gamma_rng.gamma(1.0 + N / 2.0, 1.0 / (1.0 + eta @ eta / 2.0))
        s2_xi = 1.0 / gamma_rng.gamma(1.0 + N / 2.0, 1.0 / (1.0 + xi @ xi / 2.0))
        s2_beta = 1.0 / gamma_rng.gamma(1.0 + p / 2.0, 1.0 / (1.0 + beta @ beta / 2.0))
        trace[g] = (*beta, s2, s2_eta, s2_xi, s2_beta)
    return ours.trace, trace


def record_kernel_kinds(monkeypatch):
    """Kinds of the prediction set's kernel and of every subset kernel whose
    eta precision the chain factors: np.ndarray where the chain builds the
    dense matrix, else BandedKernel."""
    kinds = []
    calls = count_calls(monkeypatch, ["kernel_matrix"])
    original, factor = gibbs._kernel_operator, gibbs._factor_eta_precision

    def recording(coords, basis):
        built = calls["kernel_matrix"]
        product = original(coords, basis)
        kinds.append(np.ndarray if calls["kernel_matrix"] > built else BandedKernel)
        return product

    def factoring(*args):
        psi_delta, chol, jitter = factor(*args)
        kinds.append(type(psi_delta))
        return psi_delta, chol, jitter

    monkeypatch.setattr(gibbs, "_kernel_operator", recording)
    monkeypatch.setattr(gibbs, "_factor_eta_precision", factoring)
    return kinds


def count_calls(monkeypatch, names):
    """Replace the named gibbs attributes with call-counting wrappers."""
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(gibbs, name, counting(name, getattr(gibbs, name)))
    return calls


def record_subsets(monkeypatch, rows):
    """Append each subset the chain draws to ``rows``, one row per sweep."""
    draw = gibbs.sample_active_indices

    def drawing(n, N, rng, count):
        actives = draw(n, N, rng, count)
        rows.extend(actives.copy())
        return actives

    monkeypatch.setattr(gibbs, "sample_active_indices", drawing)


def pin_subsets(monkeypatch, active):
    """Make ``active`` the subset of every sweep."""
    monkeypatch.setattr(gibbs, "sample_active_indices",
                        lambda n, N, rng, count: np.tile(active, (count, 1)))


def record_prediction_products(monkeypatch):
    """Record the chain's subsets and the sweeps that multiply by the prediction kernel.

    ``record["product"]`` holds the product function ``_kernel_operator``
    built.  Each call of it is recorded as the number of eta steps run so
    far, which is the 1-based sweep index (a block draws its subsets before
    its sweeps run).
    """
    record = {"subsets": [], "products": [], "product": None, "sweeps": 0}
    record_subsets(monkeypatch, record["subsets"])
    kernel_operator, eta_step = gibbs._kernel_operator, gibbs.update_eta_active

    def stepping(*args):
        record["sweeps"] += 1
        return eta_step(*args)

    def multiplying(v):
        record["products"].append(record["sweeps"])
        return record["product"](v)

    def building(coords, basis):
        record["product"] = kernel_operator(coords, basis)
        return multiplying

    monkeypatch.setattr(gibbs, "update_eta_active", stepping)
    monkeypatch.setattr(gibbs, "_kernel_operator", building)
    return record


def assert_banded(pred_coords, basis):
    """The prediction set is banded, so its product is the tridiagonal solve."""
    assert isinstance(banded_kernels(pred_coords[None], basis)[0], BandedKernel)


def record_draws(monkeypatch):
    """Record each sweep's subset, block draws and block residuals through the
    chain's stage hooks.

    ``psi_eta`` holds the eta step's Psi eta, and ``eta_residual``,
    ``xi_residual`` and ``beta_residual`` the residual each block step was
    given.  ``refresh`` holds the prior refresh's (prediction set, eta draw,
    xi draw) per sweep and stays empty under carry.
    """
    record = {name: [] for name in ("subsets", "eta", "psi_eta", "xi", "beta", "refresh",
                                    "eta_residual", "xi_residual", "beta_residual")}
    hooks = {
        "update_eta_active": lambda args, result: {
            "eta": result[0], "psi_eta": result[1], "eta_residual": args[0]},
        "update_xi_active": lambda args, result: {"xi": result, "xi_residual": args[0]},
        "update_beta": lambda args, result: {"beta": result, "beta_residual": args[1]},
        "draw_inactive_prediction_components": lambda args, result: {
            "refresh": (args[0].copy(), *result)},
    }

    def recording(func, keep):
        def wrapper(*args):
            result = func(*args)
            for name, value in keep(args, result).items():
                record[name].append(value.copy() if isinstance(value, np.ndarray) else value)
            return result
        return wrapper

    for attr, keep in hooks.items():
        monkeypatch.setattr(gibbs, attr, recording(getattr(gibbs, attr), keep))
    record_subsets(monkeypatch, record["subsets"])
    return record


def replay(record, N):
    """The chain's (beta, eta, xi) after each sweep, rebuilt from the recorded draws.

    Yields the same eta and xi arrays each time, updated in place.
    """
    eta, xi = np.zeros(N), np.zeros(N)
    refresh = record["refresh"] or [None] * len(record["subsets"])
    for active, eta_draw, xi_draw, beta, prior_draws in zip(
            record["subsets"], record["eta"], record["xi"], record["beta"], refresh):
        if prior_draws is not None:
            # the whole prediction set from the prior, then the subset's own draws
            pred, eta_prior, xi_prior = prior_draws
            eta[pred] = eta_prior
            xi[pred] = xi_prior
        eta[active] = eta_draw
        xi[active] = xi_draw
        yield beta, eta, xi


class TestRunChain:
    def test_carry_reuses_the_prediction_product_until_a_subset_meets_the_set(
            self, monkeypatch):
        record = record_prediction_products(monkeypatch)
        draws = record_draws(monkeypatch)
        pred = np.array([5, 30, 55])
        data = small_dataset(N=60)
        config = small_config(60, iterations=120, burn_in=20, prediction_set=pred,
                              prediction_refresh="carry")
        assert_banded(data.index_coords[pred], config.basis)
        out = run_chain(data, config, 4)

        expected, stale = [], True
        for g, active in enumerate(record["subsets"], start=1):
            stale = stale or bool(np.isin(active, pred).any())
            if g > config.burn_in and stale:
                expected.append(g)
                stale = False
        assert record["products"] == expected
        assert expected[0] == config.burn_in + 1
        assert 1 < len(expected) < config.iterations - config.burn_in

        # a reused product equals a fresh one bit for bit: a fresh product
        # on every kept sweep reproduces the chain's running moments exactly
        product, x_pred = record["product"], data.x[pred]
        mean, m2, kept = np.zeros(pred.size), np.zeros(pred.size), 0
        for g, (beta, eta, xi) in enumerate(replay(draws, data.n_obs), start=1):
            if g > config.burn_in:
                mu_g = x_pred @ beta + product(eta[pred]) + xi[pred]
                kept += 1
                delta = mu_g - mean
                mean += delta / kept
                m2 += delta * (mu_g - mean)
        assert kept == config.iterations - config.burn_in
        np.testing.assert_array_equal(out.mu_hat, mean)
        np.testing.assert_array_equal(out.mu_var, m2 / (kept - 1))

    @pytest.mark.parametrize("policy", ["carry", "prior"])
    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "greatcircle"])
    def test_mu_hat_averages_the_recorded_draws(self, monkeypatch, layout, policy):
        # each kept sweep predicts x_i'beta + sum_j K(c_i, c_j) eta_j + xi_i
        # over the prediction set, with K the dense kernel there, from that
        # sweep's draws; mu_hat and mu_var are their mean and variance
        N = 40
        rng = np.random.default_rng(6)
        coords = {
            "sorted": np.arange(N, dtype=float),
            "unsorted": rng.permutation(N).astype(float),
            "greatcircle": np.column_stack([rng.uniform(-60, 60, N),
                                            rng.uniform(-180, 180, N)]),
        }[layout]
        basis = BasisConfig(rho=0.3, metric="greatcircle" if layout == "greatcircle" else "abs")
        data = DatasetView(y=rng.normal(size=N),
                           x=np.column_stack([np.ones(N), rng.normal(size=(N, 2))]),
                           index_coords=coords)
        pred = np.array([1, 7, 8, 20, 33])
        # the chain holds the prediction set in coordinate order
        pred_coords = np.sort(coords[pred]) if layout == "unsorted" else coords[pred]
        assert (banded_kernels(pred_coords[None], basis)[0] is None) == (layout == "greatcircle")
        config = small_config(N, iterations=80, burn_in=20, prediction_set=pred, basis=basis,
                              prediction_refresh=policy)
        record = record_draws(monkeypatch)
        out = run_chain(data, config, 6)
        if layout == "unsorted":
            # the chain reads each drawn subset as positions in coordinate order
            rank = np.argsort(coords, kind="stable")
            record["subsets"] = [rank[active] for active in record["subsets"]]

        hits = [np.isin(active, pred).any() for active in record["subsets"][config.burn_in:]]
        assert any(hits) and not all(hits)
        psi = kernel_matrix(coords[pred], coords[pred], basis)
        mu = np.array([data.x[pred] @ beta + psi @ eta[pred] + xi[pred]
                       for g, (beta, eta, xi) in enumerate(replay(record, N), start=1)
                       if g > config.burn_in])
        np.testing.assert_allclose(out.mu_hat, mu.mean(axis=0), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.mu_var, mu.var(axis=0, ddof=1), rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("policy", ["carry", "prior"])
    def test_each_block_gets_its_residual_on_a_subset(self, monkeypatch, policy):
        # at n < N the eta step conditions on the xi that earlier sweeps
        # left at the subset (prior-refreshed values included), the xi step
        # on this sweep's Psi eta, and the beta step on this sweep's xi
        N = 40
        rng = np.random.default_rng(9)
        data = DatasetView(y=rng.normal(size=N),
                           x=np.column_stack([np.ones(N), rng.normal(size=N)]),
                           index_coords=np.arange(N, dtype=float))
        config = small_config(N, iterations=60, burn_in=0,
                              prediction_set=np.array([1, 7, 8, 20, 33]),
                              prediction_refresh=policy)
        record = record_draws(monkeypatch)
        run_chain(data, config, 6)

        close = dict(rtol=1e-12, atol=1e-12)
        beta, xi = np.zeros(2), np.zeros(N)
        from_prior = np.zeros(N, dtype=bool)
        prior_values_used = 0
        for g, (_, _, next_xi) in enumerate(replay(record, N)):
            active = record["subsets"][g]
            y, x = data.y[active], data.x[active]
            psi_eta, xi_delta = record["psi_eta"][g], record["xi"][g]
            np.testing.assert_allclose(record["eta_residual"][g],
                                       y - x @ beta - xi[active], **close)
            np.testing.assert_allclose(record["xi_residual"][g],
                                       y - x @ beta - psi_eta, **close)
            np.testing.assert_allclose(record["beta_residual"][g],
                                       y - psi_eta - xi_delta, **close)
            prior_values_used += int(from_prior[active].sum())
            if record["refresh"]:
                from_prior[record["refresh"][g][0]] = True
            from_prior[active] = False
            beta, xi = record["beta"][g], next_xi.copy()
        assert len(record["subsets"]) == config.iterations
        assert (prior_values_used > 0) == (policy == "prior")

    def test_prior_refresh_multiplies_once_per_kept_sweep(self, monkeypatch):
        record = record_prediction_products(monkeypatch)
        pred, data = np.array([5, 30, 55]), small_dataset(N=60)
        config = small_config(60, iterations=50, burn_in=15, prediction_set=pred,
                              prediction_refresh="prior")
        assert_banded(data.index_coords[pred], config.basis)
        run_chain(data, config, 4)
        assert record["products"] == list(range(config.burn_in + 1, config.iterations + 1))

    def test_failed_prediction_kernel_factor_names_the_subset_size(self, monkeypatch):
        # the prediction set is banded, and its tridiagonal factor reports
        # a non-positive pivot: the chain raises with n attached
        monkeypatch.setattr(lapack, "dpttrf", lambda d, e: (d, e, 1))
        data, config = small_dataset(), small_config(12)
        assert_banded(data.index_coords[config.prediction_set], config.basis)
        with pytest.raises(NumericalError, match="tridiagonal kernel inverse") as err:
            run_chain(data, config, 4)
        assert err.value.n == 4

    @pytest.mark.parametrize("policy, per_sweep", [("prior", 1), ("carry", 0)])
    def test_prior_refresh_runs_the_tested_helper(self, monkeypatch, policy, per_sweep):
        calls = count_calls(monkeypatch, ["draw_inactive_prediction_components"])
        config = small_config(12, iterations=15, burn_in=0, prediction_refresh=policy)
        run_chain(small_dataset(), config, 4)
        assert calls["draw_inactive_prediction_components"] == per_sweep * config.iterations

    def test_prior_refresh_uses_the_variances_the_block_steps_used(self, monkeypatch):
        # sampled variances: the refresh and the xi step read the previous
        # sweep's (sigma2_eta, sigma2_xi), unit variances at sweep 1
        seen = {"update_xi_active": [], "draw_inactive_prediction_components": []}

        def recording(name, func):
            def wrapper(*args):
                seen[name].append(args)
                return func(*args)
            return wrapper

        for name in seen:
            monkeypatch.setattr(gibbs, name, recording(name, getattr(gibbs, name)))
        config = small_config(12, iterations=40, burn_in=10, prediction_refresh="prior")
        out = run_chain(small_dataset(), config, 4, collect_trace=True)
        previous = np.vstack([[1.0, 1.0], out.trace[:-1, -3:-1]])
        xi_args = seen["update_xi_active"]
        refresh_args = seen["draw_inactive_prediction_components"]
        assert len(xi_args) == len(refresh_args) == config.iterations
        for g, (xi_call, refresh_call) in enumerate(zip(xi_args, refresh_args)):
            assert refresh_call[2] == xi_call[2]
            assert (refresh_call[1], refresh_call[2]) == tuple(previous[g])

    @pytest.mark.parametrize("metric", ["abs", "greatcircle"])
    def test_stage_hooks_are_resolved_every_sweep(self, monkeypatch, metric):
        # the per-stage benchmark timings wrap these module attributes, so
        # the chain must look each one up at call time: the subset draw
        # once per block of sweeps, every other stage once per sweep
        stages = ["update_eta_active", "update_xi_active", "update_beta", "update_variances"]
        calls = count_calls(monkeypatch, stages + ["sample_active_indices", "kernel_matrix"])
        monkeypatch.setattr(gibbs, "_sweeps_per_block", lambda n_: 4)
        config = small_config(12, iterations=15, burn_in=0,
                              basis=BasisConfig(rho=0.3, metric=metric))
        run_chain(small_dataset(), config, 4)
        assert {name: calls[name] for name in stages} == dict.fromkeys(stages, 15)
        assert calls["sample_active_indices"] == 4
        if metric == "greatcircle":
            assert calls["kernel_matrix"] >= config.iterations

    def test_single_kept_iteration_average(self):
        data = small_dataset()
        base = dict(prediction_set=np.array([0, 3, 7]), basis=BasisConfig(rho=0.3),
                    seed=5)
        only_5th = run_chain(data, SamplerConfig(iterations=5, burn_in=4, **base), 4)
        only_4th = run_chain(data, SamplerConfig(iterations=4, burn_in=3, **base), 4)
        last_two = run_chain(data, SamplerConfig(iterations=5, burn_in=3, **base), 4)
        np.testing.assert_allclose(
            last_two.mu_hat, 0.5 * (only_4th.mu_hat + only_5th.mu_hat), rtol=1e-12)
        assert np.isnan(only_5th.mu_var).all()

    def test_same_seed_bit_identical(self):
        data = small_dataset()
        config = small_config(12)
        a = run_chain(data, config, 5, collect_trace=True)
        b = run_chain(data, config, 5, collect_trace=True)
        np.testing.assert_array_equal(a.mu_hat, b.mu_hat)
        np.testing.assert_array_equal(a.trace, b.trace)

    def test_variances_stay_positive(self):
        data = small_dataset()
        out = run_chain(data, small_config(12, iterations=200, burn_in=0), 6,
                        collect_trace=True)
        assert (out.trace[:, -4:] > 0.0).all()

    def test_abs_metric_takes_the_banded_path(self, monkeypatch):
        kinds = record_kernel_kinds(monkeypatch)
        run_chain(small_dataset(N=12), small_config(12, iterations=10, burn_in=0), 4)
        assert kinds and all(kind is BandedKernel for kind in kinds)

    @pytest.mark.parametrize("case", ["duplicates", "near-duplicates", "latlon", "circular"])
    def test_fallback_cases_take_the_dense_path(self, monkeypatch, case):
        # each case must run dense for every subset and for the prediction
        # set, and give exactly what the dense path gives
        rng = np.random.default_rng(7)
        N, n, basis = 12, 3, BasisConfig(rho=0.3)
        if case == "duplicates":
            N = n = 6
            coords = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0])
        elif case == "near-duplicates":
            # every pair, not only neighbours, sits below the threshold
            coords = np.arange(N) * 0.5 * _BANDED_MIN_RHO_GAP / (basis.rho * N)
        elif case == "latlon":
            coords = np.column_stack([rng.uniform(-80, 80, N), rng.uniform(0, 360, N)])
            basis = BasisConfig(rho=0.3, metric="greatcircle")
        else:
            coords = 0.7 * np.arange(N)
            basis = BasisConfig(rho=0.3, metric="greatcircle")
        data = DatasetView(y=rng.normal(size=N), x=np.ones((N, 1)), index_coords=coords)
        config = small_config(N, iterations=20, burn_in=5, basis=basis,
                              prediction_set=np.array([1, 2, N - 1]))
        kinds = record_kernel_kinds(monkeypatch)
        ours = run_chain(data, config, n, collect_trace=True)
        assert kinds and all(kind is np.ndarray for kind in kinds)
        monkeypatch.setattr(gibbs, "banded_kernels", lambda coords_, basis_: [None] * len(coords_))
        dense = run_chain(data, config, n, collect_trace=True)
        np.testing.assert_array_equal(ours.trace, dense.trace)
        np.testing.assert_array_equal(ours.mu_hat, dense.mu_hat)

    @pytest.mark.parametrize("N, n, fixed", [(12, 5, None), (4, 2, (1.0, 0.5, 0.5, 1.0))])
    def test_banded_factor_failure_falls_back_to_dense(self, monkeypatch, N, n, fixed):
        # a failed banded factor hands the sweep to the dense path, with its
        # jitter, and counts one jitter event per failed factorization
        data = small_dataset(N=N)
        config = small_config(N, iterations=25, burn_in=5,
                              fixed_variances=fixed and FixedVariances(*fixed))
        with monkeypatch.context() as patch:
            patch.setattr(gibbs, "banded_kernels", lambda coords_, basis_: [None] * len(coords_))
            dense = run_chain(data, config, n, collect_trace=True)
        factorizations = []
        monkeypatch.setattr(gibbs, "_banded_eta_factor",
                            lambda *args: factorizations.append(args) or None)
        fallback = run_chain(data, config, n, collect_trace=True)
        assert dense.jitter_events == 0
        assert fallback.jitter_events == len(factorizations) == config.iterations
        np.testing.assert_array_equal(fallback.trace, dense.trace)
        np.testing.assert_allclose(fallback.mu_hat, dense.mu_hat, rtol=1e-12)

    def test_rejects_bad_subset_size(self):
        data = small_dataset(N=6)
        config = small_config(6)
        for n in (0, 7):
            with pytest.raises(Exception):
                run_chain(data, config, n)

    @pytest.mark.parametrize("n", [2.7, 2.0])
    def test_rejects_non_integer_subset_size(self, n):
        # int() would run 2.7 as n = 2
        with pytest.raises(InvalidParameterError, match="integer"):
            run_chain(small_dataset(N=6), small_config(6), n)

    def test_numpy_integer_subset_size_gives_the_int_chain(self):
        data, config = small_dataset(N=6), small_config(6)
        np.testing.assert_array_equal(run_chain(data, config, np.int64(2)).mu_hat,
                                      run_chain(data, config, 2).mu_hat)

    def test_subset_draws_consume_no_data_values(self, monkeypatch):
        recorded = []
        record_subsets(monkeypatch, recorded)
        config = small_config(12, iterations=30, burn_in=0)
        data_a = small_dataset(seed=1)
        data_b = DatasetView(y=data_a.y + 250.0, x=data_a.x,
                             index_coords=data_a.index_coords)
        run_chain(data_a, config, 4)
        first = [a.tolist() for a in recorded]
        recorded.clear()
        run_chain(data_b, config, 4)
        second = [a.tolist() for a in recorded]
        assert first == second

    def test_unselected_data_outside_predictions_is_ignored(self, monkeypatch):
        # with the subset pinned, perturbing a datum that is neither in
        # the subset nor in the prediction set must not move the chain
        pin_subsets(monkeypatch, np.array([0, 1, 2]))
        config = small_config(6, iterations=50, burn_in=0,
                              prediction_set=np.array([0, 1]))
        data_a = small_dataset(N=6, seed=3)
        y_perturbed = data_a.y.copy()
        y_perturbed[4] += 1000.0
        data_b = DatasetView(y=y_perturbed, x=data_a.x, index_coords=data_a.index_coords)
        a = run_chain(data_a, config, 3, collect_trace=True)
        b = run_chain(data_b, config, 3, collect_trace=True)
        np.testing.assert_array_equal(a.trace, b.trace)
        np.testing.assert_array_equal(a.mu_hat, b.mu_hat)

    def test_carry_policy_keeps_untouched_components_at_zero(self, monkeypatch):
        pin_subsets(monkeypatch, np.array([0, 1, 2]))
        data = small_dataset(N=6, seed=3)
        config = small_config(6, iterations=60, burn_in=0,
                              prediction_set=np.array([5]),
                              prediction_refresh="carry")
        out = run_chain(data, config, 3, collect_trace=True)
        # index 5 never enters the subset: its prediction is just the
        # running intercept average
        assert out.mu_hat[0] == pytest.approx(out.trace[:, 0].mean(), rel=1e-9)

    def test_prior_policy_adds_prior_noise_to_untouched_components(self, monkeypatch):
        pin_subsets(monkeypatch, np.array([0, 1, 2]))
        data = small_dataset(N=6, seed=3)
        config = small_config(6, iterations=4000, burn_in=0,
                              prediction_set=np.array([5]),
                              prediction_refresh="prior",
                              fixed_variances=FixedVariances(1, 1, 1, 1))
        out = run_chain(data, config, 3, collect_trace=True)
        beta_var = out.trace[:, 0].var(ddof=1)
        # per-sweep prediction variance at the untouched index is the
        # intercept variance plus the two unit prior variances
        assert out.mu_var[0] == pytest.approx(beta_var + 2.0, rel=0.15)

    @pytest.mark.parametrize("layout", ["banded", "greatcircle", "unsorted", "mixed"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["sampled", "pinned"])
    def test_carry_trace_does_not_depend_on_the_prediction_set(self, layout, pinned):
        # carry holds each component at its last sampled value, so the
        # prediction set only reads the chain; under prior the refresh
        # writes prior draws into the xi that later subsets read
        data = layout_dataset(layout)
        metric = "greatcircle" if layout == "greatcircle" else "abs"
        pins = FixedVariances(0.8, 0.5, 0.4, 2.0) if pinned else None
        outs = [run_chain(data, small_config(data.n_obs, iterations=120, burn_in=0,
                                             prediction_set=np.array(pred),
                                             basis=BasisConfig(rho=0.3, metric=metric),
                                             prediction_refresh="carry", fixed_variances=pins),
                          6, collect_trace=True)
                for pred in ([1, 7, 8, 20, 33], [0, 2, 15, 39])]
        np.testing.assert_array_equal(outs[0].trace, outs[1].trace)
        assert outs[0].jitter_events == outs[1].jitter_events

    def test_full_mask_matches_direct_full_data_sampler(self):
        # at n = N the chain must reproduce an independently written
        # full-data Gibbs sampler step for step (same seed, same square
        # root convention, formulas written from scratch here).  The
        # absolute-difference kernel takes the banded path: v = Psi eta is
        # drawn from N(M^-1 r / s2, M^-1) with M = I/s2 + T^2/s2_eta and
        # T = Psi^-1, as v = M^-1 (r / s2 + L z) with M = L L', and eta = T v
        def banded_eta_step(psi, residual, s2, s2_eta, rng):
            n = psi.shape[0]
            t = np.linalg.inv(psi)
            m = np.eye(n) / s2 + t @ t / s2_eta
            lower = np.linalg.cholesky(m)
            v = np.linalg.solve(m, residual / s2 + lower @ rng.standard_normal(n))
            return t @ v

        ours, direct = _chain_and_direct_sampler(BasisConfig(rho=0.3), banded_eta_step)
        np.testing.assert_allclose(ours, direct, rtol=1e-9, atol=1e-12)

    def test_full_mask_matches_direct_dense_sampler_great_circle(self):
        # the great-circle metric keeps the dense eta step: a Cholesky
        # factor of the precision Psi'Psi / s2 + I / s2_eta
        def dense_eta_step(psi, residual, s2, s2_eta, rng):
            n = psi.shape[0]
            prec_eta = psi.T @ psi / s2 + np.eye(n) / s2_eta
            lower = np.linalg.cholesky(prec_eta)
            mean_eta = np.linalg.solve(prec_eta, psi.T @ residual / s2)
            return mean_eta + np.linalg.solve(lower.T, rng.standard_normal(n))

        ours, direct = _chain_and_direct_sampler(
            BasisConfig(rho=0.3, metric="greatcircle"), dense_eta_step)
        np.testing.assert_allclose(ours, direct, rtol=1e-9, atol=1e-12)

    def test_tiny_conjugate_posterior_mean(self):
        # known-variance model: the chain's beta mean must match the
        # analytic Gaussian posterior within its autocorrelation-adjusted
        # Monte Carlo error
        N = 3
        data = small_dataset(N=N, seed=6)
        basis = BasisConfig(rho=0.3)
        variances = (0.8, 0.6, 0.7, 2.0)
        config = SamplerConfig(
            iterations=20_000, burn_in=500, prediction_set=np.array([0]),
            basis=basis, seed=17,
            fixed_variances=FixedVariances(*variances))
        out = run_chain(data, config, N, collect_trace=True)
        beta_draws = out.trace[500:, 0]

        s2, s2_eta, s2_xi, s2_beta = variances
        psi = kernel_matrix(data.index_coords, data.index_coords, basis)
        marginal_cov = s2_eta * psi @ psi.T + (s2 + s2_xi) * np.eye(N)
        solve = np.linalg.solve(marginal_cov, np.column_stack([data.x[:, 0], data.y]))
        precision = data.x[:, 0] @ solve[:, 0] + 1.0 / s2_beta
        expected_mean = (data.x[:, 0] @ solve[:, 1]) / precision

        batches = beta_draws.reshape(50, -1).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(batches.size)
        assert abs(beta_draws.mean() - expected_mean) < 3.0 * se


def layout_dataset(layout, N=40, p=2, seed=12):
    """A dataset whose subsets take the banded path, the dense path, or a mix
    of the two; "unsorted" and "tied" permute the coordinates, so the chain
    maps its subsets through their sorting permutation."""
    rng = np.random.default_rng(seed)
    coords = np.arange(N, dtype=float)
    if layout == "greatcircle":
        coords = np.column_stack([rng.uniform(-60, 60, N), rng.uniform(-180, 180, N)])
    elif layout == "unsorted":
        coords = rng.permutation(N).astype(float)
    elif layout == "mixed":
        # near-duplicate pairs: a subset holding both of a pair runs dense
        coords[1::4] = coords[::4] + 0.1 * _BANDED_MIN_RHO_GAP
    elif layout == "tied":
        # every coordinate held by two rows: a subset holding both runs dense
        coords = (rng.permutation(N) // 2).astype(float)
    x = np.column_stack([np.ones(N), rng.normal(size=(N, p - 1))])
    return DatasetView(y=rng.normal(size=N), x=x, index_coords=coords)


def assert_same_chain(out, reference):
    np.testing.assert_array_equal(out.mu_hat, reference.mu_hat)
    np.testing.assert_array_equal(out.mu_var, reference.mu_var)
    np.testing.assert_array_equal(out.trace, reference.trace)
    assert out.jitter_events == reference.jitter_events


class TestSweepBlocks:
    """A block of sweeps draws its variates ahead and builds its designs
    together; the block size must not change an output bit."""

    def run_with_block_sizes(self, monkeypatch, data, config, n):
        reference = run_chain(data, config, n, collect_trace=True)
        for size in (1, 7):
            with monkeypatch.context() as patch:
                patch.setattr(gibbs, "_sweeps_per_block", lambda n_: size)
                assert_same_chain(run_chain(data, config, n, collect_trace=True), reference)
        return reference

    @pytest.mark.parametrize("layout", ["banded", "greatcircle", "unsorted", "mixed"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["sampled", "pinned"])
    @pytest.mark.parametrize("policy", ["carry", "prior"])
    def test_block_size_changes_no_bit(self, monkeypatch, layout, pinned, policy):
        data = layout_dataset(layout)
        metric = "greatcircle" if layout == "greatcircle" else "abs"
        pins = FixedVariances(0.8, 0.5, 0.4, 2.0) if pinned else None
        config = small_config(data.n_obs, iterations=60, burn_in=10,
                              prediction_set=np.array([1, 7, 8, 20, 33]),
                              basis=BasisConfig(rho=0.3, metric=metric), prediction_refresh=policy,
                              fixed_variances=pins)
        # 60 sweeps of n = 6 fit in one default block; 7 leaves a short last block
        assert gibbs._sweeps_per_block(6) >= config.iterations
        kinds = record_kernel_kinds(monkeypatch)
        self.run_with_block_sizes(monkeypatch, data, config, 6)
        expected = {"banded": {BandedKernel}, "greatcircle": {np.ndarray},
                    "unsorted": {BandedKernel}, "mixed": {BandedKernel, np.ndarray}}[layout]
        assert set(kinds) == expected

    @pytest.mark.parametrize("N, n, fixed", [(12, 5, None), (4, 2, (1.0, 0.5, 0.5, 1.0))])
    def test_failed_banded_factors_change_no_bit(self, monkeypatch, N, n, fixed):
        # every banded factor fails, so each sweep falls back to the dense
        # path with a jitter event
        monkeypatch.setattr(gibbs, "_banded_eta_factor", lambda *args: None)
        config = small_config(N, iterations=25, burn_in=5, prediction_refresh="prior",
                              fixed_variances=fixed and FixedVariances(*fixed))
        out = self.run_with_block_sizes(monkeypatch, small_dataset(N=N), config, n)
        assert out.jitter_events > 0

    def test_prior_refresh_runs_the_blocks_of_carry(self, monkeypatch):
        # a block is sized by n alone: the refresh's 2m normals, drawn in
        # its own sweep, do not shrink it, so a prior chain with a large
        # prediction set builds one kernel for that set and one block pass
        calls = count_calls(monkeypatch, ["banded_kernels"])
        data = layout_dataset("banded", N=4000)
        counts = {}
        for policy in ("carry", "prior"):
            config = small_config(data.n_obs, iterations=60, burn_in=10,
                                  prediction_set=np.arange(3000), prediction_refresh=policy)
            run_chain(data, config, 6)
            counts[policy] = calls["banded_kernels"]
            calls["banded_kernels"] = 0
        assert counts == {"carry": 2, "prior": 2}

    def test_unsorted_subsets_get_their_kernels_from_the_block(self, monkeypatch):
        # only the prediction set's kernel is built on its own; every
        # subset arrives in coordinate order, so its kernel comes banded
        # from the block's pass, dense matrices none
        calls = count_calls(monkeypatch, ["_kernel_operator", "kernel_matrix"])
        kernels = []
        factor = gibbs._factor_eta_precision
        monkeypatch.setattr(gibbs, "_factor_eta_precision", lambda banded, coords, *args: (
            kernels.append((banded, coords)) or factor(banded, coords, *args)))
        config = small_config(40, iterations=30, burn_in=5,
                              prediction_set=np.array([1, 7, 8, 20, 33]))
        run_chain(layout_dataset("unsorted"), config, 6)
        assert calls == {"_kernel_operator": 1, "kernel_matrix": 0}
        assert len(kernels) == config.iterations
        assert all(isinstance(banded, BandedKernel) and np.all(np.diff(coords) >= 0)
                   for banded, coords in kernels)

    def test_block_gram_is_each_subsets_x_transpose_x(self, monkeypatch):
        # the block's one stacked product gives each sweep's beta factor
        # the X'X of that sweep's subset
        subsets, grams = [], []
        record_subsets(monkeypatch, subsets)
        factor = gibbs._beta_factor
        monkeypatch.setattr(gibbs, "_beta_factor",
                            lambda xtx, *args: grams.append(xtx.copy()) or factor(xtx, *args))
        data = layout_dataset("banded", p=3)
        monkeypatch.setattr(gibbs, "_sweeps_per_block", lambda n_: 7)
        run_chain(data, small_config(data.n_obs, iterations=20, burn_in=5), 6)
        assert len(grams) == len(subsets) == 20
        for active, xtx in zip(subsets, grams):
            x_delta = data.x[active]
            np.testing.assert_array_equal(xtx, x_delta.T @ x_delta)

    def test_datasets_with_one_seed_draw_one_subset_sequence(self, monkeypatch):
        # the subsets have a stream of their own, so under either policy
        # every layout draws the seed's sequence of positions, whatever path
        # its kernels take and wherever its subsets meet the prediction set
        recorded = []
        record_subsets(monkeypatch, recorded)
        for policy in ("carry", "prior"):
            config = small_config(40, iterations=50, burn_in=0, prediction_refresh=policy)
            sequences = {}
            for layout, seed in (("banded", 1), ("unsorted", 2), ("mixed", 3)):
                run_chain(layout_dataset(layout, seed=seed), config, 6)
                sequences[layout] = np.array(recorded)
                recorded.clear()
            assert len(sequences["banded"]) == config.iterations
            np.testing.assert_array_equal(sequences["mixed"], sequences["banded"])
            np.testing.assert_array_equal(sequences["unsorted"], sequences["banded"])

    def test_pins_and_policy_change_no_subset_and_no_block_normal(self, monkeypatch):
        # the gammas a sampled chain draws and the refresh normals a prior
        # chain draws come from streams of their own: pinned or sampled,
        # carry or prior, a seed draws the same subsets and block normals
        seen = {"sample_active_indices": [], "update_xi_active": []}
        record_subsets(monkeypatch, seen["sample_active_indices"])
        xi_step = gibbs.update_xi_active
        monkeypatch.setattr(gibbs, "update_xi_active", lambda *args: (
            seen["update_xi_active"].append(args[3].copy()) or xi_step(*args)))
        data = layout_dataset("banded")
        draws = []
        for policy in ("carry", "prior"):
            for pins in (None, FixedVariances(0.8, 0.5, 0.4, 2.0)):
                config = small_config(data.n_obs, iterations=50, burn_in=10,
                                      prediction_set=np.array([1, 7, 8, 20, 33]),
                                      prediction_refresh=policy, fixed_variances=pins)
                run_chain(data, config, 6)
                draws.append({name: np.array(values) for name, values in seen.items()})
                for values in seen.values():
                    values.clear()
        assert draws[0]["sample_active_indices"].shape == (50, 6)
        assert draws[0]["update_xi_active"].shape == (50, 6)
        for other in draws[1:]:
            for name, values in draws[0].items():
                np.testing.assert_array_equal(other[name], values)


class TestCoordinateOrder:
    """A chain on unsorted coordinates is, bit for bit, the chain on the
    coordinate-sorted dataset with its indices relabelled, so the exact-law
    tests of the sorted case cover it."""

    @pytest.mark.parametrize("layout", ["unsorted", "tied"])
    @pytest.mark.parametrize("n", [6, 40], ids=["n<N", "n=N"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["sampled", "pinned"])
    @pytest.mark.parametrize("policy", ["carry", "prior"])
    def test_chain_is_the_sorted_chain_relabelled(self, layout, n, pinned, policy):
        data = layout_dataset(layout)
        rank = np.argsort(data.index_coords, kind="stable")
        position = np.argsort(rank)  # of each index in coordinate order
        by_coordinate = DatasetView(y=data.y[rank], x=data.x[rank],
                                    index_coords=data.index_coords[rank])
        pred = np.array([1, 7, 8, 20, 33])
        sorted_pred = np.sort(position[pred])
        settings = dict(iterations=60, burn_in=10, prediction_refresh=policy,
                        fixed_variances=FixedVariances(0.8, 0.5, 0.4, 2.0) if pinned else None)
        out = run_chain(data, small_config(data.n_obs, prediction_set=pred, **settings), n,
                        collect_trace=True)
        reference = run_chain(by_coordinate,
                              small_config(data.n_obs, prediction_set=sorted_pred, **settings),
                              n, collect_trace=True)
        # entry k of the reference predicts index rank[sorted_pred[k]]
        back = np.searchsorted(sorted_pred, position[pred])
        np.testing.assert_array_equal(out.mu_hat, reference.mu_hat[back])
        np.testing.assert_array_equal(out.mu_var, reference.mu_var[back])
        np.testing.assert_array_equal(out.trace, reference.trace)
        assert out.jitter_events == reference.jitter_events

    def test_chain_sorts_only_its_prediction_set(self, monkeypatch):
        # the dataset holds its coordinates' sorting permutation, so a chain
        # sorts no N-length array, only the m-length prediction set, once
        data = layout_dataset("unsorted")
        lengths = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, *args, **kwargs: (
            lengths.append(np.size(a)) or argsort(a, *args, **kwargs)))
        run_chain(data, small_config(data.n_obs, prediction_set=np.array([1, 7, 8, 20, 33])), 6)
        assert data.n_obs not in lengths
        assert lengths == [5]
