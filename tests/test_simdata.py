"""Generator moments and error metrics."""

import numpy as np
import pytest

from subsetgibbs import (
    Ar1Config,
    InvalidParameterError,
    equally_spaced_indices,
    generate_ar1,
    pairwise_difference,
    rmspe,
    rste,
)
from subsetgibbs.simdata import ar1_path


class TestAr1Path:
    def test_noiseless_recursion_is_geometric(self):
        out = ar1_path(2.0, 0.9, np.zeros(9))
        np.testing.assert_allclose(out, 2.0 * 0.9 ** np.arange(10), rtol=1e-12)

    def test_recursion_matches_loop(self):
        rng = np.random.default_rng(0)
        innovations = rng.normal(size=50)
        out = ar1_path(0.3, -0.5, innovations)
        value = 0.3
        expected = [value]
        for z in innovations:
            value = -0.5 * value + z
            expected.append(value)
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestGenerateAr1:
    def test_deterministic_under_seed(self):
        config = Ar1Config(N=500, seed=99)
        data_a, mu_a = generate_ar1(config)
        data_b, mu_b = generate_ar1(config)
        np.testing.assert_array_equal(data_a.y, data_b.y)
        np.testing.assert_array_equal(mu_a, mu_b)

    def test_lag_one_autocorrelation(self):
        _, mu = generate_ar1(Ar1Config(N=10**6, seed=12))
        centered = mu - mu.mean()
        acf1 = centered[:-1] @ centered[1:] / (centered @ centered)
        assert acf1 == pytest.approx(0.9, abs=0.005)

    def test_measurement_error_variance(self):
        data, mu = generate_ar1(Ar1Config(N=10**6, seed=5))
        assert (data.y - mu).var() == pytest.approx(0.1, abs=0.002)

    def test_stationary_marginal_variance(self):
        _, mu = generate_ar1(Ar1Config(N=10**6, seed=31))
        target = 0.1 / (1.0 - 0.81)
        # AR(1) variance estimates carry serial correlation; a 3-sigma
        # bound from the effective sample size covers it
        ess = mu.size * (1.0 - 0.9) / (1.0 + 0.9)
        se = target * np.sqrt(2.0 / ess)
        assert abs(mu.var() - target) < 3.0 * se

    @pytest.mark.parametrize("fields", [dict(N=100.5), dict(N=100.0)])
    def test_rejects_non_integer_sizes(self, fields):
        # N=100.5 used to pass here and fail inside the generator
        with pytest.raises(InvalidParameterError, match="integer"):
            Ar1Config(**fields)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_phi(self, phi):
        # a NaN phi used to pass here and fail in the generator, naming y
        with pytest.raises(InvalidParameterError, match="phi"):
            Ar1Config(N=10, phi=phi)

    def test_warns_on_nonstationary_phi(self):
        with pytest.warns(UserWarning):
            Ar1Config(N=10, phi=1.01)

    def test_intercept_only_covariates(self):
        data, _ = generate_ar1(Ar1Config(N=50, seed=1))
        np.testing.assert_array_equal(data.x, np.ones((50, 1)))
        np.testing.assert_array_equal(data.index_coords, np.arange(50.0))


class TestEquallySpacedIndices:
    def test_counts_and_spacing(self):
        idx = equally_spaced_indices(1000, 100_000)
        assert idx.size == 1000
        assert idx[0] == 0
        assert np.unique(idx).size == 1000
        np.testing.assert_array_equal(np.diff(idx), 100)

    def test_full_coverage(self):
        np.testing.assert_array_equal(equally_spaced_indices(7, 7), np.arange(7))

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidParameterError):
            equally_spaced_indices(0, 5)
        with pytest.raises(InvalidParameterError):
            equally_spaced_indices(6, 5)

    @pytest.mark.parametrize("count, N", [(2.5, 10), (2, 10.0)])
    def test_rejects_non_integer_count_and_size(self, count, N):
        # (2.5, 10) used to give the float indices [0., 4., 8.]
        with pytest.raises(InvalidParameterError, match="integer"):
            equally_spaced_indices(count, N)


class TestMetrics:
    def test_perfect_prediction_is_zero(self):
        values = np.array([0.3, -1.0, 2.0])
        assert rmspe(values, values.copy()) == 0.0
        assert rste(values, values.copy()) == 0.0

    def test_hand_computed_values(self):
        assert rmspe(np.zeros(2), np.ones(2)) == pytest.approx(1.0)
        assert rste(np.array([3.0]), np.array([1.0])) == pytest.approx(2.0)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=40), rng.normal(size=40)
        assert rmspe(a, b) == rmspe(b, a) > 0.0

    def test_matches_pairwise_difference_identity(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=64), rng.normal(size=64)
        assert rmspe(a, b) == pytest.approx(np.sqrt(pairwise_difference(a, b) / 64))

    def test_rste_agrees_with_rmspe(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert rste(a, b) == rmspe(a, b)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidParameterError):
            rmspe(np.zeros(3), np.zeros(4))
        with pytest.raises(InvalidParameterError):
            rmspe(np.zeros(0), np.zeros(0))

