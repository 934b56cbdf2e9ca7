"""Closed-form versus quadrature agreement and the model identity checks."""

import functools

import numpy as np
import pytest
from scipy import stats

from subsetgibbs import BasisConfig, FixedVariances, InvalidParameterError
from subsetgibbs.oracle import (
    TinyModelSpec,
    beta_given_variances,
    beta_mixture_cdf,
    beta_posterior_given_mask,
    check_marginal_preserved,
    check_posterior_equivalence,
    check_subset_independence,
    enumerate_masks,
    joint_posterior_given_mask,
    marginal_m,
    marginal_m_quadrature,
    prediction_oracle,
    sampled_variance_reference,
)


class TestTinyModelSpec:
    def test_rejects_oversized_instances(self):
        with pytest.raises(InvalidParameterError):
            TinyModelSpec(N=5, n=1)
        with pytest.raises(InvalidParameterError):
            TinyModelSpec(N=4, n=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_rejects_bad_pins_at_construction(self, bad):
        with pytest.raises(InvalidParameterError):
            TinyModelSpec(N=3, n=2, fixed_variances=FixedVariances(1.0, bad, 1.0, 1.0))

    @pytest.mark.parametrize("pins", [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
    def test_rejects_pins_that_are_not_fixed_variances(self, pins):
        # a tuple used to pass and fail later inside the oracles
        with pytest.raises(InvalidParameterError, match="FixedVariances"):
            TinyModelSpec(N=3, n=2, fixed_variances=pins)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan])
    def test_rejects_bad_rho_at_construction(self, rho):
        with pytest.raises(InvalidParameterError, match="rho"):
            TinyModelSpec(N=3, n=2, basis=BasisConfig(rho=rho))

    def test_rejects_basis_that_is_not_a_basis_config(self):
        with pytest.raises(InvalidParameterError, match="BasisConfig"):
            TinyModelSpec(N=3, n=2, basis=0.3)

    @pytest.mark.parametrize("N, n", [(3.5, 2), (3, 2.0)])
    def test_rejects_non_integer_sizes(self, N, n):
        # N = 3.5 used to fail with a TypeError inside math.comb
        with pytest.raises(InvalidParameterError, match="integer"):
            TinyModelSpec(N=N, n=n)


class TestEnumerateMasks:
    def test_counts_and_order(self):
        masks = enumerate_masks(3, 2)
        actives = [m.tolist() for m in masks]
        assert all(m.dtype == np.int64 for m in masks)
        assert actives == [[0, 1], [0, 2], [1, 2]]


class TestMarginal:
    def test_single_point_closed_form(self):
        # all four variance layers convolve into variance 4 at one point
        spec = TinyModelSpec(N=1, n=1)
        mask = enumerate_masks(1, 1)[0]
        for y0 in (-1.3, 0.0, 2.4):
            value = marginal_m(spec, mask, np.array([y0]))
            assert value == pytest.approx(stats.norm.pdf(y0, scale=2.0), rel=1e-12)

    def test_rejects_empty_mask(self):
        spec = TinyModelSpec(N=2, n=1)
        with pytest.raises(InvalidParameterError):
            marginal_m(spec, np.array([], dtype=np.int64), np.zeros(2))
        with pytest.raises(InvalidParameterError):
            marginal_m(spec, np.array([2]), np.zeros(2))  # outside range(N)

    @pytest.mark.parametrize("oracle", [marginal_m, marginal_m_quadrature,
                                        beta_posterior_given_mask, joint_posterior_given_mask])
    @pytest.mark.parametrize("mask, y", [([0, 1], np.zeros(2)), ([0, 5], np.zeros(3)),
                                         ([1, 0], np.zeros(3)), ([0.0, 1.0], np.zeros(3))])
    def test_every_subset_oracle_checks_the_mask_and_y(self, oracle, mask, y):
        # a short y used to give beta (0.0, 0.7155), and a 5 an IndexError
        with pytest.raises(InvalidParameterError, match="mask|y"):
            oracle(TinyModelSpec(N=3, n=2), np.array(mask), y)

    def test_quadrature_matches_closed_form_at_200_nodes(self):
        spec = TinyModelSpec(N=2, n=2)
        mask = enumerate_masks(2, 2)[0]
        y = np.array([0.4, -0.9])
        closed = marginal_m(spec, mask, y)
        numeric = marginal_m_quadrature(spec, mask, y, nodes=200)
        assert numeric == pytest.approx(closed, abs=1e-6 * closed)

    def test_quadrature_respects_dimension_cap(self):
        spec = TinyModelSpec(N=3, n=3)
        mask = enumerate_masks(3, 3)[0]
        with pytest.raises(InvalidParameterError):
            marginal_m_quadrature(spec, mask, np.zeros(3))

    def test_deterministic(self):
        spec = TinyModelSpec(N=2, n=1)
        mask = enumerate_masks(2, 1)[0]
        y = np.array([0.3, -0.2])
        assert marginal_m_quadrature(spec, mask, y) == marginal_m_quadrature(spec, mask, y)


class TestMarginalPreserved:
    def test_two_point_instance(self):
        spec = TinyModelSpec(N=2, n=1)
        report = check_marginal_preserved(spec, np.array([0.7, -1.1]))
        assert report.passed
        assert report.max_abs_error < 1e-6

    def test_full_subset_is_exact(self):
        spec = TinyModelSpec(N=2, n=2)
        report = check_marginal_preserved(spec, np.array([0.7, -1.1]))
        assert report.passed

    def test_randomized_data_vectors(self):
        rng = np.random.default_rng(0)
        spec = TinyModelSpec(N=2, n=1)
        for _ in range(20):
            report = check_marginal_preserved(spec, rng.normal(0.0, 1.5, 2))
            assert report.passed, str(report)


class TestSubsetIndependence:
    def test_uniform_subset_probabilities_recovered(self):
        spec = TinyModelSpec(N=2, n=1)
        report = check_subset_independence(spec)
        assert report.passed
        assert report.max_abs_error < 1e-6

    def test_single_mask_case(self):
        spec = TinyModelSpec(N=2, n=2)
        report = check_subset_independence(spec)
        assert report.passed


class TestPosteriorEquivalence:
    def test_unselected_perturbations_do_not_move_posterior(self):
        spec = TinyModelSpec(N=2, n=1)
        report = check_posterior_equivalence(spec, np.array([0.5, -0.7]))
        assert report.passed
        assert report.max_abs_error < 1e-10

    def test_full_mask_passes_vacuously(self):
        spec = TinyModelSpec(N=3, n=3)
        report = check_posterior_equivalence(spec, np.array([0.5, -0.7, 0.1]))
        assert report.passed
        assert report.cases == 1

    def test_sensitivity_to_selected_data(self):
        # sanity check that the grid statistic is not trivially constant:
        # perturbing a selected datum must move the posterior
        from subsetgibbs.oracle import _conditional_log_posterior_grid
        spec = TinyModelSpec(N=2, n=1)
        mask = enumerate_masks(2, 1)[0]
        grid = np.array([[b, e] for b in (-1.0, 0.0, 1.0) for e in (-1.0, 0.0, 1.0)])
        base = _conditional_log_posterior_grid(spec, mask, np.array([0.5, -0.7]), grid)
        moved = _conditional_log_posterior_grid(spec, mask, np.array([2.5, -0.7]), grid)
        assert np.max(np.abs(base - moved)) > 1e-3


class TestBetaMixture:
    def test_mask_posterior_matches_direct_formula(self):
        spec = TinyModelSpec(N=3, n=2, fixed_variances=FixedVariances(0.5, 1.5, 0.25, 2.0))
        y = np.array([1.0, -0.5, 0.8])
        mask = enumerate_masks(3, 2)[1]
        mean, var = beta_posterior_given_mask(spec, mask, y)
        # independent route: brute-force the Gaussian algebra with solves
        psi = spec.full_kernel()[np.ix_(mask, mask)]
        cov = 1.5 * psi @ psi.T + (0.5 + 0.25) * np.eye(2)
        x = np.ones(2)
        precision = x @ np.linalg.solve(cov, x) + 1.0 / 2.0
        expected_mean = (x @ np.linalg.solve(cov, y[mask])) / precision
        assert mean == pytest.approx(expected_mean, rel=1e-12)
        assert var == pytest.approx(1.0 / precision, rel=1e-12)

    def test_mixture_cdf_is_average_of_components(self):
        spec = TinyModelSpec(N=3, n=2)
        y = np.array([1.0, -0.5, 0.8])
        points = np.linspace(-2, 2, 9)
        total = np.zeros_like(points)
        for mask in enumerate_masks(3, 2):
            mean, cov = joint_posterior_given_mask(spec, mask, y)
            total += stats.norm.cdf(points, loc=mean[0], scale=np.sqrt(cov[0, 0]))
        np.testing.assert_allclose(beta_mixture_cdf(spec, y, points), total / 3.0,
                                   rtol=1e-12)

    def test_mixture_cdf_monotone(self):
        spec = TinyModelSpec(N=2, n=1)
        values = beta_mixture_cdf(spec, np.array([0.2, -0.4]), np.linspace(-4, 4, 33))
        assert np.all(np.diff(values) > 0)


class TestPredictionOracle:
    Y = np.array([1.0, -0.5, 0.8])  # criterion 3's data

    @pytest.mark.parametrize("pins, exact", [
        ((1.0, 0.05, 0.05, 1.0), (0.3054, 0.4636)),
        ((0.1, 1.0, 1.0, 1.0), (0.6357, 1.3332)),
        ((1.0, 1.0, 1.0, 1.0), (0.4579, 1.6336)),
    ])
    def test_reproduces_the_exact_rows_on_criterion_3s_model(self, pins, exact):
        spec = TinyModelSpec(N=3, n=2, fixed_variances=FixedVariances(*pins))
        mean, var = prediction_oracle(spec, self.Y, np.array([0]))
        np.testing.assert_allclose([mean[0], var[0]], exact, atol=1e-4)

    @pytest.mark.parametrize("N, n", [(3, 2), (4, 2), (3, 1)])
    def test_beta_block_is_the_beta_posterior_of_each_subset(self, N, n):
        # independent route: the Gaussian update of beta, by dense solves
        spec = TinyModelSpec(N=N, n=n, fixed_variances=FixedVariances(0.5, 1.5, 0.25, 2.0))
        y = np.array([1.0, -0.5, 0.8, 0.3])[:N]
        for mask in enumerate_masks(N, n):
            mean, cov = joint_posterior_given_mask(spec, mask, y)
            psi = spec.full_kernel()[np.ix_(mask, mask)]
            solve = np.linalg.solve(1.5 * psi @ psi.T + 0.75 * np.eye(n), np.ones(n))
            beta_var = 1.0 / (solve.sum() + 1.0 / 2.0)
            assert mean[0] == pytest.approx(beta_var * solve @ y[mask], rel=1e-12, abs=1e-12)
            assert cov[0, 0] == pytest.approx(beta_var, rel=1e-12, abs=1e-12)

    def test_full_subset_is_the_gaussian_posterior_of_mu(self):
        # independent route at n = N: mu and y are jointly Gaussian, so
        # mu | y follows from their marginal covariances
        spec = TinyModelSpec(N=3, n=3, fixed_variances=FixedVariances(0.5, 1.5, 0.25, 2.0))
        v, psi = spec.fixed_variances, spec.full_kernel()
        cov_mu = v.sigma2_beta + v.sigma2_eta * psi @ psi.T + v.sigma2_xi * np.eye(3)
        cov_y = cov_mu + v.sigma2 * np.eye(3)
        mean, var = prediction_oracle(spec, self.Y, np.arange(3))
        np.testing.assert_allclose(mean, cov_mu @ np.linalg.solve(cov_y, self.Y), rtol=1e-12)
        np.testing.assert_allclose(
            var, np.diag(cov_mu - cov_mu @ np.linalg.solve(cov_y, cov_mu)), rtol=1e-12)

    @pytest.mark.parametrize("pred", [[1, 0], [0, 3], [-1, 0], [0, 0], [0.0]])
    def test_rejects_a_prediction_set_unsorted_or_out_of_range(self, pred):
        with pytest.raises(InvalidParameterError, match="pred"):
            prediction_oracle(TinyModelSpec(N=3, n=2), self.Y, np.array(pred))


class TestSampledVarianceReference:
    """The reference for beta on the tiny model with sampled variances."""

    Y = np.array([1.0, -0.5, 0.8, 0.3])  # criterion 3's data, then one more row
    DRAWS = 2_000_000  # per subset; 1-3 s per seed on a 2-core machine
    BOUND = 4.0  # standard errors

    @pytest.fixture(scope="class")
    def reference(self):
        return functools.lru_cache(lambda N, seed: sampled_variance_reference(
            TinyModelSpec(N=N, n=2), self.Y[:N], self.DRAWS, seed))

    @pytest.mark.parametrize("N", [3, 4])
    def test_summands_are_the_pinned_closed_forms(self, N):
        # at any one draw of the variances, the weight is y_delta's Gaussian
        # density and the conditional moments the joint posterior's beta block
        y = self.Y[:N]
        for pins in [(0.5, 1.5, 0.25, 2.0), (1.0, 0.05, 0.05, 1.0), (0.1, 1.0, 1.0, 1.0)]:
            spec = TinyModelSpec(N=N, n=2, fixed_variances=FixedVariances(*pins))
            s2, s2_eta, s2_xi, s2_beta = pins
            for mask in enumerate_masks(N, 2):
                psi = spec.full_kernel()[np.ix_(mask, mask)]
                log_weight, mean, var = beta_given_variances(psi, y[mask], np.array([pins]))
                cov_y = s2_beta + s2_eta * psi @ psi.T + (s2 + s2_xi) * np.eye(2)
                assert np.exp(log_weight[0]) == pytest.approx(
                    stats.multivariate_normal(cov=cov_y).pdf(y[mask]), rel=1e-12)
                joint_mean, joint_cov = joint_posterior_given_mask(spec, mask, y)
                np.testing.assert_allclose([mean[0], var[0]], [joint_mean[0], joint_cov[0, 0]],
                                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("draws, replicates", [(100, 1), (5, 10), (100, 0)])
    def test_rejects_fewer_than_two_replicates_or_draws_than_replicates(self, draws, replicates):
        # these gave NaN, or a ValueError on an empty draw
        with pytest.raises(InvalidParameterError, match="replicates"):
            sampled_variance_reference(TinyModelSpec(N=3, n=2), self.Y[:3], draws, 1, replicates)

    @pytest.mark.parametrize("N", [3, 4])
    def test_two_seeds_agree(self, reference, N):
        (first, first_se), (second, second_se) = reference(N, 1), reference(N, 2)
        assert np.all(np.abs(first - second) <= self.BOUND * np.hypot(first_se, second_se))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reproduces_the_exact_row_on_criterion_3s_model(self, reference, seed):
        # ROADMAP's exact (mean, variance) row, from 20 million draws per subset
        estimate, se = reference(3, seed)
        assert np.all(np.abs(estimate - [0.1400, 1.1770]) <= self.BOUND * se)
