"""Conjugate-update oracles and chain-level invariants.

The closed-form means and variances asserted here are computed inside the
tests from the stated conditional laws, independently of the sampler's
own linear algebra.
"""

import numpy as np
import pytest

import subsetgibbs.gibbs as gibbs
from subsetgibbs import (
    BasisConfig,
    ChainState,
    DatasetView,
    FixedVariances,
    NumericalError,
    SamplerConfig,
    kernel_matrix,
    make_rng,
    run_chain,
)
from subsetgibbs.gibbs import (
    _cholesky_with_jitter,
    _sample_mvn_precision,
    draw_inactive_prediction_components,
    update_beta,
    update_eta_active,
    update_variances,
    update_xi_active,
)
from subsetgibbs.model import _BANDED_MIN_RHO_GAP, BandedKernel, SubsetMask, banded_kernel


def fixed_state(N, p=1, sigma2=1.0, sigma2_eta=1.0, sigma2_xi=1.0, sigma2_beta=1.0,
                beta=None, eta=None, xi=None):
    state = ChainState.initial(N, p)
    state.sigma2, state.sigma2_eta = sigma2, sigma2_eta
    state.sigma2_xi, state.sigma2_beta = sigma2_xi, sigma2_beta
    if beta is not None:
        state.beta = np.asarray(beta, dtype=float)
    if eta is not None:
        state.eta = np.asarray(eta, dtype=float)
    if xi is not None:
        state.xi = np.asarray(xi, dtype=float)
    return state


def moments(draw_one, count, seed=0):
    rng = make_rng(seed)
    draws = np.array([draw_one(rng) for _ in range(count)])
    return draws.mean(axis=0), draws.var(axis=0, ddof=1), draws


class TestUpdateEtaActive:
    def test_scalar_half_shrinkage(self):
        # n=1, Psi=[1], unit variances: mean r/2, variance 1/2
        r = 1.8
        state = fixed_state(1)
        y = np.array([r])
        x = np.zeros((1, 1))
        psi = np.eye(1)
        mean, var, _ = moments(
            lambda rng: update_eta_active(state, y, x, psi, np.zeros(1), rng)[0], 100_000)
        assert mean == pytest.approx(r / 2.0, abs=3.0 * np.sqrt(0.5 / 100_000))
        assert var == pytest.approx(0.5, rel=0.02)

    def test_flat_prior_limit_recovers_residual(self):
        state = fixed_state(3, sigma2_eta=1e12)
        y = np.array([0.5, -1.0, 2.0])
        x = np.zeros((3, 1))
        psi = np.eye(3)
        mean, var, _ = moments(
            lambda rng: update_eta_active(state, y, x, psi, np.zeros(3), rng), 50_000)
        np.testing.assert_allclose(mean, y, atol=3.0 * np.sqrt(1.0 / 50_000) + 1e-9)
        np.testing.assert_allclose(var, 1.0, rtol=0.03)

    def test_matches_closed_form_on_correlated_design(self):
        # moment oracle with a non-trivial kernel: the conditional is
        # N((Psi'Psi + (s/se) I)^-1 Psi' r, (Psi'Psi/s + I/se)^-1)
        coords = np.array([0.0, 1.0, 2.5, 4.0])
        psi = kernel_matrix(coords, coords, BasisConfig(rho=0.4))
        sigma2, sigma2_eta = 0.7, 2.3
        state = fixed_state(4, sigma2=sigma2, sigma2_eta=sigma2_eta,
                            beta=[0.4], xi=np.array([0.1, -0.2, 0.3, 0.0]))
        y = np.array([1.0, -0.5, 0.8, 0.2])
        x = np.ones((4, 1))
        residual = y - x @ state.beta - state.xi
        precision = psi.T @ psi / sigma2 + np.eye(4) / sigma2_eta
        cov = np.linalg.inv(precision)
        expected_mean = cov @ psi.T @ residual / sigma2
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_eta_active(state, y, x, psi, state.xi, rng), count)
        assert np.all(np.abs(mean - expected_mean) < 3.0 * np.sqrt(np.diag(cov) / count))
        np.testing.assert_allclose(var, np.diag(cov), rtol=0.03)


class FixedNormals:
    """Stands in for a generator: every standard-normal draw returns ``z``."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, size):
        assert size == self.z.shape[0]
        return self.z.copy()


def eta_law(state, y, x, psi, xi):
    """Exact mean and covariance of update_eta_active's draw and of Psi eta.

    The draw is affine in the standard normals z: the draw at z = 0 is the
    mean, and the draws at the unit vectors give the columns of a factor A
    with covariance A A'.
    """
    n = y.shape[0]
    mean, product_mean = update_eta_active(state, y, x, psi, xi, FixedNormals(np.zeros(n)),
                                           with_product=True)
    columns, product_columns = [], []
    for k in range(n):
        draw, product = update_eta_active(state, y, x, psi, xi, FixedNormals(np.eye(n)[k]),
                                          with_product=True)
        columns.append(draw - mean)
        product_columns.append(product - product_mean)
    a, b = np.array(columns).T, np.array(product_columns).T
    return mean, a @ a.T, product_mean, b @ b.T


def max_relative_error(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


def coords_down_to_threshold(n, rho, seed, shuffle=False):
    """Scalar coordinates whose smallest rho * gap sits just above the
    banded threshold, with the rest spread over [1, 3] times it."""
    rng = np.random.default_rng(seed)
    scaled = _BANDED_MIN_RHO_GAP * rng.uniform(1.0, 3.0, size=n - 1)
    if n > 1:
        scaled[rng.integers(n - 1)] = _BANDED_MIN_RHO_GAP * (1.0 + 1e-9)
    coords = np.concatenate([[0.0], np.cumsum(scaled / rho)])
    return coords[rng.permutation(n)] if shuffle else coords


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
    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    @pytest.mark.parametrize("spacing", ["threshold", "threshold-shuffled", "moderate"])
    def test_exact_law_matches_dense(self, n, spacing):
        rho = 0.4
        rng = np.random.default_rng(n)
        if spacing == "moderate":
            coords = np.cumsum(rng.uniform(0.5, 5.0, size=n))
        else:
            coords = coords_down_to_threshold(n, rho, seed=n,
                                              shuffle=spacing.endswith("shuffled"))
        basis = BasisConfig(rho=rho)
        banded = banded_kernel(coords, basis)
        assert isinstance(banded, BandedKernel)
        dense = kernel_matrix(coords, coords, basis)
        state = fixed_state(n, sigma2=0.7, sigma2_eta=2.3, beta=[0.4])
        y = rng.normal(size=n)
        x = np.ones((n, 1))
        xi = 0.3 * rng.normal(size=n)
        for got, want in zip(eta_law(state, y, x, banded, xi),
                             eta_law(state, y, x, dense, xi)):
            assert max_relative_error(got, want) < 1e-9

    def test_dense_law_is_the_closed_form(self):
        # anchors eta_law's dense side to the stated conditional
        coords = np.array([0.0, 1.0, 2.5, 4.0])
        psi = kernel_matrix(coords, coords, BasisConfig(rho=0.4))
        state = fixed_state(4, sigma2=0.7, sigma2_eta=2.3, beta=[0.4])
        y = np.array([1.0, -0.5, 0.8, 0.2])
        xi = np.array([0.1, -0.2, 0.3, 0.0])
        x = np.ones((4, 1))
        cov = np.linalg.inv(psi.T @ psi / 0.7 + np.eye(4) / 2.3)
        mean = cov @ psi.T @ (y - 0.4 - xi) / 0.7
        got_mean, got_cov, product_mean, product_cov = eta_law(state, y, x, psi, xi)
        np.testing.assert_allclose(got_mean, mean, rtol=1e-12)
        np.testing.assert_allclose(got_cov, cov, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(product_mean, psi @ mean, rtol=1e-12)
        np.testing.assert_allclose(product_cov, psi @ cov @ psi, rtol=1e-12, atol=1e-15)

    def test_monte_carlo_moments(self):
        # criterion 2's eta setting, drawn through the banded kernel
        coords = np.array([0.0, 1.0, 2.5, 4.0])
        basis = BasisConfig(rho=0.4)
        banded = banded_kernel(coords, basis)
        assert isinstance(banded, BandedKernel)
        psi = kernel_matrix(coords, coords, basis)
        rng_fix = np.random.default_rng(5)
        y = rng_fix.normal(size=4)
        x = np.ones((4, 1))
        state = fixed_state(4, sigma2=0.7, sigma2_eta=2.3, sigma2_xi=1.1, sigma2_beta=3.0,
                            beta=[0.4], xi=rng_fix.normal(size=4) * 0.3)
        cov = np.linalg.inv(psi.T @ psi / state.sigma2 + np.eye(4) / state.sigma2_eta)
        mean = cov @ psi.T @ (y - x @ state.beta - state.xi) / state.sigma2
        rng = make_rng(101)
        draws = np.array([update_eta_active(state, y, x, banded, state.xi, rng)
                          for _ in range(100_000)])
        assert_moments_within_3se(draws, mean, np.diag(cov))


class TestUpdateXiActive:
    def test_equal_variances_split_residual(self):
        state = fixed_state(2, sigma2=0.8, sigma2_xi=0.8)
        y = np.array([2.0, -1.0])
        x = np.zeros((2, 1))
        psi = np.eye(2)
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_xi_active(state, y, x, psi, np.zeros(2), rng), count)
        np.testing.assert_allclose(mean, y / 2.0, atol=3.0 * np.sqrt(0.4 / count))
        np.testing.assert_allclose(var, 0.4, rtol=0.03)

    def test_vanishing_variance_shrinks_away(self):
        state = fixed_state(2, sigma2_xi=1e-14)
        y = np.array([2.0, -1.0])
        draws = update_xi_active(state, y, np.zeros((2, 1)), np.eye(2), np.zeros(2),
                                 make_rng(0))
        np.testing.assert_allclose(draws, 0.0, atol=1e-5)

    def test_matches_closed_form_on_fixed_subset(self):
        coords = np.arange(5.0)
        psi = kernel_matrix(coords, coords, BasisConfig(rho=0.3))
        state = fixed_state(5, sigma2=0.5, sigma2_xi=1.5, beta=[0.2],
                            eta=np.array([0.3, -0.1, 0.6, 0.0, -0.4]))
        y = np.array([0.9, -0.3, 1.2, 0.1, -0.6])
        x = np.ones((5, 1))
        shrink = 1.5 / (0.5 + 1.5)
        expected_mean = shrink * (y - x @ state.beta - psi @ state.eta)
        expected_var = 0.5 * 1.5 / 2.0
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_xi_active(state, y, x, psi, state.eta, rng), count)
        np.testing.assert_allclose(
            mean, expected_mean, atol=3.0 * np.sqrt(expected_var / count))
        np.testing.assert_allclose(var, expected_var, rtol=0.03)


class TestUpdateBeta:
    def test_scalar_plug_in(self):
        # p=1, X=[1], unit variances, residual 2: mean 1, variance 1/2
        state = fixed_state(1)
        y = np.array([2.0])
        x = np.ones((1, 1))
        psi = np.eye(1)
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_beta(state, y, x, psi, np.zeros(1), np.zeros(1), rng)[0],
            count)
        assert mean == pytest.approx(1.0, abs=3.0 * np.sqrt(0.5 / count))
        assert var == pytest.approx(0.5, rel=0.02)

    def test_zero_design_recovers_prior(self):
        state = fixed_state(3, sigma2_beta=2.5)
        y = np.array([1.0, 2.0, 3.0])
        x = np.zeros((3, 1))
        psi = np.eye(3)
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_beta(state, y, x, psi, np.zeros(3), np.zeros(3), rng)[0],
            count)
        assert mean == pytest.approx(0.0, abs=3.0 * np.sqrt(2.5 / count))
        assert var == pytest.approx(2.5, rel=0.02)

    def test_matches_two_dimensional_closed_form(self):
        rng0 = np.random.default_rng(8)
        x = rng0.normal(size=(6, 2))
        psi = np.eye(6)
        sigma2, sigma2_beta = 0.9, 3.0
        state = fixed_state(6, p=2, sigma2=sigma2, sigma2_beta=sigma2_beta,
                            eta=rng0.normal(size=6), xi=rng0.normal(size=6))
        y = rng0.normal(size=6)
        residual = y - psi @ state.eta - state.xi
        cov = np.linalg.inv(x.T @ x / sigma2 + np.eye(2) / sigma2_beta)
        expected_mean = cov @ x.T @ residual / sigma2
        count = 100_000
        mean, var, _ = moments(
            lambda rng: update_beta(state, y, x, psi, state.eta, state.xi, rng), count)
        assert np.all(np.abs(mean - expected_mean) < 3.0 * np.sqrt(np.diag(cov) / count))
        np.testing.assert_allclose(var, np.diag(cov), rtol=0.03)


class TestUpdateVariances:
    def test_zero_sums_force_unit_rate_draws(self):
        # SSR=0 with n=2 gives IG(2, 1) for sigma2; the draw stream must
        # match the reciprocal-gamma construction exactly
        state = fixed_state(2)
        rng_a, rng_b = make_rng(5), make_rng(5)
        drawn = update_variances(state, np.zeros(2), np.zeros(2), np.zeros(2),
                                 np.zeros(2), rng_a)
        direct = tuple(1.0 / rng_b.gamma(shape, 1.0) for shape in (2.0, 2.0, 2.0, 2.0))
        assert drawn == direct

    def test_moment_oracle_with_finite_variance(self):
        # n=6 makes the conditional IG(4, 1 + SSR/2): mean and variance finite
        state = fixed_state(6)
        residual = np.array([1.0, -1.0, 0.5, -0.5, 0.3, -0.3])
        ssr = float(residual @ residual)
        shape, rate = 4.0, 1.0 + ssr / 2.0
        expected_mean = rate / (shape - 1.0)
        expected_var = rate**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
        count = 200_000
        draws = np.array([
            update_variances(state, residual, np.zeros(6), np.zeros(6), np.zeros(6),
                             rng)[0]
            for rng in [make_rng(77)] for _ in range(count)
        ])
        assert draws.mean() == pytest.approx(
            expected_mean, abs=3.0 * np.sqrt(expected_var / count))

    def test_fixed_components_pass_through_without_randomness(self):
        state = fixed_state(2)
        fixed = FixedVariances.all_of(0.3, 0.4, 0.5, 0.6)
        rng = make_rng(9)
        before = rng.bit_generator.state["state"]["state"]
        out = update_variances(state, None, np.zeros(2), np.zeros(2), np.zeros(2),
                               rng, fixed=fixed)
        assert out == (0.3, 0.4, 0.5, 0.6)
        assert rng.bit_generator.state["state"]["state"] == before

    def test_beta_prior_recovery(self):
        # beta = 0 with p=2 gives sigma2_beta ~ IG(2, 1)
        state = fixed_state(2, p=2)
        rng_a, rng_b = make_rng(123), make_rng(123)
        drawn = update_variances(state, np.zeros(3), np.zeros(3), np.zeros(3),
                                 np.zeros(2), rng_a)
        for _ in range(3):
            rng_b.gamma(1.0 + 1.5, 1.0)
        assert drawn[3] == 1.0 / rng_b.gamma(2.0, 1.0)


class TestDrawInactivePredictionComponents:
    def test_empty_intersection_leaves_stream_untouched(self):
        state = fixed_state(6)
        mask = SubsetMask(delta=np.array([True, True, True, False, False, False]),
                          active=np.array([0, 1, 2]))
        rng = make_rng(4)
        outside, eta, xi = draw_inactive_prediction_components(
            state, np.array([0, 1]), mask, rng)
        assert outside.size == 0 and eta.size == 0 and xi.size == 0
        assert make_rng(4).standard_normal() == rng.standard_normal()

    def test_prior_moments(self):
        state = fixed_state(300, sigma2_eta=1.0, sigma2_xi=4.0)
        mask = SubsetMask(delta=np.eye(300, dtype=bool)[0], active=np.array([0]))
        pred = np.arange(1, 201)
        rng = make_rng(10)
        eta_all, xi_all = [], []
        for _ in range(5000):
            _, eta, xi = draw_inactive_prediction_components(state, pred, mask, rng)
            eta_all.append(eta)
            xi_all.append(xi)
        eta_all = np.concatenate(eta_all)
        xi_all = np.concatenate(xi_all)
        assert eta_all.size == 10**6
        assert eta_all.var() == pytest.approx(1.0, abs=0.01)
        assert xi_all.var() == pytest.approx(4.0, rel=0.01)
        assert abs(eta_all.mean()) < 0.01

    def test_draws_independent_across_indices(self):
        state = fixed_state(4)
        mask = SubsetMask(delta=np.array([True, False, False, False]),
                          active=np.array([0]))
        pred = np.array([1, 2])
        rng = make_rng(21)
        draws = np.array([
            draw_inactive_prediction_components(state, pred, mask, rng)[1]
            for _ in range(100_000)
        ])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.01

    def test_lagged_variance_override(self):
        state = fixed_state(3, sigma2_eta=1.0, sigma2_xi=1.0)
        mask = SubsetMask(delta=np.array([True, False, False]), active=np.array([0]))
        rng_a, rng_b = make_rng(3), make_rng(3)
        _, eta_a, _ = draw_inactive_prediction_components(
            state, np.array([1]), mask, rng_a, sigma2_eta=9.0, sigma2_xi=9.0)
        z = rng_b.standard_normal(1)
        np.testing.assert_allclose(eta_a, 3.0 * z)

    def test_sorted_indices_match_mask(self):
        # the chain passes the sorted active indices; prediction indices
        # before, between and after them must be classified as with a mask
        state = fixed_state(10)
        active = np.array([2, 5, 6])
        delta = np.zeros(10, dtype=bool)
        delta[active] = True
        mask = SubsetMask(delta=delta, active=active)
        pred = np.array([0, 2, 3, 6, 9])
        from_mask = draw_inactive_prediction_components(state, pred, mask, make_rng(8))
        from_indices = draw_inactive_prediction_components(state, pred, active, make_rng(8))
        np.testing.assert_array_equal(from_mask[0], [0, 3, 9])
        for a, b in zip(from_mask, from_indices):
            np.testing.assert_array_equal(a, b)


class TestSampleMvnPrecision:
    def test_indefinite_matrix_raises_with_context(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError) as err:
            _cholesky_with_jitter(indefinite, n=7, iteration=3)
        assert "n=7" in str(err.value) and "iteration=3" in str(err.value)

    def test_singular_matrix_recovers_with_jitter(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        chol, jitter = _cholesky_with_jitter(singular, n=2, iteration=1)
        draw = _sample_mvn_precision(chol, np.ones(2), make_rng(0))
        assert jitter >= 1
        assert np.all(np.isfinite(chol)) and np.all(np.isfinite(draw))


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

    rng = make_rng(33)
    psi = kernel_matrix(data.index_coords, data.index_coords, basis)
    x = data.x
    y = data.y
    beta = np.zeros(p)
    eta = np.zeros(N)
    xi = np.zeros(N)
    s2 = s2_eta = s2_xi = s2_beta = 1.0
    trace = np.empty((iterations, p + 4))
    for g in range(iterations):
        rng.choice(N, N, replace=False, shuffle=False)  # the subset draw's consumption
        eta = eta_step(psi, y - x @ beta - xi, s2, s2_eta, rng)
        shrink = s2_xi / (s2 + s2_xi)
        xi = shrink * (y - x @ beta - psi @ eta) + np.sqrt(
            s2 * s2_xi / (s2 + s2_xi)) * rng.standard_normal(N)
        prec_beta = x.T @ x / s2 + np.eye(p) / s2_beta
        lower_b = np.linalg.cholesky(prec_beta)
        mean_beta = np.linalg.solve(prec_beta, x.T @ (y - psi @ eta - xi) / s2)
        beta = mean_beta + np.linalg.solve(lower_b.T, rng.standard_normal(p))
        residual = y - x @ beta - psi @ eta - xi
        s2 = 1.0 / rng.gamma(1.0 + N / 2.0, 1.0 / (1.0 + residual @ residual / 2.0))
        s2_eta = 1.0 / rng.gamma(1.0 + N / 2.0, 1.0 / (1.0 + eta @ eta / 2.0))
        s2_xi = 1.0 / rng.gamma(1.0 + N / 2.0, 1.0 / (1.0 + xi @ xi / 2.0))
        s2_beta = 1.0 / rng.gamma(1.0 + p / 2.0, 1.0 / (1.0 + beta @ beta / 2.0))
        trace[g] = (*beta, s2, s2_eta, s2_xi, s2_beta)
    return ours.trace, trace


def record_kernel_kinds(monkeypatch):
    """Types of every kernel the chain builds, subsets and prediction set."""
    kinds = []
    original = gibbs._kernel_operator

    def recording(coords, basis):
        kernel = original(coords, basis)
        kinds.append(type(kernel))
        return kernel

    monkeypatch.setattr(gibbs, "_kernel_operator", recording)
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


class TestRunChain:
    @pytest.mark.parametrize("policy, per_sweep", [("prior", 1), ("carry", 0)])
    def test_prior_refresh_runs_the_tested_helper(self, monkeypatch, policy, per_sweep):
        calls = count_calls(monkeypatch, ["draw_inactive_prediction_components"])
        config = small_config(12, iterations=15, burn_in=0, prediction_refresh=policy)
        run_chain(small_dataset(), config, 4)
        assert calls["draw_inactive_prediction_components"] == per_sweep * config.iterations

    @pytest.mark.parametrize("metric", ["abs", "greatcircle"])
    def test_stage_hooks_are_resolved_every_sweep(self, monkeypatch, metric):
        # the per-stage benchmark timings wrap these module attributes, so
        # the chain must look each one up at call time, once per sweep
        stages = ["sample_active_indices", "update_eta_active", "update_xi_active",
                  "update_beta", "update_variances"]
        calls = count_calls(monkeypatch, stages + ["kernel_matrix"])
        config = small_config(12, iterations=15, burn_in=0,
                              basis=BasisConfig(rho=0.3, metric=metric))
        run_chain(small_dataset(), config, 4)
        assert {name: calls[name] for name in stages} == dict.fromkeys(stages, 15)
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
        assert only_5th.iterations_kept == 1
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

    def test_design_cache_does_not_change_results(self, monkeypatch):
        data = small_dataset(N=6)
        config = small_config(6, fixed_variances=FixedVariances.all_of(1, 1, 1, 1))
        cached = run_chain(data, config, 2, collect_trace=True)
        monkeypatch.setattr(gibbs, "_DESIGN_CACHE_LIMIT", 0)
        uncached = run_chain(data, config, 2, collect_trace=True)
        np.testing.assert_array_equal(cached.mu_hat, uncached.mu_hat)
        np.testing.assert_array_equal(cached.trace, uncached.trace)

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
        monkeypatch.setattr(gibbs, "banded_kernel", lambda coords_, basis_: None)
        dense = run_chain(data, config, n, collect_trace=True)
        np.testing.assert_array_equal(ours.trace, dense.trace)
        np.testing.assert_array_equal(ours.mu_hat, dense.mu_hat)

    @pytest.mark.parametrize("N, n, fixed", [(12, 5, None), (4, 2, (1.0, 0.5, 0.5, 1.0))])
    def test_banded_factor_failure_falls_back_to_dense(self, monkeypatch, N, n, fixed):
        # a failed banded factor hands the sweep to the dense path, with its
        # jitter, and counts one jitter event per failed factorization
        data = small_dataset(N=N)
        config = small_config(N, iterations=25, burn_in=5,
                              fixed_variances=fixed and FixedVariances.all_of(*fixed))
        with monkeypatch.context() as patch:
            patch.setattr(gibbs, "banded_kernel", lambda coords_, basis_: None)
            dense = run_chain(data, config, n, collect_trace=True)
        factorizations = []
        monkeypatch.setattr(gibbs, "_banded_eta_factor",
                            lambda *args: factorizations.append(args) or None)
        fallback = run_chain(data, config, n, collect_trace=True)
        assert dense.jitter_events == 0
        assert fallback.jitter_events == len(factorizations) > 0
        if fixed is None:
            assert len(factorizations) == config.iterations
        np.testing.assert_array_equal(fallback.trace, dense.trace)
        np.testing.assert_allclose(fallback.mu_hat, dense.mu_hat, rtol=1e-12)

    def test_rejects_bad_subset_size(self):
        data = small_dataset(N=6)
        config = small_config(6)
        for n in (0, 7):
            with pytest.raises(Exception):
                run_chain(data, config, n)

    def test_subset_draws_consume_no_data_values(self, monkeypatch):
        recorded = []
        original = gibbs.sample_active_indices

        def recording(n, N, rng):
            active = original(n, N, rng)
            recorded.append(active.copy())
            return active

        monkeypatch.setattr(gibbs, "sample_active_indices", recording)
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
        fixed_active = np.array([0, 1, 2])
        monkeypatch.setattr(gibbs, "sample_active_indices",
                            lambda n, N, rng: fixed_active)
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
        fixed_active = np.array([0, 1, 2])
        monkeypatch.setattr(gibbs, "sample_active_indices",
                            lambda n, N, rng: fixed_active)
        data = small_dataset(N=6, seed=3)
        config = small_config(6, iterations=60, burn_in=0,
                              prediction_set=np.array([5]),
                              prediction_refresh="carry")
        out = run_chain(data, config, 3, collect_trace=True)
        # index 5 never enters the subset: its prediction is just the
        # running intercept average
        assert out.mu_hat[0] == pytest.approx(out.trace[:, 0].mean(), rel=1e-9)

    def test_prior_policy_adds_prior_noise_to_untouched_components(self, monkeypatch):
        fixed_active = np.array([0, 1, 2])
        monkeypatch.setattr(gibbs, "sample_active_indices",
                            lambda n, N, rng: fixed_active)
        data = small_dataset(N=6, seed=3)
        config = small_config(6, iterations=4000, burn_in=0,
                              prediction_set=np.array([5]),
                              prediction_refresh="prior",
                              fixed_variances=FixedVariances.all_of(1, 1, 1, 1))
        out = run_chain(data, config, 3, collect_trace=True)
        beta_var = out.trace[:, 0].var(ddof=1)
        # per-sweep prediction variance at the untouched index is the
        # intercept variance plus the two unit prior variances
        assert out.mu_var[0] == pytest.approx(beta_var + 2.0, rel=0.15)

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
            fixed_variances=FixedVariances.all_of(*variances))
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
