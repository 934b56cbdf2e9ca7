"""Moment, support and determinism contracts of the variate generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subsetgibbs import (
    InvalidParameterError,
    MlbParams,
    make_rng,
    mlb_log_density,
    spawn_seed,
)
from subsetgibbs.distributions import sample_active_indices


class TestSampleActiveIndices:
    def test_full_subset_is_every_index(self):
        active = sample_active_indices(5, 5, make_rng(0))
        assert active.dtype == np.int64
        np.testing.assert_array_equal(active, np.arange(5))

    def test_rejects_out_of_range_sizes(self):
        rng = make_rng(0)
        with pytest.raises(InvalidParameterError):
            sample_active_indices(0, 5, rng)
        with pytest.raises(InvalidParameterError):
            sample_active_indices(6, 5, rng)

    @pytest.mark.parametrize("n, N", [(2.9, 10), (2, 10.5), (2.0, 10), (2, 10.0)])
    def test_rejects_non_integer_sizes(self, n, N):
        # int() would truncate 2.9 of 10.5 to a draw of 2 of 10
        with pytest.raises(InvalidParameterError, match="integer"):
            sample_active_indices(n, N, make_rng(0))

    def test_numpy_integer_sizes_give_the_int_draw(self):
        np.testing.assert_array_equal(
            sample_active_indices(np.int32(3), np.uint64(10), make_rng(4)),
            sample_active_indices(3, 10, make_rng(4)))

    def test_single_draw_inclusion_frequency(self):
        rng = make_rng(2024)
        counts = np.zeros(3)
        reps = 300_000
        for _ in range(reps):
            counts[sample_active_indices(1, 3, rng)[0]] += 1
        np.testing.assert_allclose(counts / reps, 1.0 / 3.0, atol=0.005)

    def test_inclusion_probability_matches_n_over_N(self):
        rng = make_rng(5)
        reps = 20_000
        hits = np.zeros(20)
        for _ in range(reps):
            hits[sample_active_indices(5, 20, rng)] += 1
        np.testing.assert_allclose(hits / reps, 0.25, atol=0.01)

    @given(st.integers(min_value=1, max_value=30), st.data())
    @settings(max_examples=50, deadline=None)
    def test_subset_invariants(self, N, data):
        n = data.draw(st.integers(min_value=1, max_value=N))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        active = sample_active_indices(n, N, make_rng(seed))
        assert active.size == n
        assert np.all(np.diff(active) > 0)
        assert 0 <= active[0] and active[-1] < N
        repeat = sample_active_indices(n, N, make_rng(seed))
        np.testing.assert_array_equal(active, repeat)


class TestMakeRng:
    @pytest.mark.parametrize("seed", [1.7, 2.9, 2.0, "3"])
    def test_rejects_non_integer_seeds(self, seed):
        # int() would truncate 1.7 to seed 1 and give its stream
        with pytest.raises(InvalidParameterError, match="integer"):
            make_rng(seed)

    def test_numpy_integer_seed_gives_the_int_stream(self):
        assert make_rng(np.uint64(7)).random() == make_rng(7).random()
        assert make_rng(np.int32(7)).random() == make_rng(7).random()


class TestSpawnSeed:
    def test_deterministic_and_distinct(self):
        seeds = [spawn_seed(99, i) for i in range(16)]
        assert seeds == [spawn_seed(99, i) for i in range(16)]
        assert len(set(seeds)) == 16

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidParameterError):
            spawn_seed(1, -1)

    @pytest.mark.parametrize("master_seed, index", [(7.9, 0), (7.0, 0), (7, 0.5), (7, 1.0)])
    def test_rejects_non_integer_arguments(self, master_seed, index):
        # int() would make spawn_seed(7.9, 0) equal spawn_seed(7, 0)
        with pytest.raises(InvalidParameterError, match="integer"):
            spawn_seed(master_seed, index)

    def test_numpy_integer_arguments_give_the_int_seed(self):
        assert spawn_seed(np.uint64(7), np.int64(3)) == spawn_seed(7, 3)


class TestMlbLogDensity:
    def test_scalar_reference_value(self):
        params = MlbParams(mu=[0.0], v_inverse=[[1.0]], alpha=[1.0], kappa=[2.0])
        assert mlb_log_density([0.0], params) == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        v_inv = np.tril(rng.normal(size=(3, 3)))
        np.fill_diagonal(v_inv, np.abs(np.diag(v_inv)) + 0.5)
        alpha = np.array([0.5, 1.0, 2.0])
        kappa = alpha + np.array([1.0, 0.5, 3.0])
        eta = rng.normal(size=3)
        mu = rng.normal(size=3)
        for shift in (0.5, -3.25, 17.0):
            base = mlb_log_density(eta, MlbParams(mu, v_inv, alpha, kappa))
            moved = mlb_log_density(eta + shift, MlbParams(mu + shift, v_inv, alpha, kappa))
            np.testing.assert_allclose(moved, base, rtol=1e-12, atol=1e-12)

    def test_scalar_normalization_by_quadrature(self):
        params = MlbParams(mu=[0.0], v_inverse=[[1.0]], alpha=[1.0], kappa=[2.0])
        total, err = quad(lambda e: np.exp(mlb_log_density([e], params)), -40.0, 40.0,
                          limit=200)
        assert abs(total - 1.0) < 1e-6
        assert err < 1e-8

    def test_finite_for_extreme_arguments(self):
        params = MlbParams(mu=[0.0, 0.0], v_inverse=np.eye(2), alpha=[1.0, 1.0],
                           kappa=[3.0, 3.0])
        for value in (1e30, -1e30, 700.0, -700.0):
            assert np.isfinite(mlb_log_density([value, -value], params))

    def test_rejects_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            MlbParams(mu=[0.0], v_inverse=[[1.0]], alpha=[2.0], kappa=[1.0])
        with pytest.raises(InvalidParameterError):
            MlbParams(mu=[0.0], v_inverse=[[-1.0]], alpha=[1.0], kappa=[2.0])
        with pytest.raises(InvalidParameterError):
            MlbParams(mu=[0.0, 1.0], v_inverse=[[1.0, 0.5], [0.0, 1.0]],
                      alpha=[1.0, 1.0], kappa=[2.0, 2.0])
        params = MlbParams(mu=[0.0], v_inverse=[[1.0]], alpha=[1.0], kappa=[2.0])
        with pytest.raises(InvalidParameterError):
            mlb_log_density([0.0, 1.0], params)
