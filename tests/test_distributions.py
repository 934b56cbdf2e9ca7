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
from subsetgibbs import distributions
from subsetgibbs.distributions import sample_active_indices


def choice_rows(n, N, rng, count):
    """What ``count`` calls of ``choice`` without replacement give, each sorted."""
    return np.array([np.sort(rng.choice(N, n, replace=False, shuffle=False))
                     for _ in range(count)])


def floyd_events(n, N, seed, count):
    """(repeated draws, replacements set off by a replacement) over ``count``
    rows of Floyd's loop, from the draws ``integers`` makes at ``seed``."""
    draws = make_rng(seed).integers(0, np.arange(N - n + 1, N + 1), size=(count, n))
    repeats = chained = 0
    for row in draws.tolist():
        kept, replaced = set(), set()
        for j, draw in zip(range(N - n, N), row):
            if draw in kept:
                repeats += 1
                chained += draw in replaced
                replaced.add(j)
                draw = j
            kept.add(draw)
    return repeats, chained


class TestSampleActiveIndices:
    def test_full_subset_is_every_index(self):
        actives = sample_active_indices(5, 5, make_rng(0), 3)
        assert actives.dtype == np.int64
        np.testing.assert_array_equal(actives, np.tile(np.arange(5), (3, 1)))

    def test_rejects_out_of_range_sizes(self):
        rng = make_rng(0)
        with pytest.raises(InvalidParameterError):
            sample_active_indices(0, 5, rng, 1)
        with pytest.raises(InvalidParameterError):
            sample_active_indices(6, 5, rng, 1)

    @pytest.mark.parametrize("n, N", [(2.9, 10), (2, 10.5), (2.0, 10), (2, 10.0)])
    def test_rejects_non_integer_sizes(self, n, N):
        # int() would truncate 2.9 of 10.5 to a draw of 2 of 10
        with pytest.raises(InvalidParameterError, match="integer"):
            sample_active_indices(n, N, make_rng(0), 1)

    @pytest.mark.parametrize("count", [0, -1, 2.0])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, count):
        with pytest.raises(InvalidParameterError, match="count"):
            sample_active_indices(2, 10, make_rng(0), count)

    def test_numpy_integer_sizes_give_the_int_draw(self):
        np.testing.assert_array_equal(
            sample_active_indices(np.int32(3), np.uint64(10), make_rng(4), np.int64(2)),
            sample_active_indices(3, 10, make_rng(4), 2))

    def test_single_draw_inclusion_frequency(self):
        reps = 300_000
        counts = np.bincount(sample_active_indices(1, 3, make_rng(2024), reps)[:, 0])
        np.testing.assert_allclose(counts / reps, 1.0 / 3.0, atol=0.005)

    def test_inclusion_probability_matches_n_over_N(self):
        reps = 20_000
        actives = sample_active_indices(5, 20, make_rng(5), reps)
        hits = np.bincount(actives.ravel(), minlength=20)
        np.testing.assert_allclose(hits / reps, 0.25, atol=0.01)

    @given(st.integers(min_value=1, max_value=30), st.data())
    @settings(max_examples=50, deadline=None)
    def test_subset_invariants(self, N, data):
        n = data.draw(st.integers(min_value=1, max_value=N))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        actives = sample_active_indices(n, N, make_rng(seed), 3)
        assert actives.shape == (3, n)
        assert np.all(np.diff(actives, axis=1) > 0)
        assert actives.min() >= 0 and actives.max() < N
        repeat = sample_active_indices(n, N, make_rng(seed), 3)
        np.testing.assert_array_equal(actives, repeat)


# (n, N): n = 1, n = N, large n of a population of at most 10,000, n just
# under N/50 of a larger one (the last of choice's Floyd regime), and
# rows whose draws repeat, with replacements set off by replacements
PATH_GRID = [(1, 1), (1, 3), (2, 3), (3, 3), (1, 1000), (40, 40), (300, 300), (9000, 10000),
             (10000, 10000), (1999, 100_000), (399, 20_000), (10, 100_000), (45, 1000),
             (60, 100)]


class TestSubsetBlockPaths:
    """Both ways of drawing a block of subsets give what one ``choice`` call
    per subset gives, in every row and in the generator's state.  This pins
    the NumPy behaviour that the one-call path relies on: ``integers`` over
    the loop values makes ``choice``'s Floyd draws, in its order."""

    @pytest.mark.parametrize("path", [distributions._floyd_subsets,
                                      distributions._choice_subsets],
                             ids=["floyd", "choice"])
    @pytest.mark.parametrize("n, N", PATH_GRID)
    def test_block_is_one_choice_call_per_subset(self, path, n, N):
        for seed, count in ((0, 1), (1, 2), (2, 5), (3, 13)):
            block_rng, reference_rng = make_rng(seed), make_rng(seed)
            actives = path(n, N, block_rng, count)
            assert actives.dtype == np.int64
            np.testing.assert_array_equal(actives, choice_rows(n, N, reference_rng, count))
            assert block_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("n, N", [(10, 100_000), (1000, 100_000), (2, 3), (60, 100)])
    def test_draw_is_one_choice_call_per_subset_on_either_path(self, n, N):
        block_rng, reference_rng = make_rng(8), make_rng(8)
        np.testing.assert_array_equal(sample_active_indices(n, N, block_rng, 9),
                                      choice_rows(n, N, reference_rng, 9))
        assert block_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_grid_rows_repeat_draws_and_chain_replacements(self):
        # the seeds above put repeats in the rows of the small cases, and
        # replacements that set off further ones at n = 60 of 100
        assert floyd_events(45, 1000, 3, 13)[0] > 0
        repeats, chained = floyd_events(60, 100, 3, 13)
        assert repeats > chained > 0

    def test_size_rule(self):
        pays = distributions._floyd_block_pays
        # the acceptance grid takes the one-call path, n = 1,000 does not
        assert all(pays(n, 100_000) for n in range(10, 201, 10))
        assert not pays(1000, 100_000) and not pays(1000, 1_000_000)
        assert pays(2, 3) and pays(60, 100)
        # never where choice leaves Floyd's algorithm for a shuffle
        for N in (10_001, 12_000, 50_000, 1_000_000):
            assert not any(pays(n, N) for n in range(N // 50 + 1, N // 50 + 500))


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
