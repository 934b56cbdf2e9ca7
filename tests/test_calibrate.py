"""Budget selection rules, sweep determinism and failure handling."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsetgibbs.calibrate as calibrate
from subsetgibbs import (
    BasisConfig,
    DatasetView,
    InvalidParameterError,
    SamplerConfig,
    SweepPlan,
    pairwise_difference,
    run_sweep,
    select_budget_n,
)


class TestSelectBudgetN:
    def test_exact_budget_hit_wins(self):
        times = [(100, 250.0), (162, 300.0), (175, 331.0)]
        selected, met = select_budget_n(times, 300.0)
        assert selected == 162
        assert met

    def test_all_over_budget_returns_cheapest_flagged(self):
        times = [(10, 400.0), (20, 500.0), (30, 600.0)]
        selected, met = select_budget_n(times, 300.0)
        assert selected == 10
        assert not met

    def test_ties_break_toward_larger_n(self):
        selected, met = select_budget_n([(100, 290.0), (150, 290.0)], 300.0)
        assert selected == 150 and met
        selected, met = select_budget_n([(10, 400.0), (20, 400.0)], 300.0)
        assert selected == 20 and not met

    def test_empty_timings_rejected(self):
        with pytest.raises(InvalidParameterError):
            select_budget_n([], 10.0)

    @pytest.mark.parametrize("budget", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_a_budget_that_is_not_finite_and_positive(self, budget):
        # an infinite budget used to select the largest n as met
        with pytest.raises(InvalidParameterError, match="finite"):
            select_budget_n([(1, 0.5), (2, 0.9)], budget)

    timing_lists = st.lists(
        st.tuples(st.integers(min_value=1, max_value=10**6),
                  st.floats(min_value=0.01, max_value=10_000.0)),
        min_size=1, max_size=12, unique_by=lambda nt: nt[0])

    @given(timing_lists, st.floats(min_value=1.0, max_value=5_000.0), st.data())
    @settings(max_examples=200, deadline=None)
    def test_adding_farther_point_never_changes_feasible_selection(self, times, budget, data):
        selected, met = select_budget_n(times, budget)
        selected_time = dict(times)[selected]
        distance = abs(budget - selected_time)
        extra_n = data.draw(st.integers(min_value=10**6 + 1, max_value=10**7))
        if met:
            # any point farther from the budget loses: farther-under is
            # dominated, over-budget is excluded outright
            offset = data.draw(st.floats(min_value=distance + 0.5, max_value=distance + 500.0))
            side = data.draw(st.booleans())
            extra_time = budget + offset if side else max(budget - offset, 0.001)
            assert select_budget_n(times + [(extra_n, extra_time)], budget)[0] == selected
        else:
            # nothing fits: only a cheaper point can displace the choice
            extra_time = selected_time + data.draw(
                st.floats(min_value=0.5, max_value=500.0))
            assert select_budget_n(times + [(extra_n, extra_time)], budget)[0] == selected


class TestPairwiseDifference:
    def test_identical_vectors(self):
        vec = np.array([1.0, 2.0, 3.0])
        assert pairwise_difference(vec, vec.copy()) == 0.0

    def test_hand_computed(self):
        assert pairwise_difference(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=50), rng.normal(size=50)
        brute = sum((x - y) ** 2 for x, y in zip(a, b))
        assert pairwise_difference(a, b) == pytest.approx(brute, rel=1e-12)

    # squared differences underflow below ~1e-154, so zero-iff-equal is
    # asserted over magnitudes where the square is representable
    moderate_floats = st.floats(min_value=-1e6, max_value=1e6).map(
        lambda v: round(v, 3))

    @given(st.lists(moderate_floats, min_size=1, max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_zero_iff_equal(self, values, data):
        a = np.array(values)
        b = np.array(data.draw(st.lists(
            self.moderate_floats, min_size=len(values), max_size=len(values))))
        assert pairwise_difference(a, b) == pairwise_difference(b, a)
        assert pairwise_difference(a, a.copy()) == 0.0
        if pairwise_difference(a, b) == 0.0:
            np.testing.assert_array_equal(a, b)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            pairwise_difference(np.zeros(2), np.zeros(3))


def sweep_inputs(N=400, seed=0, coords=None):
    rng = np.random.default_rng(seed)
    data = DatasetView(y=rng.normal(size=N), x=np.ones((N, 1)),
                       index_coords=np.arange(N, dtype=float) if coords is None else coords)
    config = SamplerConfig(iterations=80, burn_in=20,
                           prediction_set=np.arange(0, N, N // 25),
                           basis=BasisConfig(rho=0.3), seed=42)
    return data, config


class TestSweepPlan:
    def test_rejects_bad_grids(self):
        with pytest.raises(InvalidParameterError):
            SweepPlan(n_grid=(), budget_seconds=10.0)
        with pytest.raises(InvalidParameterError):
            SweepPlan(n_grid=(5, 5), budget_seconds=10.0)
        with pytest.raises(InvalidParameterError):
            SweepPlan(n_grid=(5, 4), budget_seconds=10.0)
        with pytest.raises(InvalidParameterError):
            SweepPlan(n_grid=(5,), budget_seconds=0.0)

    @pytest.mark.parametrize("budget", [np.inf, -np.inf, np.nan])
    def test_rejects_a_budget_that_is_not_finite(self, budget):
        # an infinite budget used to construct, and only the CLI rejected it
        with pytest.raises(InvalidParameterError, match="finite"):
            SweepPlan(n_grid=(1, 2), budget_seconds=budget)

    @pytest.mark.parametrize("fields", [dict(n_grid=(2.5, 4.9)), dict(n_grid=(2.0, 4)),
                                        dict(n_grid=(2, 4), max_parallel=2.5)])
    def test_rejects_non_integer_sizes_and_workers(self, fields):
        # int() would turn the grid (2.5, 4.9) into (2, 4)
        with pytest.raises(InvalidParameterError, match="integer"):
            SweepPlan(budget_seconds=10.0, **fields)

    def test_numpy_integer_grid_becomes_ints(self):
        plan = SweepPlan(n_grid=np.array([2, 4]), budget_seconds=10.0,
                         max_parallel=np.int64(2))
        assert plan.n_grid == (2, 4) and all(type(n) is int for n in plan.n_grid)


class TestRunSweep:
    def test_singleton_grid(self):
        data, config = sweep_inputs()
        report = run_sweep(data, config, SweepPlan(n_grid=(7,), budget_seconds=60.0))
        assert report.selected_n == 7
        assert report.pairwise_diffs == []
        assert report.budget_met

    # on permuted coordinates every chain maps its subsets through the
    # dataset's coord_order, which the pool's workers get by pickling
    @pytest.mark.parametrize("coords", [None, np.random.default_rng(5).permutation(400) * 0.5],
                             ids=["sorted", "unsorted"])
    def test_parallelism_does_not_change_numbers(self, coords):
        data, config = sweep_inputs(coords=coords)
        plan_serial = SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0, max_parallel=1)
        plan_pool = SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0, max_parallel=3)
        serial = run_sweep(data, config, plan_serial)
        pooled = run_sweep(data, config, plan_pool)
        for (n_a, out_a), (n_b, out_b) in zip(serial.per_n, pooled.per_n):
            assert n_a == n_b
            np.testing.assert_array_equal(out_a.mu_hat, out_b.mu_hat)
            np.testing.assert_array_equal(out_a.mu_var, out_b.mu_var)
        np.testing.assert_array_equal(
            [d for _, d in serial.pairwise_diffs],
            [d for _, d in pooled.pairwise_diffs])

    def test_grid_beyond_dataset_is_rejected(self):
        data, config = sweep_inputs(N=50)
        with pytest.raises(InvalidParameterError):
            run_sweep(data, config, SweepPlan(n_grid=(10, 60), budget_seconds=5.0))

    def test_chain_failures_recorded_and_sweep_continues(self, monkeypatch):
        data, config = sweep_inputs()
        real_run_chain = calibrate.run_chain

        def failing(data_, config_, n, **kwargs):
            if n == 10:
                raise InvalidParameterError("synthetic failure")
            return real_run_chain(data_, config_, n, **kwargs)

        monkeypatch.setattr(calibrate, "run_chain", failing)
        report = run_sweep(data, config,
                           SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0))
        assert [n for n, _ in report.failures] == [10]
        assert [n for n, _ in report.per_n] == [5, 15]
        assert all(np.isnan(d) for _, d in report.pairwise_diffs)

    @pytest.mark.parametrize("max_parallel", [1, 2])
    def test_non_numerical_failure_keeps_other_points(self, monkeypatch, max_parallel):
        # any exception from one chain, in the serial loop or in a pool
        # worker, is recorded for its grid point; the other chains survive
        if max_parallel > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched chain only when forked")
        data, config = sweep_inputs()
        real_run_chain = calibrate.run_chain

        def failing(data_, config_, n, **kwargs):
            if n == 10:
                raise ValueError("synthetic non-numerical failure")
            return real_run_chain(data_, config_, n, **kwargs)

        monkeypatch.setattr(calibrate, "run_chain", failing)
        plan = SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0, max_parallel=max_parallel)
        report = run_sweep(data, config, plan)
        assert report.failures == [(10, "ValueError: synthetic non-numerical failure")]
        assert [n for n, _ in report.per_n] == [5, 15]
        assert report.selected_n in (5, 15)
        clean = run_sweep(data, config, SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0))
        for n, out in report.per_n:
            np.testing.assert_array_equal(out.mu_hat, clean.output_for(n).mu_hat)

    @staticmethod
    def record_pools(monkeypatch):
        # the worker count of every pool run_sweep creates, in order
        seen = []

        class RecordingPool(calibrate.concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(calibrate.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return seen

    def pool_sizes(self, monkeypatch):
        seen = self.record_pools(monkeypatch)
        data, config = sweep_inputs()
        run_sweep(data, config, SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0,
                                          max_parallel=8))
        return seen

    def test_worker_count_clamped_to_cores(self, monkeypatch):
        # the CPUs the process may use, not the machine's count: under
        # taskset -c 0,1 on a larger machine only two chains run at once
        monkeypatch.setattr(calibrate.os, "cpu_count", lambda: 16)
        monkeypatch.setattr(calibrate.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert self.pool_sizes(monkeypatch) == [2]

    def test_worker_count_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(calibrate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(calibrate.os, "cpu_count", lambda: 2)
        assert self.pool_sizes(monkeypatch) == [2]

    def test_fake_clock_controls_selection(self, monkeypatch, scripted_timings):
        # the scripted timings reach the selection through a process pool
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched chain only when forked")
        monkeypatch.setattr(calibrate.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        pools = self.record_pools(monkeypatch)
        scripted_timings({5: 250.0, 10: 300.0, 15: 331.0})
        data, config = sweep_inputs()
        plan = SweepPlan(n_grid=(5, 10, 15), budget_seconds=300.0, max_parallel=4)
        report = run_sweep(data, config, plan)
        assert pools == [3]
        assert report.selected_n == 10
        assert report.budget_met
        assert report.output_for(10).elapsed_wall_seconds == 300.0

    def test_cpu_time_selection_flag(self, scripted_timings):
        # by wall time nothing fits the budget; by CPU time n = 10 does
        scripted_timings(wall={5: 1000.0, 10: 1000.0}, cpu={5: 100.0, 10: 40.0})
        data, config = sweep_inputs()
        plan = SweepPlan(n_grid=(5, 10), budget_seconds=50.0)
        report = run_sweep(data, config, plan, use_cpu_time=True)
        assert report.selected_n == 10
        assert report.budget_met
