"""Budget selection rules, sweep determinism and report serialization."""

import csv
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsetgibbs.calibrate as calibrate
from subsetgibbs import (
    BasisConfig,
    Clock,
    DatasetView,
    InvalidParameterError,
    SamplerConfig,
    SweepPlan,
    pairwise_difference,
    run_sweep,
    select_budget_n,
    write_report_csv,
    write_summary_json,
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


def sweep_inputs(N=400, seed=0):
    rng = np.random.default_rng(seed)
    data = DatasetView(y=rng.normal(size=N), x=np.ones((N, 1)),
                       index_coords=np.arange(N, dtype=float))
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


class TestRunSweep:
    def test_singleton_grid(self):
        data, config = sweep_inputs()
        report = run_sweep(data, config, SweepPlan(n_grid=(7,), budget_seconds=60.0))
        assert report.selected_n == 7
        assert report.pairwise_diffs == []
        assert report.budget_met

    def test_parallelism_does_not_change_numbers(self):
        data, config = sweep_inputs()
        plan_serial = SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0, max_parallel=1)
        plan_pool = SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0, max_parallel=3)
        serial = run_sweep(data, config, plan_serial)
        pooled = run_sweep(data, config, plan_pool)
        for (n_a, out_a), (n_b, out_b) in zip(serial.per_n, pooled.per_n):
            assert n_a == n_b
            np.testing.assert_array_equal(out_a.mu_hat, out_b.mu_hat)
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

    def test_worker_count_clamped_to_cores(self, monkeypatch):
        seen = []

        class RecordingPool(calibrate.concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(calibrate.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(calibrate.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        data, config = sweep_inputs()
        run_sweep(data, config, SweepPlan(n_grid=(5, 10, 15), budget_seconds=60.0,
                                          max_parallel=8))
        assert seen == [2]

    def test_fake_clock_controls_selection(self):
        data, config = sweep_inputs()
        scripted = {5: 250.0, 10: 300.0, 15: 331.0}

        def clock_factory(n):
            ticker = iter([0.0, scripted[n]])
            return Clock(wall=lambda: next(ticker), cpu=lambda: 0.0)

        plan = SweepPlan(n_grid=(5, 10, 15), budget_seconds=300.0, max_parallel=4)
        report = run_sweep(data, config, plan, clock_factory=clock_factory)
        assert report.selected_n == 10
        assert report.budget_met
        assert report.output_for(10).elapsed_wall_seconds == 300.0

    def test_cpu_time_selection_flag(self, tmp_path):
        data, config = sweep_inputs()

        def clock_factory(n):
            wall = iter([0.0, 1000.0])
            cpu = iter([0.0, {5: 100.0, 10: 40.0}[n]])
            return Clock(wall=lambda: next(wall), cpu=lambda: next(cpu))

        plan = SweepPlan(n_grid=(5, 10), budget_seconds=50.0)
        report = run_sweep(data, config, plan, use_cpu_time=True,
                           clock_factory=clock_factory)
        assert report.selected_n == 10
        assert report.used_cpu_time
        write_summary_json(report, tmp_path / "summary.json")
        assert json.loads((tmp_path / "summary.json").read_text())["used_cpu_time"] is True


class TestReportSerialization:
    def test_csv_and_summary_round_trip(self, tmp_path):
        data, config = sweep_inputs()
        scripted = {5: 10.0, 10: 20.0, 15: 45.0}

        def clock_factory(n):
            ticker = iter([0.0, scripted[n]])
            return Clock(wall=lambda: next(ticker), cpu=lambda: 0.0)

        report = run_sweep(data, config,
                           SweepPlan(n_grid=(5, 10, 15), budget_seconds=30.0),
                           clock_factory=clock_factory)
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "summary.json"
        write_report_csv(report, csv_path)
        write_summary_json(report, json_path)

        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "wall_seconds", "cpu_seconds", "diff_to_next"]
        assert len(rows) == 4
        assert rows[1][0] == "5" and float(rows[1][1]) == 10.0
        assert rows[3][3] == ""  # last row has no next neighbor
        diffs = dict(report.pairwise_diffs)
        assert float(rows[1][3]) == diffs[5]

        summary = json.loads(json_path.read_text())
        assert summary["selected_n"] == 10
        assert summary["budget_met"] is True
        assert summary["grid"] == "5,10,15"
        assert summary["used_cpu_time"] is False
