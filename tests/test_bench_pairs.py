"""The paired-run summary of ``tools/bench_pairs.py`` on fabricated runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "sweeps_per_s", "better": "higher"}, {"name": "cpu_s", "better": "lower"}]


def run(speed, cpu, *, correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"sweeps_per_s": {"value": speed, "unit": "sweeps/s"},
                        "cpu_s": {"value": cpu, "unit": "s"}}}


def pairs():
    # parent speeds 100..104, change 10 faster except in the tied fourth pair;
    # change CPU lower in pairs 1 and 2 only
    rows = [(100, 110, 1.0, 0.9), (101, 111, 1.0, 0.8), (102, 112, 1.0, 1.0),
            (103, 103, 1.0, 1.1), (104, 114, 1.0, 1.2)]
    return [{"seed": 7 + i, "first": ("parent", "change")[i % 2],
             "parent": run(p_speed, p_cpu), "change": run(c_speed, c_cpu, attempted=12)}
            for i, (p_speed, c_speed, p_cpu, c_cpu) in enumerate(rows)]


def test_counts_wins_in_each_metrics_better_direction():
    part = bench_pairs.summarize(pairs(), END_TO_END)
    assert part["seeds"] == [7, 8, 9, 10, 11]
    assert part["first"] == ["parent", "change", "parent", "change", "parent"]
    assert part["pairs"] == 5
    speed, cpu = part["metrics"]["sweeps_per_s"], part["metrics"]["cpu_s"]
    assert speed["better"] == "higher" and cpu["better"] == "lower"
    # ties count for neither side
    assert speed["change_wins"] == "4 of 5"
    assert cpu["change_wins"] == "2 of 5"
    assert speed["parent_runs"] == [100, 101, 102, 103, 104]
    assert speed["change_runs"] == [110, 111, 112, 103, 114]


def test_medians_quartiles_and_ratio():
    speed = bench_pairs.summarize(pairs(), END_TO_END)["metrics"]["sweeps_per_s"]
    assert speed["parent_quartiles"] == [101.0, 102.0, 103.0]
    assert speed["change_quartiles"] == [110.0, 111.0, 112.0]
    assert speed["parent_median"] == 102.0 and speed["change_median"] == 111.0
    assert speed["change_over_parent"] == pytest.approx(111.0 / 102.0)


def test_operations_are_summed_per_side():
    runs = pairs()
    runs[2]["change"] = run(90, 1.0, correct=False, attempted=12, failed=3)
    part = bench_pairs.summarize(runs, END_TO_END)
    assert part["attempted"] == {"parent": 50, "change": 60}
    assert part["failed"] == {"parent": 0, "change": 3}
    assert part["correct"] == {"parent": 5, "change": 4}
    assert not part["all_correct"]
    assert bench_pairs.summarize(pairs(), END_TO_END)["all_correct"]


PER_LAYER = [{"name": "gibbs.eta_us", "unit": "us", "better": "lower"},
             {"name": "model.kernel_us", "unit": "us", "better": "lower"}]


def traced_run(eta_us, kernel_us, *, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"gibbs.eta_us": {"value": eta_us, "unit": "us"},
                        "model.kernel_us": {"value": kernel_us, "unit": "us"}}}


def test_traced_runs_give_both_values_and_their_ratio():
    traced = {"seed": 12, "parent": traced_run(80.0, 0.0), "change": traced_run(60.0, 0.0)}
    part = bench_pairs.summarize_traced(traced, PER_LAYER)
    assert part["seed"] == 12 and part["all_correct"]
    assert part["attempted"] == {"parent": 4, "change": 4}
    assert part["failed"] == {"parent": 0, "change": 0}
    eta = part["metrics"]["gibbs.eta_us"]
    assert (eta["parent"], eta["change"]) == (80.0, 60.0)
    assert eta["change_over_parent"] == pytest.approx(0.75)
    assert eta["better"] == "lower" and eta["unit"] == "us"
    # a layer the parent never entered has no ratio
    assert part["metrics"]["model.kernel_us"]["change_over_parent"] is None


def test_traced_run_failures_are_reported_per_side():
    traced = {"seed": 3, "parent": traced_run(80.0, 1.0),
              "change": traced_run(60.0, 1.0, correct=False, failed=2)}
    part = bench_pairs.summarize_traced(traced, PER_LAYER)
    assert not part["all_correct"]
    assert part["failed"] == {"parent": 0, "change": 2}
