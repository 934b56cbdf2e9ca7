"""Subset-size sweep, wall-clock budget selection and the elbow diagnostic.

A sweep runs one chain per grid point with per-point seeds derived from
the master seed by grid index, so the numeric results are identical no
matter how many workers execute the grid.  Selection picks the grid
point whose measured time lands closest to the budget without exceeding
it; when nothing fits, the cheapest point is returned and the report is
flagged.  The squared distance between consecutive prediction vectors is
reported as a diminishing-returns diagnostic; no changepoint detection is
applied to it.  The sweep returns a ``CalibrationReport`` and writes no
file; ``cli`` serializes it.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .distributions import spawn_seed
from .errors import InvalidParameterError, NumericalError, _checked_int, _checked_positive
from .gibbs import ChainOutput, run_chain
from .model import DatasetView, SamplerConfig

__all__ = [
    "SweepPlan",
    "CalibrationReport",
    "pairwise_difference",
    "select_budget_n",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepPlan:
    """Grid of subset sizes, the time budget and the worker bound."""

    n_grid: Tuple[int, ...]
    budget_seconds: float
    max_parallel: int = 1

    def __post_init__(self):
        grid = tuple(_checked_int(v, "n_grid entry") for v in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if len(grid) == 0:
            raise InvalidParameterError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise InvalidParameterError("n_grid must be strictly increasing and >= 1")
        _checked_positive(self.budget_seconds, "budget_seconds")
        _checked_int(self.max_parallel, "max_parallel", low=1)


@dataclass
class CalibrationReport:
    """Everything the sweep learned, in grid order.

    ``per_n`` holds one (n, ChainOutput) pair per completed grid point;
    failed points appear in ``failures`` instead.  ``pairwise_diffs`` has
    one entry per consecutive grid pair, NaN when either side failed.
    """

    per_n: List[Tuple[int, ChainOutput]]
    selected_n: int
    pairwise_diffs: List[Tuple[int, float]]
    budget_met: bool
    failures: List[Tuple[int, str]]

    def output_for(self, n: int) -> ChainOutput:
        for grid_n, out in self.per_n:
            if grid_n == n:
                return out
        raise KeyError(f"no completed chain for n={n}")


def pairwise_difference(mu_a: np.ndarray, mu_b: np.ndarray) -> float:
    """Squared Euclidean distance between two prediction vectors."""
    a = np.asarray(mu_a, dtype=float)
    b = np.asarray(mu_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidParameterError(f"vectors must share a 1-d shape, got {a.shape} vs {b.shape}")
    diff = a - b
    return float(diff @ diff)


def select_budget_n(timings: Sequence[Tuple[int, float]], budget_seconds: float) -> Tuple[int, bool]:
    """Pick the subset size whose time is closest to the budget from below.

    Among grid points with measured time <= budget, the one closest to
    the budget wins, ties going to the larger n.  When every point
    exceeds the budget the cheapest one is returned with ``met=False``
    (ties again toward larger n).

    Returns
    -------
    (selected_n, met)
    """
    _checked_positive(budget_seconds, "budget_seconds")
    entries = [(int(n), float(t)) for n, t in timings]
    if not entries:
        raise InvalidParameterError("no timings supplied")
    feasible = [(n, t) for n, t in entries if t <= budget_seconds]
    if feasible:
        selected = max(feasible, key=lambda nt: (-(budget_seconds - nt[1]), nt[0]))
        return selected[0], True
    selected = max(entries, key=lambda nt: (-nt[1], nt[0]))
    return selected[0], False


def _run_sweep_task(args) -> ChainOutput:
    # module-level so ProcessPoolExecutor can pickle it
    data, config, n = args
    return run_chain(data, config, n)


def _describe_failure(exc: Exception) -> str:
    # the package's own errors explain themselves; others get their type
    if isinstance(exc, (NumericalError, InvalidParameterError)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _usable_cpus() -> int:
    # the process's CPU affinity where the platform reports it: two chains
    # on one allowed CPU would inflate the chain times that select n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(data: DatasetView, config: SamplerConfig, plan: SweepPlan,
              *, use_cpu_time: bool = False) -> CalibrationReport:
    """Run one chain per grid point and assemble the calibration report.

    The chain for grid index i uses seed ``spawn_seed(config.seed, i)``,
    so the predictions and diagnostics are bit-identical at any worker
    count.  Chains run in separate processes when ``plan.max_parallel``
    and the number of CPUs the process may run on both exceed 1 (the
    worker count is clamped to that number).  Any exception from a chain,
    a dead worker included, is recorded per grid point and the sweep
    continues.

    Selection uses wall time unless ``use_cpu_time`` is set.
    """
    if plan.n_grid[-1] > data.n_obs:
        raise InvalidParameterError(
            f"largest grid point {plan.n_grid[-1]} exceeds the dataset size {data.n_obs}"
        )
    configs = {
        n: replace(config, seed=spawn_seed(config.seed, i))
        for i, n in enumerate(plan.n_grid)
    }
    results: Dict[int, ChainOutput] = {}
    failures: List[Tuple[int, str]] = []

    workers = min(plan.max_parallel, len(plan.n_grid), _usable_cpus())
    if workers == 1:
        for n in plan.n_grid:
            try:
                results[n] = run_chain(data, configs[n], n)
            except Exception as exc:  # one grid point's failure must not lose the rest
                failures.append((n, _describe_failure(exc)))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_sweep_task, (data, configs[n], n)): n
                for n in plan.n_grid
            }
            for future in concurrent.futures.as_completed(futures):
                n = futures[future]
                try:
                    results[n] = future.result()
                except Exception as exc:  # BrokenProcessPool and MemoryError included
                    failures.append((n, _describe_failure(exc)))
    failures.sort(key=lambda pair: pair[0])

    per_n = [(n, results[n]) for n in plan.n_grid if n in results]
    if not per_n:
        raise NumericalError(
            "every grid point failed: " + "; ".join(f"n={n}: {msg}" for n, msg in failures)
        )

    diffs: List[Tuple[int, float]] = []
    for n_lo, n_hi in zip(plan.n_grid, plan.n_grid[1:]):
        if n_lo in results and n_hi in results:
            value = pairwise_difference(results[n_lo].mu_hat, results[n_hi].mu_hat)
        else:
            value = float("nan")
        diffs.append((n_lo, value))

    if use_cpu_time:
        timings = [(n, out.elapsed_cpu_seconds) for n, out in per_n]
    else:
        timings = [(n, out.elapsed_wall_seconds) for n, out in per_n]
    selected_n, met = select_budget_n(timings, plan.budget_seconds)
    return CalibrationReport(
        per_n=per_n,
        selected_n=selected_n,
        pairwise_diffs=diffs,
        budget_met=met,
        failures=failures,
    )

