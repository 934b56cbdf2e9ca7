"""In-memory spans around the program's layer boundaries.

The benchmark never edits the program.  It replaces module attributes
that the program resolves at call time (``subsetgibbs.gibbs.kernel_matrix``
and the like) with timing wrappers for the length of one traced
operation, then puts the originals back.  Every span holds a name, a
start, an end and the index of the span that was open when it began.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

# entries of a kernel matrix at or below this carry no correlation
USEFUL_KERNEL_ENTRY = 1e-12


class SpanRecorder:
    """Append-only span store kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters: dict = {}

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def summarize(self, first: int = 0) -> dict:
        """Total and self seconds and call count per span name.

        Self time is a span's duration minus the durations of its direct
        children; only spans from index ``first`` on are counted, and
        their parents lie in the same range.
        """
        start = np.frombuffer(self.start, dtype=float)[first:]
        end = np.frombuffer(self.end, dtype=float)[first:]
        names = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        duration = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=duration[has_parent],
                                minlength=duration.size)
        self_time = duration - child_sum
        out = {}
        for name_id, name in enumerate(self.names):
            chosen = names == name_id
            if chosen.any():
                out[name] = {"total_s": float(duration[chosen].sum()),
                             "self_s": float(self_time[chosen].sum()),
                             "calls": int(chosen.sum())}
        return out

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _wrap(recorder: SpanRecorder, func, name: str, observe=None):
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(index)
        if observe is not None:
            observe(recorder, args, result)
        return result

    return traced


def _observe_subset_draw(recorder, args, result):
    # the draw builds an index array over the whole population
    recorder.count("subset_draw_bytes", 8 * int(args[1]))


def _observe_kernel(recorder, args, result):
    recorder.count("kernel_entries", result.size)
    useful = np.count_nonzero(result > USEFUL_KERNEL_ENTRY)
    if result.ndim == 2 and result.shape[0] == result.shape[1]:
        useful -= result.shape[0]  # the unit diagonal
    recorder.count("kernel_useful_entries", useful)


def _observe_chain(recorder, args, result):
    recorder.count("jitter_events", result.jitter_events)
    recorder.count("chain_wall_s", result.elapsed_wall_seconds)
    recorder.count("chain_cpu_s", result.elapsed_cpu_seconds)


def install(recorder: SpanRecorder, cli, calibrate, gibbs):
    """Wrap every traced attribute; returns a function that restores them.

    Each entry names the module through which the program resolves the
    callee: ``cmd_fit`` and ``cmd_calibrate`` look up ``read_data_csv``,
    ``run_chain`` and ``run_sweep`` in ``cli``, ``run_sweep`` looks up
    ``run_chain`` in ``calibrate``, and ``run_chain`` looks up the subset
    draw, the kernel and the block updates in ``gibbs``.
    """
    targets = [
        (cli, "read_data_csv", "cli.read", None),
        (cli, "run_chain", "gibbs.run_chain", _observe_chain),
        (cli, "run_sweep", "calibrate.run_sweep", None),
        (calibrate, "run_chain", "gibbs.run_chain", _observe_chain),
        (gibbs, "run_chain", "gibbs.run_chain", _observe_chain),
        (gibbs, "sample_active_indices", "distributions.subset_draw", _observe_subset_draw),
        (gibbs, "kernel_matrix", "model.kernel", _observe_kernel),
        (gibbs, "update_eta_active", "gibbs.eta", None),
        (gibbs, "update_xi_active", "gibbs.xi", None),
        (gibbs, "update_beta", "gibbs.beta", None),
        (gibbs, "update_variances", "gibbs.variances", None),
    ]
    originals = []
    for module, attr, name, observe in targets:
        func = getattr(module, attr)
        originals.append((module, attr, func))
        setattr(module, attr, _wrap(recorder, func, name, observe))

    def restore():
        for module, attr, func in reversed(originals):
            setattr(module, attr, func)

    return restore
