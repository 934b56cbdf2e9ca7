"""Benchmark of the subsetgibbs program: one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs are made from ``--seed`` before anything is timed.  A worker
process (``worker.py``) imports the program from ``src/``, runs one
warm-up operation and then whole operations for ``--seconds`` seconds.
This process checks every operation's output and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before the result
holds the machine context.  End-to-end times are scaled by the speed
probe the worker takes around every operation (see ``_slowness``).
Everything the run writes stays under ``perfbench/work`` (removed at the
end) and ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# the whole invocation must end within this many seconds
RUN_LIMIT_S = 170.0
# seconds the worker's speed probe parts (interpreter loop, small array
# calls) take on the reference machine; times are reported at this speed
PROBE_REFERENCE_S = (0.1, 0.1)
# the share of an operation's time taken to follow the probe; the rest is
# taken to keep its pace when the probe speeds up or slows down
PROBE_SHARE = 0.5


def _median(values):
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _remove_stale_work() -> None:
    """Delete work directories left by runs that were killed."""
    for path in (BENCH / "work").glob("*-*"):
        try:
            os.kill(int(path.name.rsplit("-", 1)[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def _spawn_worker(spec_path: Path, result_path: Path, log_path: Path, deadline: float):
    """Run the worker to completion; returns (exit status, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss / 1024.0
            if time.perf_counter() > deadline:
                raise TimeoutError("worker ran past the run's time limit")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def _slowness(probes: list, index: int) -> float:
    """How much slower than the reference an operation ran between
    probes ``index`` and ``index + 1``.

    The probe's own slowness is the mean over both probes and both probe
    parts of measured / reference time.  An operation slows less than the
    probe: its BLAS calls and memory traffic keep their pace when the
    interpreter's slows.  Measured over runs of each workload, the share
    of operation time that followed the probe lay between about 0.25
    (BLAS-bound) and 1 (interpreter-bound); ``PROBE_SHARE`` is used for
    all.
    """
    ratios = [part / reference
              for probe in probes[index:index + 2]
              for part, reference in zip(probe, PROBE_REFERENCE_S)]
    return PROBE_SHARE * sum(ratios) / len(ratios) + 1.0 - PROBE_SHARE


def _scale_to_reference(ops, result: dict) -> list:
    """Adds to each operation its probe-scaled timings; returns every
    load time scaled the same way.

    The virtual machine's speed changes by up to 2x for minutes at a
    time, with no steal time to show it, and CPU time slows with it.
    Dividing each time by the slowness measured on both sides of it
    reports it near the reference speed, so runs made at different
    moments compare.
    """
    probes = result["probes"]
    setup = _slowness(probes, 0)
    reads = [t / setup for t in result["setup_reads"]]
    for index, op in enumerate(ops):
        slow = _slowness(probes, index + 1)
        op["slowness"] = slow
        op["scaled_wall_s"] = op["work_wall_s"] / slow
        op["scaled_cpu_s"] = op["work_cpu_s"] / slow
        reads += [t / slow for t in op["reads"]]
    return reads


def _end_to_end(ops, reads, peak_rss_mb: float) -> dict:
    done = [op for op in ops if op["ok"]]
    return {
        "setup_s": (_median(reads), "s"),
        "sweeps_per_s": (_median(op["sweeps"] / op["scaled_wall_s"] for op in done), "sweeps/s"),
        "cpu_s": (_median(op["scaled_cpu_s"] for op in done), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(ops, result: dict) -> dict:
    done = [op for op in ops if op["ok"]]
    traced = [op for op in done if op["traced"]]
    untraced = [op for op in done if not op["traced"]]
    sweeps = sum(op["sweeps"] for op in traced) or 1

    def total(name, key="total_s"):
        return sum(op["spans"].get(name, {}).get(key, 0.0) for op in traced)

    def counter(name):
        return sum(op["counters"].get(name, 0.0) for op in traced)

    def self_per_op(name):
        return _median(op["spans"].get(name, {}).get("self_s", 0.0) for op in traced)

    swept = any("calibrate.run_sweep" in op["spans"] for op in traced)

    def sweep_counter_per_op(name):
        # the chain timings run_sweep hands to selection, summed per command
        return _median(op["counters"].get(name, 0.0) for op in traced) if swept else 0.0

    def speed(group):
        return _median(op["sweeps"] / op["scaled_wall_s"] for op in group)

    entries = counter("kernel_entries")
    return {
        "distributions.subset_draw_us": (1e6 * total("distributions.subset_draw") / sweeps, "us"),
        "distributions.subset_draw_bytes": (counter("subset_draw_bytes") / sweeps, "B"),
        "model.kernel_us": (1e6 * total("model.kernel") / sweeps, "us"),
        "model.kernel_entries": (entries / sweeps, "count"),
        "model.kernel_useful_frac": (counter("kernel_useful_entries") / entries if entries else 0.0,
                                     "ratio"),
        "gibbs.eta_us": (1e6 * total("gibbs.eta") / sweeps, "us"),
        "gibbs.xi_us": (1e6 * total("gibbs.xi") / sweeps, "us"),
        "gibbs.beta_us": (1e6 * total("gibbs.beta") / sweeps, "us"),
        "gibbs.variances_us": (1e6 * total("gibbs.variances") / sweeps, "us"),
        "gibbs.chain_self_us": (1e6 * total("gibbs.run_chain", "self_s") / sweeps, "us"),
        "gibbs.jitter_events": (counter("jitter_events") / max(len(traced), 1), "count"),
        "calibrate.chain_wall_sum_s": (sweep_counter_per_op("chain_wall_s"), "s"),
        "calibrate.chain_cpu_sum_s": (sweep_counter_per_op("chain_cpu_s"), "s"),
        "calibrate.sweep_self_s": (self_per_op("calibrate.run_sweep"), "s"),
        "cli.read_s": (_median(result["read_s"]), "s"),
        "cli.read_rss_mb": (result["first_read_rss_mb"] or 0.0, "MB"),
        "cli.write_s": (self_per_op("cli.command"), "s"),
        "trace.overhead_frac": (1.0 - speed(traced) / speed(untraced) if traced and untraced
                                else 0.0, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "subsetgibbs" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    _remove_stale_work()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "work" / f"{tag}-{os.getpid()}"
    results = BENCH / "results"
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        built = workloads.build(args.workload, args.seed, work)
        spec = dict(built["spec"], src=str(ROOT / "src"), seconds=args.seconds,
                    trace=bool(args.trace), out_root=str(work / "ops"),
                    spans_path=str(results / f"{args.workload}.spans.npz"))
        spec_path, result_path, log_path = work / "spec.json", work / "result.json", work / "worker.log"
        spec_path.write_text(json.dumps(spec))
        status, peak_rss_mb = _spawn_worker(spec_path, result_path, log_path,
                                            started + RUN_LIMIT_S)
        if status != 0:
            print(f"error: worker exited with {status}:\n{log_path.read_text()[-4000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())

        check = workloads.CHECKS[spec["kind"]]
        state = {"y": built["y"], "truth": built["truth"]}
        errors = []
        for op in result["operations"]:
            if op["ok"]:
                errors += [f"seed {op['seed']}: {e}"
                           for e in check(args.workload, state, Path(op["out"]))]
            else:
                print(f"operation with seed {op['seed']} failed: {op['error']}", file=sys.stderr)
        for error in errors:
            print(f"check failed: {error}", file=sys.stderr)

        ops = result["operations"]
        reads = _scale_to_reference(ops, result)
        metrics = _per_layer(ops, result) if args.trace else _end_to_end(ops, reads, peak_rss_mb)
        summary = {
            "correct": not errors,
            "attempted": len(ops),
            "failed": sum(1 for op in ops if not op["ok"]),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        for op in ops:
            op.pop("out")
        record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, context=result["context"], operations=ops,
                      probes=result["probes"], setup_reads=result["setup_reads"],
                      checks={k: v for k, v in state.items() if k not in ("y", "truth")},
                      wall_s=time.perf_counter() - started)
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps({"context": result["context"]}))
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
