"""Runs one workload's operations in a process of its own.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

The spec, written by ``run.py``, names the source tree to import, the
operation template, the measuring time and whether to trace.  The worker
runs one untimed warm-up operation on a small input, loads the
workload's data repeatedly for the set-up time, then runs whole
operations until the measuring time is spent, and writes one record per
operation, every load time, the speed probes and the machine context to
RESULT_JSON.  The speed probe (``speed_probe``) runs before and after
the set-up and after every operation, so each timing has a measure of
the machine's speed on both sides of it.  In a traced run the
operations alternate traced and untraced, so the two speeds can be
compared within one process; the first one is traced, so a run that has
time for only one still reports every layer.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

# no operation starts that would end later than this after set-up, judged
# by the longest so far, so a run on a slowed machine still ends in time
HARD_STOP_S = 100.0
# the data is loaded repeatedly until this long has passed, at least once
SETUP_PHASE_S = 1.0
# the speed probe: an interpreter loop of this many steps, then this many
# rounds of small NumPy and SciPy calls; each part takes about 0.1 s on
# the reference machine (see run.py)
PROBE_LOOP_STEPS = 1_000_000
PROBE_ROUNDS = 3000
PROBE_MATRIX = ((2.0, 0.5, 0.1), (0.5, 2.0, 0.5), (0.1, 0.5, 2.0))


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import subsetgibbs
    from subsetgibbs import calibrate, cli, gibbs

    loaded = Path(subsetgibbs.__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise ImportError(f"subsetgibbs was imported from {loaded}, not from {src}")
    return cli, calibrate, gibbs


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_seconds() -> float:
    # all threads of this process plus every child it has waited for
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def _blas_functions(lib):
    """The thread-count and configuration getters an OpenBLAS build exports."""
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                return (getattr(lib, f"{prefix}get_num_threads{suffix}"),
                        getattr(lib, f"{prefix}get_config{suffix}"))
            except AttributeError:
                continue
    return None


def blas_context() -> list:
    """Library, version and thread count of every OpenBLAS in the process."""
    paths = set()
    with open("/proc/self/maps") as handle:
        for line in handle:
            if "openblas" in line.lower():
                paths.add(line.split()[-1])
    found = []
    for path in sorted(paths):
        functions = _blas_functions(ctypes.CDLL(path))
        if functions is None:
            continue
        threads, config = functions
        threads.argtypes, threads.restype = [], ctypes.c_int
        config.argtypes, config.restype = [], ctypes.c_char_p
        found.append({"library": Path(path).name, "config": config().decode(),
                      "threads": threads()})
    return found


def machine_context() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_context(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class ReadTimer:
    """Times every ``read_data_csv`` call the program makes."""

    def __init__(self, func):
        self.func = func
        self.wall = 0.0
        self.cpu = 0.0
        self.durations: list = []
        self.first_read_rss_mb = None

    def __call__(self, *args, **kwargs):
        first = self.first_read_rss_mb is None
        rss_before = _current_rss_mb() if first else 0.0
        cpu = _cpu_seconds()
        wall = time.perf_counter()
        try:
            return self.func(*args, **kwargs)
        finally:
            wall = time.perf_counter() - wall
            self.durations.append(wall)
            self.wall += wall
            self.cpu += _cpu_seconds() - cpu
            if first:
                self.first_read_rss_mb = max(0.0, _peak_rss_mb() - rss_before)


def speed_probe() -> list:
    """Seconds taken by a fixed interpreter loop and by fixed rounds of
    small array calls, the two kinds of work most of a sweep is made of.

    Neither part calls the program, so the times move only with the
    machine's speed, which on a shared virtual machine changes by up to
    2x for minutes at a time.  A third part that filled fresh 8 MB
    arrays was tried and left out: it did not follow the operations.
    """
    import scipy.linalg

    started = time.perf_counter()
    total = 0
    for step in range(PROBE_LOOP_STEPS):
        total += step * step % 7
    looped = time.perf_counter()
    rng = np.random.default_rng(0)
    matrix = np.array(PROBE_MATRIX)
    for _ in range(PROBE_ROUNDS):
        draw = rng.standard_normal(3)
        factor = np.linalg.cholesky(matrix)
        solved = scipy.linalg.solve_triangular(factor, draw, lower=True)
        total += float(solved @ draw) > 0.0
    return [looped - started, time.perf_counter() - looped]


def _fill(template, values: dict):
    return [str(part).format(**values) for part in template]


def _run_operation(spec: dict, modules, values: dict):
    """One command or chain; returns (ok, error text, sweeps completed)."""
    cli, _, gibbs = modules
    if spec["kind"] == "chain":
        from subsetgibbs.model import BasisConfig, FixedVariances, SamplerConfig

        chain = spec["chain"]
        data = cli.read_data_csv(values["data"])
        config = SamplerConfig(
            iterations=values["iterations"], burn_in=values["burn_in"],
            prediction_set=np.array(chain["prediction_set"]),
            basis=BasisConfig(rho=chain["rho"]), seed=values["seed"],
            fixed_variances=FixedVariances.all_of(*chain["fixed_variances"]),
            prediction_refresh=chain["prediction_refresh"])
        out = gibbs.run_chain(data, config, chain["n"], collect_trace=True)
        out_dir = Path(values["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        np.save(out_dir / "beta.npy", out.trace[:, 0])
        return True, "", values["iterations"]
    code = cli.main(_fill(spec["argv"], values))
    if code != 0:
        return False, f"exit code {code}", 0
    return True, "", values["iterations"] * spec["chains_per_op"]


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    modules = _import_program(Path(spec["src"]))
    cli, calibrate, gibbs = modules
    import tracing

    read_timer = ReadTimer(cli.read_data_csv)
    cli.read_data_csv = read_timer

    warm = spec["warmup"]
    ok, error, _ = _run_operation(spec, modules, warm)
    if not ok:
        raise RuntimeError(f"warm-up operation failed: {error}")
    read_timer.first_read_rss_mb = None
    read_timer.durations = []
    probes = [speed_probe()]

    # set-up: load the workload's data as every command does
    setup_started = time.perf_counter()
    while not read_timer.durations or time.perf_counter() - setup_started < SETUP_PHASE_S:
        cli.read_data_csv(spec["values"]["data"])
    setup_reads = list(read_timer.durations)
    probes.append(speed_probe())

    recorder = tracing.SpanRecorder()
    operations = []
    started = time.perf_counter()
    while True:
        index = len(operations)
        traced = spec["trace"] and index % 2 == 0
        values = dict(spec["values"], seed=spec["seeds"][index],
                      out=str(Path(spec["out_root"]) / f"op{index}"))
        read_wall, read_cpu = read_timer.wall, read_timer.cpu
        first_read = len(read_timer.durations)
        first_span = len(recorder)
        recorder.counters = {}
        restore = tracing.install(recorder, cli, calibrate, gibbs) if traced else None
        op_span = recorder.open("cli.command") if traced else None
        cpu = _cpu_seconds()
        wall = time.perf_counter()
        try:
            ok, error, sweeps = _run_operation(spec, modules, values)
        except Exception as exc:  # an operation that raises counts as failed
            ok, error, sweeps = False, f"{type(exc).__name__}: {exc}", 0
        finally:
            wall = time.perf_counter() - wall
            cpu = _cpu_seconds() - cpu
            if traced:
                recorder.close(op_span)
                restore()
        probes.append(speed_probe())
        read_s = read_timer.wall - read_wall
        record = {
            "seed": values["seed"], "out": values["out"], "ok": ok, "error": error,
            "traced": traced, "sweeps": sweeps, "read_s": read_s,
            "reads": read_timer.durations[first_read:],
            "work_wall_s": wall - read_s, "work_cpu_s": cpu - (read_timer.cpu - read_cpu),
        }
        if traced:
            record["spans"] = recorder.summarize(first_span)
            record["counters"] = dict(recorder.counters)
        operations.append(record)
        elapsed = time.perf_counter() - started
        longest = max(op["work_wall_s"] + op["read_s"] for op in operations)
        if elapsed + longest >= HARD_STOP_S or len(operations) >= len(spec["seeds"]):
            break
        if elapsed >= spec["seconds"] and len(operations) >= (2 if spec["trace"] else 1):
            break

    if spec["trace"] and len(recorder):
        recorder.write(Path(spec["spans_path"]))
    result = {
        "context": machine_context(),
        "operations": operations,
        "first_read_rss_mb": read_timer.first_read_rss_mb,
        "read_s": read_timer.durations,
        "setup_reads": setup_reads,
        # probes[0] and probes[1] bracket the set-up, probes[i + 1] and
        # probes[i + 2] bracket operation i
        "probes": probes,
    }
    Path(result_path).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
