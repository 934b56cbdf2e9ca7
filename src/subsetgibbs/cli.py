"""Command-line surface: simulate, fit, calibrate, score.

Every command validates its inputs before touching the filesystem,
writes a ``manifest.json`` describing the run (sufficient to reproduce it
bit-for-bit), and exits with 0 on success, 2 on flag or validation
errors, 3 on numerical failures, 4 on I/O failures.

File formats
------------
data.csv         index,y[,x1..xp][,coord]   (1-based contiguous index;
                 missing covariates mean a lone intercept, missing coord
                 defaults to the index)
truth.csv        index,mu
predictions.csv  index,mu_hat,var_hat   (fit; calibrate writes one
                 predictions_n{n}.csv per completed grid point)
report.csv       n,wall_seconds,cpu_seconds,diff_to_next
trace.csv        iteration,beta_1..beta_p,sigma2,sigma2_eta,sigma2_xi,sigma2_beta
metrics.json / timing.json: flat key-value documents.
summary.json     key-value document whose ``failures`` key holds one
                 {"n", "message"} object per failed grid point.

This module writes every output file; the library returns values only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import warnings
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .calibrate import CalibrationReport, SweepPlan, run_sweep
from .errors import (
    InvalidParameterError,
    NumericalError,
    _checked_int,
    _checked_positive,
    _checked_seed,
)
from .gibbs import run_chain
from .model import (
    METRIC_ABS,
    METRIC_GREAT_CIRCLE,
    REFRESH_CARRY,
    REFRESH_PRIOR,
    BasisConfig,
    DatasetView,
    SamplerConfig,
)
from .simdata import Ar1Config, equally_spaced_indices, generate_ar1, rmspe, rste

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _write_csv(path, header: Sequence[str], row_format: str, columns) -> None:
    # one str.format per row over the column lists and one write call, with
    # csv.writer's CRLF line ends; {!r} of a Python float is its shortest
    # round-trip form, which keeps files byte-stable (a NumPy scalar's repr
    # is np.float64(...), so float columns must hold Python floats)
    rows = map((row_format + "\r\n").format, *columns)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n" + "".join(rows))


def _write_json(path, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_manifest(output_dir: Path, command: str, argv: Sequence[str],
                   seed: Optional[int], dataset_path: Optional[str]) -> None:
    _write_json(output_dir / "manifest.json", {
        "command": command,
        "argv": list(argv),
        "master_seed": seed,
        "dataset_path": dataset_path,
        "output_dir": str(output_dir),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": f"subsetgibbs-{__version__}",
    })


def replay_manifest(manifest_path, output_dir: Optional[str] = None) -> int:
    """Re-run the command recorded in a manifest, optionally elsewhere.

    The recorded argv fully determines every data output, so a replay
    reproduces them byte-for-byte.
    """
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    argv = list(manifest["argv"])
    if output_dir is not None:
        argv += ["--output-dir", str(output_dir)]  # argparse keeps the last occurrence
    return main(argv)


def read_csv(path, required: Sequence[str]) -> dict:
    """Columns of a headed numeric CSV file, by name, as float vectors.

    Every field must parse as a float, every row must have one field per
    header name and no name may repeat; anything else, a file that is not
    UTF-8 text included, is an InvalidParameterError naming the file.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            header = handle.readline().rstrip("\r\n").split(",")
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(f"{path}: not UTF-8 text: {exc}") from None
        if len(set(header)) != len(header):
            raise InvalidParameterError(f"{path}: header names a column more than once: {header}")
        if not set(required) <= set(header):
            raise InvalidParameterError(f"{path}: header must contain {required}, got {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on an empty body
                values = np.loadtxt(handle, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise InvalidParameterError(f"{path}: {exc}") from None
    if values.shape[1] != len(header):
        raise InvalidParameterError(
            f"{path}: rows have {values.shape[1]} fields, the header names {len(header)}")
    return dict(zip(header, np.ascontiguousarray(values.T)))


def read_data_csv(path) -> DatasetView:
    """Load a dataset file, applying the intercept and coord defaults.

    Columns other than index, y, coord and x-prefixed covariates are a
    usage error rather than silently ignored.
    """
    columns = read_csv(path, ("index", "y"))
    unknown = [name for name in columns
               if name not in ("index", "y", "coord") and not name.startswith("x")]
    if unknown:
        raise InvalidParameterError(f"{path}: unknown column {unknown[0]!r}; "
                                    "expected index, y, x1..xp or coord")
    index = columns["index"]
    if not np.array_equal(index, np.arange(1, index.size + 1)):
        raise InvalidParameterError(f"{path}: index column must be 1-based and contiguous")
    x_columns = [columns[name] for name in columns if name.startswith("x")]
    x = np.column_stack(x_columns or [np.ones(index.size)])  # a lone intercept by default
    return DatasetView(y=columns["y"], x=x, index_coords=columns.get("coord", index))


def read_indexed_csv(path, value_column: str) -> dict:
    """Map 1-based index to a finite float value column (predictions, truth or holdout)."""
    columns = read_csv(path, ("index", value_column))
    index = columns["index"].astype(np.int64)
    if np.any(index != columns["index"]):
        raise InvalidParameterError(f"{path}: index column must hold integers")
    if np.unique(index).size != index.size:
        raise InvalidParameterError(f"{path}: index column lists an index more than once")
    bad = index[~np.isfinite(columns[value_column])]
    if bad.size:
        raise InvalidParameterError(f"{path}: {value_column} is not finite at index {bad[0]}")
    return dict(zip(index.tolist(), columns[value_column].tolist()))


def _grid_int(entry: str) -> int:
    try:
        return int(entry)
    except ValueError:
        raise InvalidParameterError(f"--n-grid entry {entry!r} is not an integer") from None


def _parse_n_grid(text: str, N: int) -> List[int]:
    """Grid syntax: 'a:b:step' (inclusive of b when hit) or 'n1,n2,...'.

    The grid is checked against 1 <= n <= N before it is built, so a huge
    range is a usage error and allocates nothing.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParameterError(f"--n-grid range must be start:stop:step, got {text!r}")
        start, stop, step = (_grid_int(p) for p in parts)
        if not (step >= 1 and 1 <= start <= stop <= N):
            raise InvalidParameterError(
                f"--n-grid range needs step >= 1 and 1 <= start <= stop <= {N}, got {text!r}")
        return list(range(start, stop + 1, step))
    grid = [_grid_int(p) for p in text.split(",") if p.strip()]
    if not grid or grid[0] < 1 or grid[-1] > N or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError(f"--n-grid list must be nonempty, strictly increasing "
                                    f"and within [1, {N}], got {text!r}")
    return grid


def _check_sampler_flags(args) -> None:
    # these need no data, so they are checked before --data is read; name the
    # flags the user typed, where SamplerConfig's own message names its fields
    if not (0 <= args.burn_in < args.iterations):
        raise InvalidParameterError(f"need 0 <= --burn-in < --iterations, got --burn-in "
                                    f"{args.burn_in} and --iterations {args.iterations}")
    _checked_positive(args.rho, "--rho")


def _sampler_config(args, N: int) -> SamplerConfig:
    _checked_int(args.pred_count, "--pred-count", 1, N)
    return SamplerConfig(
        iterations=args.iterations,
        burn_in=args.burn_in,
        prediction_set=equally_spaced_indices(args.pred_count, N),
        basis=BasisConfig(rho=args.rho, metric=args.metric),
        seed=args.seed,
        prediction_refresh=args.prediction_refresh,
    )


def _write_predictions_csv(path, prediction_set: np.ndarray, out) -> None:
    _write_csv(path, ["index", "mu_hat", "var_hat"], "{},{!r},{!r}",
               [(prediction_set + 1).tolist(), out.mu_hat.tolist(), out.mu_var.tolist()])


def _write_report_csv(path, report: CalibrationReport) -> None:
    # one row per completed grid point; diff_to_next is empty on the last
    # row and wherever a neighbor failed
    diff_by_n = dict(report.pairwise_diffs)

    def diff_text(n: int) -> str:
        diff = diff_by_n.get(n)
        return "" if diff is None or np.isnan(diff) else repr(float(diff))

    _write_csv(path, ["n", "wall_seconds", "cpu_seconds", "diff_to_next"], "{},{!r},{!r},{}",
               [[n for n, _ in report.per_n],
                [float(out.elapsed_wall_seconds) for _, out in report.per_n],
                [float(out.elapsed_cpu_seconds) for _, out in report.per_n],
                [diff_text(n) for n, _ in report.per_n]])


def cmd_simulate(args) -> int:
    # name the flags the user typed; Ar1Config's own message names its fields
    _checked_int(args.N, "--N", low=1)
    if not np.isfinite(args.phi):
        raise InvalidParameterError(f"--phi must be finite, got {args.phi}")
    _checked_positive(args.noise_var, "--noise-var")
    config = Ar1Config(N=args.N, phi=args.phi, noise_var=args.noise_var, seed=args.seed)
    data, truth = generate_ar1(config)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    index = range(1, config.N + 1)
    _write_csv(output_dir / "data.csv", ["index", "y"], "{},{!r}", [index, data.y.tolist()])
    _write_csv(output_dir / "truth.csv", ["index", "mu"], "{},{!r}", [index, truth.tolist()])
    write_manifest(output_dir, "simulate", args.raw_argv, args.seed, str(output_dir / "data.csv"))
    print(f"wrote {output_dir / 'data.csv'} and {output_dir / 'truth.csv'} (N={config.N})")
    return EXIT_OK


def cmd_fit(args) -> int:
    _check_sampler_flags(args)
    data = read_data_csv(args.data)
    config = _sampler_config(args, data.n_obs)
    _checked_int(args.n, "--n", 1, data.n_obs)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    out = run_chain(data, config, args.n, collect_trace=True)
    _write_predictions_csv(output_dir / "predictions.csv", config.prediction_set, out)
    beta_names = [f"beta_{j + 1}" for j in range(data.n_covariates)]
    header = ["iteration"] + beta_names + ["sigma2", "sigma2_eta", "sigma2_xi", "sigma2_beta"]
    _write_csv(output_dir / "trace.csv", header, "{}" + ",{!r}" * (len(header) - 1),
               [range(1, len(out.trace) + 1), *out.trace.T.tolist()])
    kept = config.iterations - config.burn_in
    _write_json(output_dir / "timing.json", {
        "wall_seconds": out.elapsed_wall_seconds,
        "cpu_seconds": out.elapsed_cpu_seconds,
        "n": args.n,
        "iterations": config.iterations,
        "burn_in": config.burn_in,
        "iterations_kept": kept,
        "jitter_events": out.jitter_events,
    })
    write_manifest(output_dir, "fit", args.raw_argv, args.seed, args.data)
    print(f"fit n={args.n}: wall {out.elapsed_wall_seconds:.2f}s, "
          f"cpu {out.elapsed_cpu_seconds:.2f}s, kept {kept} iterations")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    # name the flags the user typed; SweepPlan's own message names its fields
    _checked_positive(args.budget_seconds, "--budget-seconds")
    _checked_int(args.max_parallel, "--max-parallel", low=1)
    _check_sampler_flags(args)
    data = read_data_csv(args.data)
    config = _sampler_config(args, data.n_obs)
    grid = _parse_n_grid(args.n_grid, data.n_obs)
    plan = SweepPlan(n_grid=tuple(grid), budget_seconds=args.budget_seconds,
                     max_parallel=args.max_parallel)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    report = run_sweep(data, config, plan, use_cpu_time=args.use_cpu_time)
    _write_report_csv(output_dir / "report.csv", report)
    selected = report.output_for(report.selected_n)
    _write_json(output_dir / "summary.json", {
        "selected_n": report.selected_n,
        "budget_met": report.budget_met,
        "budget_seconds": plan.budget_seconds,
        "used_cpu_time": args.use_cpu_time,
        "grid": ",".join(str(n) for n, _ in report.per_n),
        "failed_grid": ",".join(str(n) for n, _ in report.failures),
        "failures": [{"n": n, "message": message} for n, message in report.failures],
        "selected_wall_seconds": selected.elapsed_wall_seconds,
        "selected_cpu_seconds": selected.elapsed_cpu_seconds,
    })
    for n, out in report.per_n:
        _write_predictions_csv(output_dir / f"predictions_n{n}.csv", config.prediction_set, out)
    write_manifest(output_dir, "calibrate", args.raw_argv, args.seed, args.data)
    met = "within budget" if report.budget_met else "over budget (flagged)"
    print(f"selected n={report.selected_n} ({met}); report at {output_dir / 'report.csv'}")
    if report.failures:
        for n, message in report.failures:
            print(f"warning: chain n={n} failed: {message}", file=sys.stderr)
    return EXIT_OK


def cmd_score(args) -> int:
    if (args.truth is None) == (args.holdout is None):
        raise InvalidParameterError("provide exactly one of --truth or --holdout")
    predictions = read_indexed_csv(args.predictions, "mu_hat")
    metric_name = "rmspe" if args.truth else "rste"
    reference = read_indexed_csv(args.truth or args.holdout, "mu" if args.truth else "y")
    missing = sorted(set(predictions) - set(reference))
    if missing:
        preview = ", ".join(str(i) for i in missing[:20])
        raise InvalidParameterError(
            f"{len(missing)} prediction indices missing from the reference file: {preview}"
        )
    indices = sorted(predictions)
    pred = np.array([predictions[i] for i in indices])
    ref = np.array([reference[i] for i in indices])
    value = (rmspe if args.truth else rste)(ref, pred)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    _write_json(output_dir / "metrics.json", {metric_name: value, "count": len(indices)})
    # scoring draws no variate, so it takes no seed
    write_manifest(output_dir, "score", args.raw_argv, None, args.predictions)
    print(f"{metric_name} = {value:.6f} over {len(indices)} indices")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetgibbs",
        description="Subset-resampling Gibbs sampler with wall-clock budget calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
        p.add_argument("--output-dir", required=True, help="directory for outputs")

    def add_sampler_flags(p):
        p.add_argument("--iterations", type=int, default=2000, help="total sweeps G")
        p.add_argument("--burn-in", type=int, default=200, help="discarded sweeps")
        p.add_argument("--rho", type=float, default=0.3, help="kernel range parameter")
        p.add_argument("--metric", choices=[METRIC_ABS, METRIC_GREAT_CIRCLE], default=METRIC_ABS,
                       help="kernel distance metric")
        p.add_argument("--pred-count", type=int, default=1000,
                       help="number of equally spaced prediction indices")
        p.add_argument("--prediction-refresh", choices=[REFRESH_CARRY, REFRESH_PRIOR],
                       default=REFRESH_CARRY,
                       help="policy for prediction components outside the subset")

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--N", type=int, required=True, help="number of observations")
    p_sim.add_argument("--phi", type=float, default=0.9, help="autoregressive coefficient")
    p_sim.add_argument("--noise-var", type=float, default=0.1, help="innovation and error variance")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="run one chain at a fixed subset size")
    p_fit.add_argument("--data", required=True, help="data.csv path")
    p_fit.add_argument("--n", type=int, required=True, help="subset size")
    add_sampler_flags(p_fit)
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_cal = sub.add_parser("calibrate", help="sweep subset sizes against a time budget")
    p_cal.add_argument("--data", required=True, help="data.csv path")
    p_cal.add_argument("--n-grid", required=True,
                       help="subset sizes: 'start:stop:step' or comma list")
    p_cal.add_argument("--budget-seconds", type=float, required=True,
                       help="wall-clock budget per fit")
    p_cal.add_argument("--max-parallel", type=int, default=1,
                       help="concurrent chains: predictions stay identical, but chains "
                            "that share cores take longer, which can change the selected n")
    p_cal.add_argument("--use-cpu-time", action="store_true",
                       help="select against CPU time instead of wall time")
    add_sampler_flags(p_cal)
    add_common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_score = sub.add_parser("score", help="score predictions against truth or holdout")
    p_score.add_argument("--predictions", required=True, help="predictions.csv path")
    p_score.add_argument("--truth", help="truth.csv path (latent-truth error)")
    p_score.add_argument("--holdout", help="holdout data.csv path (testing error)")
    add_common(p_score, seed=False)
    p_score.set_defaults(func=cmd_score)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.raw_argv = argv
    try:
        _checked_seed(getattr(args, "seed", 0), "--seed")  # every command but score takes --seed
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
