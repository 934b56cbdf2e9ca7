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
predictions.csv  index,mu_hat,var_hat
report.csv       n,wall_seconds,cpu_seconds,diff_to_next
trace.csv        iteration,beta_1..beta_p,sigma2,sigma2_eta,sigma2_xi,sigma2_beta
summary.json / metrics.json / timing.json: flat key-value documents.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
import warnings
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .calibrate import (SweepPlan, _format_float, _write_json, run_sweep, write_report_csv,
                        write_summary_json)
from .errors import InvalidParameterError, NumericalError
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


def write_manifest(output_dir: Path, command: str, argv: Sequence[str],
                   seed: int, dataset_path: Optional[str]) -> None:
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
        position = argv.index("--output-dir")
        argv[position + 1] = str(output_dir)
    return main(argv)


def read_csv(path, required: Sequence[str]) -> dict:
    """Columns of a headed numeric CSV file, by name, as float vectors.

    Every field must parse as a float and every row must have one field
    per header name; anything else is an InvalidParameterError naming
    the file.
    """
    with open(path) as handle:
        header = handle.readline().rstrip("\r\n").split(",")
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
    """Load a dataset file, applying the intercept and coord defaults."""
    columns = read_csv(path, ("index", "y"))
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
        raise InvalidParameterError(f"grid entry {entry!r} is not an integer") from None


def _parse_n_grid(text: str) -> List[int]:
    """Grid syntax: 'a:b:step' (inclusive of b when hit) or 'n1,n2,...'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParameterError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = (_grid_int(p) for p in parts)
        if step < 1 or stop < start:
            raise InvalidParameterError(f"bad grid range {text!r}")
        return list(range(start, stop + 1, step))
    return [_grid_int(p) for p in text.split(",") if p.strip()]


def _sampler_config(args, N: int) -> SamplerConfig:
    pred_count = args.pred_count
    if pred_count > N:
        raise InvalidParameterError(f"--pred-count {pred_count} exceeds dataset size {N}")
    return SamplerConfig(
        iterations=args.iterations,
        burn_in=args.burn_in,
        prediction_set=equally_spaced_indices(pred_count, N),
        basis=BasisConfig(rho=args.rho, metric=args.metric),
        seed=args.seed,
        prediction_refresh=args.prediction_refresh,
    )


def _write_rows(path, header: List[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_predictions(path, out) -> None:
    _write_rows(path, ["index", "mu_hat", "var_hat"],
                ((i, _format_float(mu), _format_float(var))
                 for i, mu, var in zip(out.prediction_indices + 1, out.mu_hat, out.mu_var)))


def cmd_simulate(args) -> int:
    config = Ar1Config(N=args.N, phi=args.phi, noise_var=args.noise_var,
                       seed=args.seed, prediction_count=args.pred_count)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    data, truth, _ = generate_ar1(config)
    index = np.arange(1, config.N + 1)
    _write_rows(output_dir / "data.csv", ["index", "y"],
                ((i, _format_float(v)) for i, v in zip(index, data.y)))
    _write_rows(output_dir / "truth.csv", ["index", "mu"],
                ((i, _format_float(v)) for i, v in zip(index, truth)))
    write_manifest(output_dir, "simulate", args.raw_argv, args.seed, str(output_dir / "data.csv"))
    print(f"wrote {output_dir / 'data.csv'} and {output_dir / 'truth.csv'} (N={config.N})")
    return EXIT_OK


def cmd_fit(args) -> int:
    data = read_data_csv(args.data)
    config = _sampler_config(args, data.n_obs)
    if not (1 <= args.n <= data.n_obs):
        raise InvalidParameterError(f"--n must be in [1, {data.n_obs}], got {args.n}")
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    out = run_chain(data, config, args.n, collect_trace=True)
    _write_predictions(output_dir / "predictions.csv", out)
    p = data.n_covariates
    beta_names = [f"beta_{j + 1}" for j in range(p)]
    header = ["iteration"] + beta_names + ["sigma2", "sigma2_eta", "sigma2_xi", "sigma2_beta"]
    _write_rows(output_dir / "trace.csv", header,
                ((g + 1, *(_format_float(v) for v in row)) for g, row in enumerate(out.trace)))
    _write_json(output_dir / "timing.json", {
        "wall_seconds": out.elapsed_wall_seconds,
        "cpu_seconds": out.elapsed_cpu_seconds,
        "n": out.n_used,
        "iterations": config.iterations,
        "burn_in": config.burn_in,
        "iterations_kept": out.iterations_kept,
        "jitter_events": out.jitter_events,
    })
    write_manifest(output_dir, "fit", args.raw_argv, args.seed, args.data)
    print(f"fit n={args.n}: wall {out.elapsed_wall_seconds:.2f}s, "
          f"cpu {out.elapsed_cpu_seconds:.2f}s, kept {out.iterations_kept} iterations")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    data = read_data_csv(args.data)
    config = _sampler_config(args, data.n_obs)
    grid = _parse_n_grid(args.n_grid)
    if grid and grid[-1] > data.n_obs:
        raise InvalidParameterError(f"grid point {grid[-1]} exceeds dataset size {data.n_obs}")
    plan = SweepPlan(n_grid=tuple(grid), budget_seconds=args.budget_seconds,
                     max_parallel=args.max_parallel)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    report = run_sweep(data, config, plan, use_cpu_time=args.use_cpu_time)
    write_report_csv(report, output_dir / "report.csv")
    write_summary_json(report, output_dir / "summary.json")
    for n, out in report.per_n:
        _write_predictions(output_dir / f"predictions_n{n}.csv", out)
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
    write_manifest(output_dir, "score", args.raw_argv, args.seed, args.predictions)
    print(f"{metric_name} = {value:.6f} over {len(indices)} indices")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetgibbs",
        description="Subset-resampling Gibbs sampler with wall-clock budget calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
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
    p_sim.add_argument("--pred-count", type=int, default=1000,
                       help="prediction-set size recorded for downstream commands")
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
                       help="concurrent chains (does not affect numbers)")
    p_cal.add_argument("--use-cpu-time", action="store_true",
                       help="select against CPU time instead of wall time")
    add_sampler_flags(p_cal)
    add_common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_score = sub.add_parser("score", help="score predictions against truth or holdout")
    p_score.add_argument("--predictions", required=True, help="predictions.csv path")
    p_score.add_argument("--truth", help="truth.csv path (latent-truth error)")
    p_score.add_argument("--holdout", help="holdout data.csv path (testing error)")
    add_common(p_score)
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
