"""Print a fingerprint of the sampler's outputs on a fixed set of chains.

Run it in two checkouts and compare the printed text: equal lines mean
that a change kept every output bit of those chains.

    python tools/output_hashes.py > hashes.txt

The script imports the package from the ``src`` directory next to it,
so a copy of it placed in another checkout fingerprints that checkout.
Each line names a case, then gives the first 16 hex digits of the
SHA-256 of the chain's ``mu_hat``, ``mu_var`` and trace bytes and, after
``j=``, its jitter count.  The ``sweep20`` line hashes every chain of
the acceptance study's 20-point sweep together with the pairwise
diffs, and sums the jitter counts; ``prior_m1000_n10`` runs the study's
data at n = 10 under ``prior`` with its m = 1,000 prediction indices, so
the refresh draws 2,000 normals every sweep.  The cases cover the banded
path (n = 1 and 2 included, where some of the band's slices are empty),
the dense great-circle path, unsorted and too-close coordinates, blocks
that mix banded and dense subsets (on sorted and on unsorted
coordinates), pinned and sampled variances, both refresh policies,
n = N, subsets whose draws repeat (``repeats_``), and banded factors
forced to fail so that every sweep takes the dense fallback
(``dpbtrf_fail_``).  In ``dpbtrf_fail_unsorted_mixed`` some subsets are
dense from the start and the others fall back, so every dense kernel
there is built from a subset's coordinates in coordinate order.

``cases`` yields each chain case as its name, its labelled output arrays
and its jitter count, so other tools can compare the values themselves
(``tools/output_deviations.py``).

The ``cli_`` lines run ``simulate``, ``fit`` and a serial ``calibrate``
in a temporary directory and hash the bytes of the files they write:
``data.csv``, ``truth.csv``, ``predictions.csv``, ``trace.csv``, each
``predictions_n{n}.csv``, and the ``n`` and ``diff_to_next`` columns of
``report.csv`` (its last row's diff cell is empty).
``cli_fit_unsorted_coord`` hashes ``predictions.csv`` and ``trace.csv``
together, from a ``fit`` on the simulated data with a shuffled ``coord``
column added; ``cli_calibrate_unsorted_coord`` hashes the predictions
files and the two ``report.csv`` columns together, from a serial
``calibrate`` on that file with the same grid (5, 10, 40).  Timing
columns and manifests differ from run to run and are left out.  The
script takes about 10 s on a 2-core machine.
"""

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import subsetgibbs as sg  # noqa: E402
import subsetgibbs.cli as cli  # noqa: E402
import subsetgibbs.gibbs as gibbs  # noqa: E402
from subsetgibbs.oracle import TinyModelSpec  # noqa: E402

PINS = sg.FixedVariances(0.8, 0.6, 0.3, 1.5)


def digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()[:16]


def chain(data, n, *, iterations=400, burn_in=100, rho=0.3, metric="abs", refresh="carry",
          fixed=None, pred=None, seed=11):
    """One chain's outputs: ([(label, array), ...], jitter count)."""
    if pred is None:
        pred = sg.equally_spaced_indices(min(50, data.n_obs), data.n_obs)
    config = sg.SamplerConfig(iterations=iterations, burn_in=burn_in, prediction_set=pred,
                              basis=sg.BasisConfig(rho=rho, metric=metric), seed=seed,
                              fixed_variances=fixed, prediction_refresh=refresh)
    out = sg.run_chain(data, config, n, collect_trace=True)
    return [("mu_hat", out.mu_hat), ("mu_var", out.mu_var), ("trace", out.trace)], \
        out.jitter_events


def dataset(y, coords, p=1):
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(y.size)] + [rng.normal(size=y.size) for _ in range(p - 1)])
    return sg.DatasetView(y=y, x=x, index_coords=coords)


def scattered(N, seed, layout):
    """N rows of noisy data on sorted, permuted, (lat, lon) or near-duplicate
    coordinates; "unsorted_mixed" permutes the near-duplicate ones."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=N)
    coords = np.cumsum(rng.uniform(0.5, 3.0, size=N))
    if layout in ("mixed", "unsorted_mixed"):
        # every other row sits within 1e-6 of its neighbour: subsets that
        # hold such a pair need the dense kernel, the others are banded
        coords[1::2] = coords[::2][:N // 2] + 1e-6
    if layout in ("unsorted", "unsorted_mixed"):
        coords = coords[rng.permutation(N)]
    elif layout == "latlon":
        coords = np.column_stack([rng.uniform(-60.0, 60.0, N), rng.uniform(-180.0, 180.0, N)])
    return y, coords


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def command(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    if code != cli.EXIT_OK:
        raise SystemExit(f"{argv[0]} exited {code}")


def report_rows(directory) -> str:
    """The ``n`` and ``diff_to_next`` columns of ``report.csv``, one row a line."""
    with open(directory / "report.csv", newline="") as handle:
        return "\n".join(f"{row['n']},{row['diff_to_next']}" for row in csv.DictReader(handle))


def cli_cases():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        command("simulate", "--N", 3000, "--seed", 4, "--output-dir", tmp / "sim")
        data = tmp / "sim" / "data.csv"
        yield "cli_simulate_data", file_digest(data)
        yield "cli_simulate_truth", file_digest(tmp / "sim" / "truth.csv")
        sampler = ["--iterations", 300, "--burn-in", 50, "--pred-count", 100, "--seed", 9]
        command("fit", "--data", data, "--n", 20, *sampler, "--output-dir", tmp / "fit")
        for name in ("predictions", "trace"):
            yield f"cli_fit_{name}", file_digest(tmp / "fit" / f"{name}.csv")
        lines = data.read_text().splitlines()
        coord = np.random.default_rng(10).permutation(len(lines) - 1) + 1
        unsorted = tmp / "unsorted.csv"
        unsorted.write_text("".join(f"{line},{value}\n" for line, value in
                                    zip(lines, ["coord", *coord.tolist()])))
        command("fit", "--data", unsorted, "--n", 20, *sampler, "--output-dir", tmp / "unsorted")
        yield "cli_fit_unsorted_coord", hashlib.sha256(b"".join(
            (tmp / "unsorted" / f"{name}.csv").read_bytes()
            for name in ("predictions", "trace"))).hexdigest()[:16]
        calibrate_args = ["--n-grid", "5,10,40", "--budget-seconds", 60, *sampler]
        command("calibrate", "--data", data, *calibrate_args, "--output-dir", tmp / "cal")
        for n in (5, 10, 40):
            yield f"cli_calibrate_predictions_n{n}", file_digest(
                tmp / "cal" / f"predictions_n{n}.csv")
        yield "cli_calibrate_report_n_diff", hashlib.sha256(
            report_rows(tmp / "cal").encode()).hexdigest()[:16]
        shuffled = tmp / "cal_unsorted"
        command("calibrate", "--data", unsorted, *calibrate_args, "--output-dir", shuffled)
        yield "cli_calibrate_unsorted_coord", hashlib.sha256(b"".join(
            [(shuffled / f"predictions_n{n}.csv").read_bytes() for n in (5, 10, 40)]
            + [report_rows(shuffled).encode()])).hexdigest()[:16]


def cases():
    """Yield (name, (parts, jitter)) per chain case; parts are (label, array) pairs."""
    study, _ = sg.generate_ar1(sg.Ar1Config(N=100_000, phi=0.9, noise_var=0.1, seed=42))
    study_pred = sg.equally_spaced_indices(1000, study.n_obs)
    sampler = sg.SamplerConfig(iterations=2000, burn_in=200, prediction_set=study_pred,
                               basis=sg.BasisConfig(rho=0.3), seed=7)
    plan = sg.SweepPlan(n_grid=tuple(range(10, 201, 10)), budget_seconds=300.0,
                        max_parallel=1)
    report = sg.run_sweep(study, sampler, plan)
    parts = [part for _, out in report.per_n
             for part in (("mu_hat", out.mu_hat), ("mu_var", out.mu_var))]
    parts.append(("diffs", np.array([diff for _, diff in report.pairwise_diffs])))
    jitter = sum(out.jitter_events for _, out in report.per_n)
    yield "sweep20", (parts, jitter)
    yield "prior_m1000_n10", chain(study, 10, pred=study_pred, iterations=300,
                                   refresh="prior", seed=7)

    ar1, _ = sg.generate_ar1(sg.Ar1Config(N=100_000, seed=3))
    pred = sg.equally_spaced_indices(1000, ar1.n_obs)
    yield "n1_carry", chain(ar1, 1, pred=pred)
    yield "n1_prior_pinned", chain(ar1, 1, pred=pred, refresh="prior", fixed=PINS)
    yield "n2_carry", chain(ar1, 2, pred=pred)
    yield "n2_prior_pinned", chain(ar1, 2, pred=pred, refresh="prior", fixed=PINS)
    yield "n10_carry", chain(ar1, 10, pred=pred)
    yield "n200_carry", chain(ar1, 200, pred=pred)
    yield "prior_n50", chain(ar1, 50, pred=pred, refresh="prior")
    yield "n1000_rho003", chain(ar1, 1000, pred=pred, iterations=100, burn_in=25, rho=0.003)
    yield "pinned300_carry", chain(ar1, 300, pred=pred, rho=0.003, fixed=PINS)
    yield "pinned300_prior", chain(ar1, 300, pred=pred, rho=0.003, fixed=PINS,
                                   refresh="prior")

    spec = TinyModelSpec(N=3, n=2, fixed_variances=sg.FixedVariances(1.0, 0.05, 0.05, 1.0))
    tiny = spec.dataset(np.array([1.0, -0.5, 0.8]))
    yield "crit3_pinned_20000", chain(tiny, 2, iterations=20_000, burn_in=1000,
                                      pred=np.array([0]), refresh="prior",
                                      fixed=spec.fixed_variances, seed=5)

    for layout, metric in (("sorted", "abs"), ("unsorted", "abs"), ("latlon", "greatcircle")):
        data = dataset(*scattered(40, 5, layout), p=2)
        for refresh in ("carry", "prior"):
            yield (f"pinned_n_eq_N_{layout}_{refresh}",
                   chain(data, 40, metric=metric, refresh=refresh, fixed=PINS))
        yield f"sampled_n_eq_N_{layout}", chain(data, 40, metric=metric)

    unsorted = dataset(*scattered(2000, 6, "unsorted"))
    yield "unsorted_pinned_prior", chain(unsorted, 50, refresh="prior", fixed=PINS)
    yield "unsorted_sampled_carry", chain(unsorted, 50)
    mixed = dataset(*scattered(400, 7, "mixed"))
    yield "mixed_pinned_prior", chain(mixed, 20, refresh="prior", fixed=PINS)
    yield "mixed_sampled_carry", chain(mixed, 20)
    yield "unsorted_mixed", chain(dataset(*scattered(400, 9, "unsorted_mixed")), 20,
                                  refresh="prior")
    # the subset draw's block path where rows repeat draws: about one
    # repeat per subset at N = 1,000 and n = 45, chained replacements at
    # N = 100 and n = 60
    yield "repeats_N1000_n45", chain(dataset(*scattered(1000, 10, "sorted")), 45)
    yield "repeats_N100_n60", chain(dataset(*scattered(100, 11, "sorted")), 60,
                                    refresh="prior")
    latlon = dataset(*scattered(500, 8, "latlon"), p=2)
    for refresh in ("carry", "prior"):
        yield f"greatcircle_p2_{refresh}", chain(latlon, 30, metric="greatcircle",
                                                 refresh=refresh)

    banded_factor = gibbs._banded_eta_factor
    gibbs._banded_eta_factor = lambda *args: None
    try:
        yield "dpbtrf_fail_sampled", chain(ar1, 20, pred=pred, iterations=100, burn_in=25)
        four = dataset(np.array([0.3, -1.2, 0.7, 0.1]), np.arange(4.0))
        yield "dpbtrf_fail_pinned_N4", chain(four, 2, iterations=200, burn_in=50,
                                             refresh="prior", fixed=PINS)
        yield "dpbtrf_fail_unsorted_mixed", chain(
            dataset(*scattered(400, 9, "unsorted_mixed")), 20, refresh="prior")
    finally:
        gibbs._banded_eta_factor = banded_factor


if __name__ == "__main__":
    for name, (parts, jitter) in cases():
        print(f"{name} {digest([array for _, array in parts])} j={jitter}", flush=True)
    for name, line in cli_cases():
        print(f"{name} {line}", flush=True)
