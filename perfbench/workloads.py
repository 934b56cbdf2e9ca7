"""The four workloads: their inputs, their operations and their checks.

Inputs are made here from the workload seed, before anything is timed.
The checks read the files the program wrote and compare them with
computations made here, apart from the program, or with properties the
method must have.  None compares against stored output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

# AR(1) inputs use the simulation study's generating parameters
PHI = 0.9
NOISE_VAR = 0.1

# a statistical check fails a correct program once in about 10^6 runs
CHECK_SDS = 5.0
# the kept intercept mean lies within this many sd(y) of y's mean; over 54
# fit-large-subset chains the gap had a scale of 0.11 sd(y), largest 0.29
INTERCEPT_SDS = 0.75
# batches for the tiny-exact batch-means standard errors
BATCHES = 40
# the batch-means t statistic has 39 degrees of freedom; 6 of its
# standard errors are as rare as 5 of a normal's
BATCH_SES = 6.0
# one sweep per subset is not an exact draw from the subset's conditional:
# over 63 chains of 20,000 sweeps the kept beta variance sat 1.8% below
# the exact mixture's (13 pooled standard errors) and the mean 0.7% above
SWEEP_BIAS_FRAC = 0.03

# criterion 3's data, variances and range: the chain's stationary law is
# checked against the exact mixture at this point by the acceptance suite
TINY_Y = (1.0, -0.5, 0.8)
TINY_VARIANCES = (1.0, 0.05, 0.05, 1.0)  # sigma2, sigma2_eta, sigma2_xi, sigma2_beta
TINY_RHO = 0.3

WORKLOADS = {
    "fit-large-data": {
        "kind": "fit", "N": 1_000_000, "n": 50, "m": 1000, "rho": 0.3,
        "iterations": 1000, "burn_in": 100,
    },
    "fit-large-subset": {
        "kind": "fit", "N": 100_000, "n": 1000, "m": 1000, "rho": 0.003,
        "iterations": 100, "burn_in": 20,
    },
    "calibrate-grid": {
        "kind": "calibrate", "N": 100_000, "grid": (10, 200, 10), "m": 1000, "rho": 0.3,
        "iterations": 200, "burn_in": 50, "budget_s": 0.12,
    },
    "tiny-exact": {
        "kind": "chain", "N": 3, "n": 2, "m": 1, "rho": TINY_RHO,
        "iterations": 20_000, "burn_in": 1000,
    },
}

WARMUP_N = 2000


def ar1(seed_words, N: int):
    """(latent mu, observations y) of a stationary AR(1) plus noise."""
    rng = np.random.default_rng(seed_words)
    innovations = rng.normal(0.0, math.sqrt(NOISE_VAR), N)
    innovations[0] = rng.normal(0.0, math.sqrt(NOISE_VAR / (1.0 - PHI**2)))
    mu = lfilter([1.0], [1.0, -PHI], innovations)
    return mu, mu + rng.normal(0.0, math.sqrt(NOISE_VAR), N)


def write_data_csv(path: Path, y) -> None:
    # the layout and float format of the program's own ``simulate``
    with open(path, "w") as handle:
        handle.write("index,y\n")
        handle.write("\n".join(f"{i},{v!r}" for i, v in enumerate(np.asarray(y).tolist(), 1)))
        handle.write("\n")


def prediction_indices(m: int, N: int) -> np.ndarray:
    """0-based equally spaced indices, as the CLI's ``--pred-count`` defines them."""
    return (np.arange(m, dtype=np.int64) * N) // m


def operation_seeds(seed: int, count: int) -> list:
    states = np.random.SeedSequence([seed, 1]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in states]


def build(name: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs and return the worker spec and check state."""
    wl = WORKLOADS[name]
    index = list(WORKLOADS).index(name)
    data, warm_data = work / "data.csv", work / "warm.csv"
    truth = None
    if wl["kind"] == "chain":
        y = np.array(TINY_Y)
        write_data_csv(data, y)
        write_data_csv(warm_data, y)
    else:
        truth, y = ar1([seed, index], wl["N"])
        write_data_csv(data, y)
        write_data_csv(warm_data, ar1([seed, index, 1], WARMUP_N)[1])

    argv = []
    chains = 1
    if wl["kind"] == "fit":
        argv = ["fit", "--n", wl["n"]]
    elif wl["kind"] == "calibrate":
        lo, hi, step = wl["grid"]
        chains = len(range(lo, hi + 1, step))
        argv = ["calibrate", "--n-grid", f"{lo}:{hi}:{step}", "--budget-seconds", wl["budget_s"],
                "--max-parallel", 1]
    if argv:
        argv += ["--data", "{data}", "--iterations", "{iterations}", "--burn-in", "{burn_in}",
                 "--rho", wl["rho"], "--pred-count", "{m}", "--prediction-refresh", "carry",
                 "--seed", "{seed}", "--output-dir", "{out}"]
    spec = {
        "kind": wl["kind"],
        "argv": argv,
        "chains_per_op": chains,
        "values": {"data": str(data), "iterations": wl["iterations"],
                   "burn_in": wl["burn_in"], "m": wl["m"]},
        "warmup": {"data": str(warm_data), "iterations": 20 if argv else 200,
                   "burn_in": 5, "m": min(wl["m"], 100), "seed": seed,
                   "out": str(work / "warmup")},
        "seeds": operation_seeds(seed, 1000),
    }
    if wl["kind"] == "chain":
        spec["chain"] = {"n": wl["n"], "rho": wl["rho"], "prediction_set": [0],
                         "fixed_variances": list(TINY_VARIANCES), "prediction_refresh": "prior"}
    return {"spec": spec, "y": y, "truth": truth}


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when all hold
# ---------------------------------------------------------------------------

def _read_table(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _float_columns(rows, columns) -> np.ndarray:
    return np.array([[float(row[c]) for c in columns] for row in rows]).reshape(len(rows), -1)


def _check_predictions(path: Path, pred: np.ndarray, errors: list) -> np.ndarray:
    header, rows = _read_table(path)
    if header != ["index", "mu_hat", "var_hat"]:
        errors.append(f"{path.name}: header {header}")
        return None
    if [int(row[0]) for row in rows] != (pred + 1).tolist():
        errors.append(f"{path.name}: {len(rows)} rows, not one per prediction index")
        return None
    values = _float_columns(rows, (1, 2))
    if not np.all(np.isfinite(values)) or np.any(values[:, 1] < 0.0):
        errors.append(f"{path.name}: non-finite mu_hat/var_hat or negative var_hat")
    return values[:, 0]


def welford_mean(values) -> float:
    """The running mean in the program's accumulation order."""
    mean = 0.0
    for k, value in enumerate(values, 1):
        mean += (value - mean) / k
    return mean


def check_fit(name: str, state: dict, out: Path) -> list:
    wl = WORKLOADS[name]
    errors: list = []
    pred = prediction_indices(wl["m"], wl["N"])
    mu_hat = _check_predictions(out / "predictions.csv", pred, errors)
    header, rows = _read_table(out / "trace.csv")
    if len(rows) != wl["iterations"] or [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        errors.append(f"trace.csv: {len(rows)} rows for {wl['iterations']} sweeps")
        return errors
    trace = _float_columns(rows, range(1, len(header)))
    if not np.all(np.isfinite(trace)) or np.any(trace[:, -4:] <= 0.0):
        errors.append("trace.csv: non-finite entries or non-positive variances")
    kept_beta = trace[wl["burn_in"]:, 0]

    # the data has mean zero and the chain starts its intercept at zero;
    # a broken or diverging intercept update leaves the kept mean far off.
    # At n = 1000 and rho = 0.003 the intercept trades level with the
    # smooth field and mixes slowly over 80 kept sweeps, hence the margin
    y = state["y"]
    gap = abs(kept_beta.mean() - y.mean()) / y.std()
    state.setdefault("intercept_gap_sd", []).append(gap)
    if not gap <= INTERCEPT_SDS:
        errors.append(f"kept intercept mean {kept_beta.mean():.5f} is {gap:.2f} sd(y) "
                      f"from mean(y) {y.mean():.5f}")

    if name == "fit-large-data" and mu_hat is not None:
        # under carry an index never drawn keeps eta = xi = 0, so its
        # prediction is the running mean of the intercept
        intercept = welford_mean(kept_beta.tolist())
        differ = int(np.count_nonzero(np.abs(mu_hat - intercept) > 1e-9 * max(1.0, abs(intercept))))
        p_drawn = 1.0 - (1.0 - wl["n"] / wl["N"]) ** wl["iterations"]
        expected = wl["m"] * p_drawn
        sd = math.sqrt(wl["m"] * p_drawn * (1.0 - p_drawn))
        state.setdefault("visited", []).append(differ)
        if abs(differ - expected) > CHECK_SDS * sd:
            errors.append(f"{differ} prediction indices were visited, expected "
                          f"{expected:.1f} +- {CHECK_SDS:g} x {sd:.1f}")
    return errors


def select_budget(timings, budget: float) -> int:
    """The selection rule as documented: the time closest to the budget
    from below wins, ties to the larger n; when none fits, the cheapest
    wins, ties again to the larger n."""
    feasible = [(t, n) for n, t in timings if t <= budget]
    if feasible:
        return max(feasible)[1]
    return max((-t, n) for n, t in timings)[1]


def check_calibrate(name: str, state: dict, out: Path) -> list:
    wl = WORKLOADS[name]
    errors: list = []
    lo, hi, step = wl["grid"]
    grid = list(range(lo, hi + 1, step))
    pred = prediction_indices(wl["m"], wl["N"])
    header, rows = _read_table(out / "report.csv")
    if header != ["n", "wall_seconds", "cpu_seconds", "diff_to_next"] \
            or [int(r[0]) for r in rows] != grid:
        return [f"report.csv: header {header} and grid {[r[0] for r in rows]}, expected {grid}"]
    summary = json.loads((out / "summary.json").read_text())
    if summary["failed_grid"] != "":
        errors.append(f"failed grid points: {summary['failed_grid']}")
    mu = {}
    for n in grid:
        values = _check_predictions(out / f"predictions_n{n}.csv", pred, errors)
        if values is None:
            return errors
        mu[n] = values
    for (n, _, _, diff), n_next in zip(rows, grid[1:]):
        own = math.fsum((a - b) ** 2 for a, b in zip(mu[int(n)], mu[n_next]))
        if not math.isclose(float(diff), own, rel_tol=1e-9, abs_tol=1e-300):
            errors.append(f"diff_to_next at n={n}: {diff} against {own!r}")
    if rows[-1][3] != "":
        errors.append("diff_to_next on the last row is not empty")
    timings = [(int(r[0]), float(r[1])) for r in rows]
    if not all(t > 0.0 and math.isfinite(t) for _, t in timings):
        errors.append("non-positive or non-finite chain wall time")
    own_n = select_budget(timings, wl["budget_s"])
    if summary["selected_n"] != own_n:
        errors.append(f"selected_n {summary['selected_n']}, the rule gives {own_n}")
    truth = state["truth"][pred]
    rmspe = {n: math.sqrt(np.mean((mu[n] - truth) ** 2)) for n in (lo, hi)}
    state.setdefault("rmspe", []).append((rmspe[lo], rmspe[hi]))
    if not rmspe[hi] < rmspe[lo]:
        errors.append(f"RMSPE at n={hi} ({rmspe[hi]:.4f}) is not below n={lo} ({rmspe[lo]:.4f})")
    return errors


def tiny_mixture(y, variances, rho, n) -> tuple:
    """Mean and variance of the equal-weight mixture over all size-n
    subsets of beta | y_subset, with eta, xi and the noise integrated out.

    y_d | beta ~ N(beta 1, s_eta K K' + (s + s_xi) I) with K the kernel on
    the subset, and beta ~ N(0, s_beta).
    """
    from itertools import combinations

    sigma2, sigma2_eta, sigma2_xi, sigma2_beta = variances
    y = np.asarray(y, dtype=float)
    means, second = [], []
    for subset in combinations(range(y.size), n):
        coords = np.array(subset, dtype=float)
        kernel = np.exp(-rho * np.abs(coords[:, None] - coords[None, :]))
        cov = sigma2_eta * kernel @ kernel.T + (sigma2 + sigma2_xi) * np.eye(n)
        ones = np.ones(n)
        precision = 1.0 / sigma2_beta + ones @ np.linalg.solve(cov, ones)
        mean = (ones @ np.linalg.solve(cov, y[list(subset)])) / precision
        means.append(mean)
        second.append(1.0 / precision + mean**2)
    mean = float(np.mean(means))
    return mean, float(np.mean(second)) - mean**2


def check_chain(name: str, state: dict, out: Path) -> list:
    wl = WORKLOADS[name]
    beta = np.load(out / "beta.npy")
    if beta.shape != (wl["iterations"],) or not np.all(np.isfinite(beta)):
        return [f"beta trace of shape {beta.shape}, expected ({wl['iterations']},) finite"]
    kept = beta[wl["burn_in"]:]
    kept = kept[: kept.size // BATCHES * BATCHES].reshape(BATCHES, -1)
    exact_mean, exact_var = tiny_mixture(TINY_Y, TINY_VARIANCES, TINY_RHO, wl["n"])
    errors = []
    # batch means carry the chain's autocorrelation into both standard errors
    for label, batch, exact in (("mean", kept.mean(axis=1), exact_mean),
                                ("variance", ((kept - kept.mean()) ** 2).mean(axis=1), exact_var)):
        estimate = float(batch.mean())
        se = batch.std(ddof=1) / math.sqrt(BATCHES)
        state.setdefault(f"beta_{label}", []).append((estimate, exact, se))
        if abs(estimate - exact) > BATCH_SES * se + SWEEP_BIAS_FRAC * abs(exact):
            errors.append(f"kept beta {label} {estimate:.4f} against the exact mixture's "
                          f"{exact:.4f}, more than {BATCH_SES:g} x SE {se:.4f} "
                          f"+ {SWEEP_BIAS_FRAC:.0%}")
    return errors


CHECKS = {"fit": check_fit, "calibrate": check_calibrate, "chain": check_chain}
