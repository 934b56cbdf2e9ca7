"""Command behavior: formats, determinism, validation and exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import subsetgibbs.cli as cli
from subsetgibbs import (
    CalibrationReport,
    ChainOutput,
    NumericalError,
    __version__,
    pairwise_difference,
)
from subsetgibbs.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_data_csv,
    replay_manifest,
)


def run(argv):
    return main(argv)


def simulate(tmp_path, name="sim", N=400, seed=7):
    out = tmp_path / name
    code = run(["simulate", "--N", str(N), "--seed", str(seed), "--output-dir", str(out)])
    assert code == EXIT_OK
    return out


def overflowing_data(tmp_path, size=1e160):
    """50 finite rows of +-size; squares of the default 1e160 overflow a float."""
    data = tmp_path / "data.csv"
    data.write_text("index,y\n" + "".join(f"{i},{(-1) ** i * size!r}\n" for i in range(1, 51)))
    return data


class TestSimulate:
    def test_writes_both_files_with_headers(self, tmp_path):
        out = simulate(tmp_path)
        data_lines = (out / "data.csv").read_text().splitlines()
        truth_lines = (out / "truth.csv").read_text().splitlines()
        assert data_lines[0] == "index,y"
        assert truth_lines[0] == "index,mu"
        assert len(data_lines) == 401

    def test_byte_identical_across_runs(self, tmp_path):
        a = simulate(tmp_path, "a", seed=11)
        b = simulate(tmp_path, "b", seed=11)
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()

    def test_default_flags_accept_fewer_than_1000_rows(self, tmp_path):
        # simulate used to check a prediction-set size it never used, 1,000
        # by default, against --N, so --N 500 exited 2
        out = tmp_path / "x"
        assert run(["simulate", "--N", "500", "--output-dir", str(out)]) == EXIT_OK
        assert len((out / "data.csv").read_text().splitlines()) == 501
        assert len((out / "truth.csv").read_text().splitlines()) == 501

    @pytest.mark.parametrize("flag, value", [("--noise-var", "-1"), ("--noise-var", "0"),
                                             ("--noise-var", "nan"), ("--noise-var", "inf")])
    def test_invalid_value_names_its_flag_before_any_directory(self, tmp_path, capsys,
                                                               flag, value):
        code = run(["simulate", "--N", "10", flag, value,
                    "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nan_phi_is_usage_error_before_any_directory(self, tmp_path, capsys):
        code = run(["simulate", "--N", "10", "--phi", "nan",
                    "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "phi" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_seed_is_usage_error_before_any_directory(self, tmp_path):
        code = run(["simulate", "--N", "10", "--seed", "-1",
                    "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x").exists()

    def test_manifest_written(self, tmp_path):
        out = simulate(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["master_seed"] == 7
        assert "--N" in manifest["argv"]
        assert manifest["version"] == f"subsetgibbs-{__version__}"


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "-3"), ("simulate", "--seed", str(2**64)),
    ("fit", "--seed", "-3"), ("calibrate", "--seed", "-3"),
    ("fit", "--rho", "0"), ("fit", "--rho", "inf"), ("calibrate", "--rho", "-1"),
    ("calibrate", "--rho", "nan"), ("simulate", "--N", "0"), ("simulate", "--phi", "nan"),
    ("simulate", "--phi", "inf"),
])
def test_bad_value_names_the_flag(tmp_path, capsys, command, flag, value):
    # argparse keeps the last occurrence of a repeated flag
    sim = simulate(tmp_path, N=30)
    out = tmp_path / "bad"
    argv = {
        "simulate": ["simulate", "--N", "10"],
        "fit": ["fit", "--data", str(sim / "data.csv"), "--n", "5", "--pred-count", "5"],
        "calibrate": ["calibrate", "--data", str(sim / "data.csv"), "--n-grid", "5,10",
                      "--budget-seconds", "1", "--pred-count", "5"],
    }[command]
    capsys.readouterr()
    assert run(argv + [flag, value, "--output-dir", str(out)]) == EXIT_USAGE
    assert f"error: {flag} must be" in capsys.readouterr().err
    assert not out.exists()


class TestReadDataCsv:
    def test_intercept_and_coord_defaults(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("index,y\n1,0.5\n2,-0.25\n")
        data = read_data_csv(path)
        np.testing.assert_array_equal(data.x, np.ones((2, 1)))
        np.testing.assert_array_equal(data.index_coords, [1.0, 2.0])

    def test_explicit_covariates_and_coord(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("index,y,x1,x2,coord\n1,0.5,1.0,2.0,10.0\n2,1.5,1.0,3.0,20.0\n")
        data = read_data_csv(path)
        np.testing.assert_array_equal(data.x, [[1.0, 2.0], [1.0, 3.0]])
        np.testing.assert_array_equal(data.index_coords, [10.0, 20.0])

    def test_rejects_noncontiguous_index(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("index,y\n1,0.5\n3,1.0\n")
        with pytest.raises(Exception):
            read_data_csv(path)


class TestFit:
    @pytest.mark.parametrize("bad_row", ["2,abc", "2", "2,1.0,3.0"])
    def test_malformed_data_row_is_usage_error(self, tmp_path, capsys, bad_row):
        data = tmp_path / "data.csv"
        data.write_text(f"index,y\n1,0.5\n{bad_row}\n3,0.25\n")
        code = run(["fit", "--data", str(data), "--n", "2", "--pred-count", "2",
                    "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert str(data) in capsys.readouterr().err

    def test_repeated_header_name_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("index,y,x1,x1\n1,0.5,1.0,2.0\n2,0.25,1.0,3.0\n")
        code = run(["fit", "--data", str(data), "--n", "2", "--pred-count", "2",
                    "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert str(data) in capsys.readouterr().err

    def test_unknown_column_is_usage_error(self, tmp_path, capsys):
        # a misspelt coord must not fall back to fitting on the index
        data = tmp_path / "data.csv"
        data.write_text("index,y,cord\n1,0.5,10.0\n2,0.25,20.0\n")
        code = run(["fit", "--data", str(data), "--n", "2", "--pred-count", "2",
                    "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "'cord'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_outputs_and_determinism(self, tmp_path):
        sim = simulate(tmp_path)
        fits = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            code = run(["fit", "--data", str(sim / "data.csv"), "--n", "12",
                        "--iterations", "200", "--burn-in", "50",
                        "--pred-count", "40", "--seed", "3",
                        "--output-dir", str(out)])
            assert code == EXIT_OK
            fits.append(out)
        a, b = fits
        assert (a / "predictions.csv").read_bytes() == (b / "predictions.csv").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        header = (a / "trace.csv").read_text().splitlines()[0]
        assert header == "iteration,beta_1,sigma2,sigma2_eta,sigma2_xi,sigma2_beta"

    def test_kept_iterations_recorded(self, tmp_path):
        sim = simulate(tmp_path)
        out = tmp_path / "fit"
        code = run(["fit", "--data", str(sim / "data.csv"), "--n", "5",
                    "--iterations", "1100", "--burn-in", "1000",
                    "--pred-count", "10", "--seed", "0", "--output-dir", str(out)])
        assert code == EXIT_OK
        timing = json.loads((out / "timing.json").read_text())
        assert timing["iterations_kept"] == 100
        assert timing["n"] == 5
        assert timing["wall_seconds"] >= 0.0

    def test_full_subset_boundary(self, tmp_path):
        sim = simulate(tmp_path, N=50)
        out = tmp_path / "fitN"
        code = run(["fit", "--data", str(sim / "data.csv"), "--n", "50",
                    "--iterations", "60", "--burn-in", "10",
                    "--pred-count", "10", "--seed", "1", "--output-dir", str(out)])
        assert code == EXIT_OK
        assert json.loads((out / "timing.json").read_text())["n"] == 50

    def test_oversized_subset_is_usage_error(self, tmp_path):
        sim = simulate(tmp_path, N=30)
        code = run(["fit", "--data", str(sim / "data.csv"), "--n", "31",
                    "--pred-count", "5", "--output-dir", str(tmp_path / "bad")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command, count", [("fit", "0"), ("calibrate", "-5"),
                                                ("fit", "31")])
    def test_pred_count_outside_one_to_N_names_the_flag(self, tmp_path, capsys, command,
                                                         count):
        sim = simulate(tmp_path, N=30)
        argv = [command, "--data", str(sim / "data.csv"), "--pred-count", count,
                "--output-dir", str(tmp_path / "bad")]
        argv += (["--n", "5"] if command == "fit"
                 else ["--n-grid", "5,10", "--budget-seconds", "1"])
        assert run(argv) == EXIT_USAGE
        assert "--pred-count" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command, extra, flag", [
        ("fit", ["--iterations", "0"], "--iterations"),
        ("fit", ["--iterations", "100"], "--burn-in"),
        ("fit", ["--burn-in", "-1"], "--burn-in"),
        ("calibrate", ["--iterations", "200"], "--burn-in"),
        ("calibrate", ["--budget-seconds", "-1"], "--budget-seconds"),
        ("calibrate", ["--budget-seconds", "nan"], "--budget-seconds"),
        ("calibrate", ["--max-parallel", "0"], "--max-parallel"),
        ("calibrate", ["--budget-seconds", "inf"], "--budget-seconds"),
    ])
    def test_invalid_sampler_or_plan_value_names_its_flag(self, tmp_path, capsys, command,
                                                          extra, flag):
        # argparse keeps the last occurrence of a repeated flag
        sim = simulate(tmp_path, N=30)
        argv = [command, "--data", str(sim / "data.csv"), "--pred-count", "5",
                "--output-dir", str(tmp_path / "bad")]
        argv += (["--n", "5"] if command == "fit"
                 else ["--n-grid", "5,10", "--budget-seconds", "1"])
        assert run(argv + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command, extra, flag", [
        ("fit", ["--rho", "nan"], "--rho"),
        ("fit", ["--burn-in", "5", "--iterations", "5"], "--burn-in"),
        ("calibrate", ["--rho", "0"], "--rho"),
        ("calibrate", ["--burn-in", "5", "--iterations", "5"], "--burn-in"),
    ])
    def test_data_free_flag_is_checked_before_the_data_is_read(self, tmp_path, capsys,
                                                               command, extra, flag):
        # these checks ran after the read, so a missing file exited 4 first
        argv = [command, "--data", str(tmp_path / "missing.csv"),
                "--output-dir", str(tmp_path / "bad")]
        argv += (["--n", "5"] if command == "fit"
                 else ["--n-grid", "5", "--budget-seconds", "1"])
        assert run(argv + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (tmp_path / "bad").exists()

    def test_huge_rho_fits_the_identity_kernel_without_warnings(self, tmp_path, capsys):
        # rho * gap overflows to inf, whose exponential limits are exact
        sim = simulate(tmp_path, N=30)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["fit", "--data", str(sim / "data.csv"), "--n", "10", "--rho", "1e308",
                        "--iterations", "40", "--burn-in", "10", "--pred-count", "5",
                        "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_overflowing_data_is_numerical_error(self, tmp_path, capsys):
        # squares of 1e160 overflow, which used to end in a ZeroDivisionError
        # traceback from the variance step
        data = overflowing_data(tmp_path)
        with np.errstate(all="ignore"):
            code = run(["fit", "--data", str(data), "--n", "10", "--iterations", "20",
                        "--burn-in", "5", "--pred-count", "5",
                        "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "not finite" in err and "[n=10]" in err and "[iteration=" in err

    def test_overflowing_xi_variance_is_named_by_the_xi_step(self, tmp_path, capsys):
        # +-1e140 data drives sigma2 and sigma2_xi near 3e279 after one sweep,
        # so the xi variance's product overflows in the second; that used to
        # surface one step later as a non-finite sum of squares
        data = overflowing_data(tmp_path, size=1e140)
        with np.errstate(all="ignore"):
            code = run(["fit", "--data", str(data), "--n", "50", "--iterations", "20",
                        "--burn-in", "5", "--pred-count", "5",
                        "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "xi conditional variance is not finite" in err
        assert "variance conditionals" not in err
        assert "[n=50] [iteration=2]" in err

    @pytest.mark.parametrize("equals_form", [False, True], ids=["space", "equals"])
    def test_replay_manifest_reproduces_outputs(self, tmp_path, equals_form):
        sim = simulate(tmp_path)
        out = tmp_path / "orig"
        output_flag = [f"--output-dir={out}"] if equals_form else ["--output-dir", str(out)]
        assert run(["fit", "--data", str(sim / "data.csv"), "--n", "8",
                    "--iterations", "120", "--burn-in", "20", "--pred-count", "20",
                    "--seed", "5", *output_flag]) == EXIT_OK
        replayed = tmp_path / "replayed"
        assert replay_manifest(out / "manifest.json", output_dir=replayed) == EXIT_OK
        assert (out / "predictions.csv").read_bytes() == (replayed / "predictions.csv").read_bytes()
        assert (out / "trace.csv").read_bytes() == (replayed / "trace.csv").read_bytes()


class TestNonUtf8Input:
    @pytest.mark.parametrize("role", ["fit", "calibrate", "predictions", "truth", "holdout"])
    def test_is_usage_error_before_any_directory(self, tmp_path, capsys, role):
        # a byte-order mark of UTF-16 used to raise UnicodeDecodeError (exit 1)
        files = {"data": "index,y\n1,0.5\n2,0.1\n",
                 "predictions": "index,mu_hat,var_hat\n1,0.5,0.0\n",
                 "truth": "index,mu\n1,0.5\n",
                 "holdout": "index,y\n1,0.5\n"}
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        broken = paths["data" if role in ("fit", "calibrate") else role]
        broken.write_bytes(b"\xff\xfe" + broken.read_bytes())
        out = tmp_path / "o"
        if role == "fit":
            argv = ["fit", "--data", str(broken), "--n", "1", "--pred-count", "1"]
        elif role == "calibrate":
            argv = ["calibrate", "--data", str(broken), "--n-grid", "1",
                    "--budget-seconds", "1", "--pred-count", "1"]
        else:
            reference = "holdout" if role == "holdout" else "truth"
            argv = ["score", "--predictions", str(paths["predictions"]),
                    f"--{reference}", str(paths[reference])]
        assert run(argv + ["--output-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(broken) in err and "UTF-8" in err
        assert not out.exists()


class TestScore:
    def test_perfect_predictions_score_zero(self, tmp_path):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("index,mu_hat,var_hat\n1,0.5,0.0\n2,-1.0,0.0\n")
        truth.write_text("index,mu\n1,0.5\n2,-1.0\n")
        out = tmp_path / "score"
        code = run(["score", "--predictions", str(pred), "--truth", str(truth),
                    "--output-dir", str(out)])
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmspe"] == 0.0
        assert metrics["count"] == 2

    def test_takes_no_seed(self, tmp_path):
        # scoring draws no variate: the manifest records no seed, and a
        # --seed flag is unknown
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("index,mu_hat,var_hat\n1,0.5,0.0\n")
        truth.write_text("index,mu\n1,0.5\n")
        argv = ["score", "--predictions", str(pred), "--truth", str(truth)]
        out = tmp_path / "score"
        assert run(argv + ["--output-dir", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["master_seed"] is None
        assert run(argv + ["--seed", "1", "--output-dir", str(tmp_path / "seeded")]) == EXIT_USAGE
        assert not (tmp_path / "seeded").exists()

    def test_holdout_mode_emits_rste(self, tmp_path):
        pred = tmp_path / "p.csv"
        holdout = tmp_path / "h.csv"
        pred.write_text("index,mu_hat,var_hat\n1,1.0,0.0\n")
        holdout.write_text("index,y\n1,3.0\n")
        out = tmp_path / "score"
        code = run(["score", "--predictions", str(pred), "--holdout", str(holdout),
                    "--output-dir", str(out)])
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rste"] == pytest.approx(2.0)

    def test_missing_indices_listed_as_usage_error(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("index,mu_hat,var_hat\n1,0.5,0.0\n7,0.1,0.0\n")
        truth.write_text("index,mu\n1,0.5\n")
        code = run(["score", "--predictions", str(pred), "--truth", str(truth),
                    "--output-dir", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        assert "7" in capsys.readouterr().err

    def test_non_numeric_prediction_is_usage_error(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("index,mu_hat,var_hat\n1,oops,0.0\n")
        truth.write_text("index,mu\n1,0.5\n")
        code = run(["score", "--predictions", str(pred), "--truth", str(truth),
                    "--output-dir", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        assert str(pred) in capsys.readouterr().err

    @pytest.mark.parametrize("duplicated", ["predictions", "truth", "holdout"])
    def test_duplicate_index_is_usage_error(self, tmp_path, capsys, duplicated):
        files = {"predictions": "index,mu_hat,var_hat\n1,0.5,0.0\n2,0.1,0.0\n",
                 "truth": "index,mu\n1,0.5\n2,0.1\n",
                 "holdout": "index,y\n1,0.5\n2,0.1\n"}
        files[duplicated] += files[duplicated].splitlines()[1] + "\n"
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        reference = "holdout" if duplicated == "holdout" else "truth"
        code = run(["score", "--predictions", str(paths["predictions"]),
                    f"--{reference}", str(paths[reference]),
                    "--output-dir", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        assert str(paths[duplicated]) in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["predictions", "truth", "holdout"])
    def test_non_finite_scored_value_is_usage_error(self, tmp_path, capsys, broken):
        # var_hat may be NaN (one kept sweep), so a NaN there must pass and the
        # error must name the file whose scored column is broken
        files = {"predictions": "index,mu_hat,var_hat\n1,0.5,nan\n2,0.1,nan\n",
                 "truth": "index,mu\n1,0.5\n2,0.1\n",
                 "holdout": "index,y\n1,0.5\n2,0.1\n"}
        files[broken] = files[broken].replace("2,0.1", "2,nan" if broken != "truth" else "2,inf")
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        reference = "holdout" if broken == "holdout" else "truth"
        code = run(["score", "--predictions", str(paths["predictions"]),
                    f"--{reference}", str(paths[reference]),
                    "--output-dir", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(paths[broken]) in err and "index 2" in err

    def test_requires_exactly_one_reference(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("index,mu_hat,var_hat\n1,0.5,0.0\n")
        code = run(["score", "--predictions", str(pred),
                    "--output-dir", str(tmp_path / "s")])
        assert code == EXIT_USAGE


class TestCalibrate:
    def test_singleton_grid_echoes_selection(self, tmp_path):
        sim = simulate(tmp_path, N=200)
        out = tmp_path / "cal"
        code = run(["calibrate", "--data", str(sim / "data.csv"), "--n-grid", "9",
                    "--budget-seconds", "60", "--iterations", "80", "--burn-in", "20",
                    "--pred-count", "20", "--seed", "2", "--output-dir", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["selected_n"] == 9

    def test_report_rows_match_grid(self, tmp_path):
        sim = simulate(tmp_path, N=200)
        out = tmp_path / "cal"
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", "4:12:4", "--budget-seconds", "60",
                    "--iterations", "60", "--burn-in", "10", "--pred-count", "20",
                    "--seed", "2", "--output-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        assert [row.split(",")[0] for row in lines[1:]] == ["4", "8", "12"]
        for n in (4, 8, 12):
            assert (out / f"predictions_n{n}.csv").exists()

    def test_report_and_summary_round_trip(self, tmp_path, scripted_timings):
        scripted_timings({4: 10.0, 8: 20.0, 12: 45.0})
        sim = simulate(tmp_path, N=200)
        out = tmp_path / "cal"
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", "4:12:4", "--budget-seconds", "30",
                    "--iterations", "60", "--burn-in", "10", "--pred-count", "20",
                    "--seed", "2", "--output-dir", str(out)])
        assert code == EXIT_OK

        with open(out / "report.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "wall_seconds", "cpu_seconds", "diff_to_next"]
        assert len(rows) == 4
        assert rows[1][0] == "4" and float(rows[1][1]) == 10.0
        assert rows[3][3] == ""  # last row has no next neighbor
        mu_4, mu_8 = (np.loadtxt(out / f"predictions_n{n}.csv", delimiter=",",
                                 skiprows=1, usecols=1) for n in (4, 8))
        assert float(rows[1][3]) == pairwise_difference(mu_4, mu_8)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["selected_n"] == 8
        assert summary["budget_met"] is True
        assert summary["budget_seconds"] == 30.0
        assert summary["grid"] == "4,8,12"
        assert summary["used_cpu_time"] is False
        assert summary["selected_wall_seconds"] == 20.0

    def test_use_cpu_time_selects_on_cpu_seconds(self, tmp_path, scripted_timings):
        # by wall time nothing fits the budget; by CPU time n = 8 does
        scripted_timings(wall={4: 1000.0, 8: 1000.0}, cpu={4: 100.0, 8: 40.0})
        sim = simulate(tmp_path, N=200)
        out = tmp_path / "cal"
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", "4,8", "--budget-seconds", "50", "--use-cpu-time",
                    "--iterations", "60", "--burn-in", "10", "--pred-count", "20",
                    "--seed", "2", "--output-dir", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["used_cpu_time"] is True
        assert summary["selected_n"] == 8
        assert summary["budget_met"] is True
        assert summary["selected_cpu_seconds"] == 40.0

    def test_failure_messages_reach_the_summary(self, tmp_path, monkeypatch):
        import subsetgibbs.calibrate as calibrate
        real = calibrate.run_chain

        def failing_at_8(data, config, n, **kwargs):
            if n == 8:
                raise NumericalError("precision not positive definite", n=n, iteration=3)
            return real(data, config, n, **kwargs)

        monkeypatch.setattr(calibrate, "run_chain", failing_at_8)
        sim = simulate(tmp_path, N=200)
        out = tmp_path / "cal"
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", "4:12:4", "--budget-seconds", "60",
                    "--iterations", "30", "--burn-in", "10", "--pred-count", "20",
                    "--seed", "2", "--output-dir", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid"] == "4,12"
        assert summary["failed_grid"] == "8"
        [failure] = summary["failures"]
        assert failure["n"] == 8
        assert "precision not positive definite" in failure["message"]
        assert "iteration=3" in failure["message"]

    def test_overflowing_data_fails_every_point_with_context(self, tmp_path, capsys):
        # each point used to be recorded as a bare ZeroDivisionError
        with np.errstate(all="ignore"):
            code = run(["calibrate", "--data", str(overflowing_data(tmp_path)),
                        "--n-grid", "5,10", "--budget-seconds", "60", "--iterations", "20",
                        "--burn-in", "5", "--pred-count", "5",
                        "--output-dir", str(tmp_path / "cal")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        for n in (5, 10):
            assert f"n={n}: variance conditionals" in err and f"[n={n}] [iteration=" in err

    def test_grid_parsing_rejects_garbage(self, tmp_path):
        sim = simulate(tmp_path, N=100)
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", "5:1:2", "--budget-seconds", "10",
                    "--pred-count", "10", "--output-dir", str(tmp_path / "c")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", [
        "1:100000000000000000000:1", "1:51:1", "0:10:5", "5:1:2", "1:10:0",
        "10,5", "5,5", "0,5", "5,51", "", ",",
    ])
    def test_grid_outside_one_to_N_names_the_flag(self, tmp_path, capsys, grid):
        # N = 50; a range is checked before it is built, so 1e20 allocates nothing
        sim = simulate(tmp_path, N=50)
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", grid, "--budget-seconds", "10",
                    "--pred-count", "5", "--output-dir", str(tmp_path / "c")])
        assert code == EXIT_USAGE
        assert "--n-grid" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("grid", ["a,b", "10,x", "1:x:1", "1:5:1.5"])
    def test_non_integer_grid_is_usage_error(self, tmp_path, capsys, grid):
        sim = simulate(tmp_path, N=100)
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", grid, "--budget-seconds", "10",
                    "--pred-count", "10", "--output-dir", str(tmp_path / "c")])
        assert code == EXIT_USAGE
        assert "is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_unknown_flag_is_usage_error(self):
        assert run(["calibrate", "--bogus"]) == EXIT_USAGE

    def test_missing_data_file_is_io_or_usage_error(self, tmp_path):
        code = run(["fit", "--data", str(tmp_path / "nope.csv"), "--n", "5",
                    "--pred-count", "5", "--output-dir", str(tmp_path / "o")])
        assert code in (EXIT_USAGE, 4)


def chain_output(mu_hat, mu_var, wall=0.0, cpu=0.0, trace=None):
    return ChainOutput(mu_hat=np.array(mu_hat), mu_var=np.array(mu_var),
                       elapsed_cpu_seconds=cpu, elapsed_wall_seconds=wall, trace=trace)


class TestCsvBytes:
    """Exact bytes of each CSV layout, written by the command that owns it."""

    def data(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("index,y,x1,x2\n1,0.5,1,0.1\n2,-0.2,1,0.3\n3,0.9,1,-0.4\n4,0.1,1,0.2\n")
        return data

    def test_fit_predictions_and_trace(self, tmp_path, monkeypatch):
        # a NaN variance (one kept sweep), the smallest subnormal and
        # extreme exponents; a trace with p = 2
        trace = np.array([[0.25, -1e-05, 1.5, 2.0, 0.1, 3.0],
                          [-0.75, 2.0 / 3.0, 1e-300, 4.5, 7.0, 1e20]])
        out = chain_output([0.1, -2.5e-300, 1e300, 1.0 / 3.0],
                           [np.nan, 0.0, 5e-324, 123456789.125], trace=trace)
        monkeypatch.setattr(cli, "run_chain", lambda *args, **kwargs: out)
        target = tmp_path / "o"
        code = run(["fit", "--data", str(self.data(tmp_path)), "--n", "2", "--iterations", "3",
                    "--burn-in", "1", "--pred-count", "4", "--output-dir", str(target)])
        assert code == EXIT_OK
        assert (target / "predictions.csv").read_bytes() == (
            b"index,mu_hat,var_hat\r\n"
            b"1,0.1,nan\r\n"
            b"2,-2.5e-300,0.0\r\n"
            b"3,1e+300,5e-324\r\n"
            b"4,0.3333333333333333,123456789.125\r\n")
        assert (target / "trace.csv").read_bytes() == (
            b"iteration,beta_1,beta_2,sigma2,sigma2_eta,sigma2_xi,sigma2_beta\r\n"
            b"1,0.25,-1e-05,1.5,2.0,0.1,3.0\r\n"
            b"2,-0.75,0.6666666666666666,1e-300,4.5,7.0,1e+20\r\n")

    def test_calibrate_report_and_predictions(self, tmp_path, monkeypatch):
        per_n = [(1, chain_output([0.5, -1.0], [0.25, np.nan], wall=1.5, cpu=0.125)),
                 (3, chain_output([2.0, 1e-310], [1.0, 2.0], wall=4.0, cpu=3.75))]
        report = CalibrationReport(per_n=per_n, selected_n=3, pairwise_diffs=[(1, 0.1)],
                                   budget_met=True, failures=[])
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: report)
        target = tmp_path / "cal"
        code = run(["calibrate", "--data", str(self.data(tmp_path)), "--n-grid", "1,3",
                    "--budget-seconds", "10", "--pred-count", "2", "--output-dir", str(target)])
        assert code == EXIT_OK
        assert (target / "report.csv").read_bytes() == (
            b"n,wall_seconds,cpu_seconds,diff_to_next\r\n"
            b"1,1.5,0.125,0.1\r\n"
            b"3,4.0,3.75,\r\n")
        assert (target / "predictions_n1.csv").read_bytes() == (
            b"index,mu_hat,var_hat\r\n1,0.5,0.25\r\n3,-1.0,nan\r\n")
        assert (target / "predictions_n3.csv").read_bytes() == (
            b"index,mu_hat,var_hat\r\n1,2.0,1.0\r\n3,1e-310,2.0\r\n")


class TestReplayManifest:
    """A replay reproduces every data output of each command; timings may differ."""

    def replay(self, tmp_path, out):
        replayed = tmp_path / "replayed"
        assert replay_manifest(out / "manifest.json", output_dir=replayed) == EXIT_OK
        return replayed

    def test_simulate(self, tmp_path):
        out = simulate(tmp_path)
        replayed = self.replay(tmp_path, out)
        for name in ("data.csv", "truth.csv"):
            assert (out / name).read_bytes() == (replayed / name).read_bytes()

    def test_calibrate(self, tmp_path):
        sim = simulate(tmp_path, N=200)
        out = tmp_path / "cal"
        assert run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", "4:12:4", "--budget-seconds", "60",
                    "--iterations", "60", "--burn-in", "10", "--pred-count", "20",
                    "--seed", "2", "--output-dir", str(out)]) == EXIT_OK
        replayed = self.replay(tmp_path, out)
        for n in (4, 8, 12):
            name = f"predictions_n{n}.csv"
            assert (out / name).read_bytes() == (replayed / name).read_bytes()

        def report_columns(directory):
            with open(directory / "report.csv", newline="") as handle:
                return [(row["n"], row["diff_to_next"]) for row in csv.DictReader(handle)]

        assert report_columns(out) == report_columns(replayed)
        assert len(report_columns(out)) == 3

    def test_score(self, tmp_path):
        sim = simulate(tmp_path)
        fit = tmp_path / "fit"
        assert run(["fit", "--data", str(sim / "data.csv"), "--n", "8",
                    "--iterations", "60", "--burn-in", "10", "--pred-count", "40",
                    "--output-dir", str(fit)]) == EXIT_OK
        out = tmp_path / "score"
        assert run(["score", "--predictions", str(fit / "predictions.csv"),
                    "--truth", str(sim / "truth.csv"), "--output-dir", str(out)]) == EXIT_OK
        replayed = self.replay(tmp_path, out)
        assert (out / "metrics.json").read_bytes() == (replayed / "metrics.json").read_bytes()


def test_import_leaves_the_heavy_scipy_modules_unloaded():
    # each pulls in hundreds of modules; the functions that need one
    # import it when they run
    heavy = ("scipy.signal", "scipy.special", "scipy.stats")
    code = f"import sys, subsetgibbs.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert loaded.strip() == "[]"
