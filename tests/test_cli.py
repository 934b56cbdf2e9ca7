"""Command behavior: formats, determinism, validation and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from subsetgibbs import __version__
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


def simulate(tmp_path, name="sim", N=400, seed=7, pred_count=40):
    out = tmp_path / name
    code = run(["simulate", "--N", str(N), "--seed", str(seed),
                "--pred-count", str(pred_count), "--output-dir", str(out)])
    assert code == EXIT_OK
    return out


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

    def test_pred_count_over_N_is_usage_error(self, tmp_path):
        code = run(["simulate", "--N", "10", "--pred-count", "11",
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
        sim = simulate(tmp_path, N=50, pred_count=10)
        out = tmp_path / "fitN"
        code = run(["fit", "--data", str(sim / "data.csv"), "--n", "50",
                    "--iterations", "60", "--burn-in", "10",
                    "--pred-count", "10", "--seed", "1", "--output-dir", str(out)])
        assert code == EXIT_OK
        assert json.loads((out / "timing.json").read_text())["n"] == 50

    def test_oversized_subset_is_usage_error(self, tmp_path):
        sim = simulate(tmp_path, N=30, pred_count=5)
        code = run(["fit", "--data", str(sim / "data.csv"), "--n", "31",
                    "--pred-count", "5", "--output-dir", str(tmp_path / "bad")])
        assert code == EXIT_USAGE

    def test_replay_manifest_reproduces_outputs(self, tmp_path):
        sim = simulate(tmp_path)
        out = tmp_path / "orig"
        assert run(["fit", "--data", str(sim / "data.csv"), "--n", "8",
                    "--iterations", "120", "--burn-in", "20", "--pred-count", "20",
                    "--seed", "5", "--output-dir", str(out)]) == EXIT_OK
        replayed = tmp_path / "replayed"
        assert replay_manifest(out / "manifest.json", output_dir=replayed) == EXIT_OK
        assert (out / "predictions.csv").read_bytes() == (replayed / "predictions.csv").read_bytes()
        assert (out / "trace.csv").read_bytes() == (replayed / "trace.csv").read_bytes()


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
        sim = simulate(tmp_path, N=200, pred_count=20)
        out = tmp_path / "cal"
        code = run(["calibrate", "--data", str(sim / "data.csv"), "--n-grid", "9",
                    "--budget-seconds", "60", "--iterations", "80", "--burn-in", "20",
                    "--pred-count", "20", "--seed", "2", "--output-dir", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["selected_n"] == 9

    def test_report_rows_match_grid(self, tmp_path):
        sim = simulate(tmp_path, N=200, pred_count=20)
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

    def test_grid_parsing_rejects_garbage(self, tmp_path):
        sim = simulate(tmp_path, N=100, pred_count=10)
        code = run(["calibrate", "--data", str(sim / "data.csv"),
                    "--n-grid", "5:1:2", "--budget-seconds", "10",
                    "--pred-count", "10", "--output-dir", str(tmp_path / "c")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["a,b", "10,x", "1:x:1", "1:5:1.5"])
    def test_non_integer_grid_is_usage_error(self, tmp_path, capsys, grid):
        sim = simulate(tmp_path, N=100, pred_count=10)
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
