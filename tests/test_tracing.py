"""The benchmark's tracer finds every stage name it wraps in the program.

``perfbench/tracing.py`` times a run by replacing attributes of the
``cli``, ``calibrate`` and ``gibbs`` modules for the length of the run.  A
change that deletes or renames one of those attributes, or stops resolving
it at call time, breaks the traced benchmark.  This test loads the tracer
from its file, unchanged, and checks that each stage records its spans.
"""

import importlib.util
from pathlib import Path

import numpy as np

from subsetgibbs import calibrate, cli, gibbs
from subsetgibbs.model import BasisConfig, DatasetView, FixedVariances, SamplerConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SWEEP_STAGES = {"gibbs.eta", "gibbs.xi", "gibbs.beta"}
# drawn once per block of sweeps; each chain here fits in one block
SUBSET_DRAW = "distributions.subset_draw"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pinned_great_circle_chain():
    rng = np.random.default_rng(3)
    N = 20
    latlon = np.column_stack([rng.uniform(-60, 60, N), rng.uniform(-180, 180, N)])
    data = DatasetView(y=rng.normal(size=N), x=np.ones((N, 1)), index_coords=latlon)
    config = SamplerConfig(iterations=9, burn_in=2, prediction_set=np.array([0, 5, 11]),
                           basis=BasisConfig(rho=0.3, metric="greatcircle"), seed=4,
                           fixed_variances=FixedVariances.all_of(1.0, 0.5, 0.5, 1.0),
                           prediction_refresh="prior")
    return data, config


def test_traced_fit_calibrate_and_pinned_chain_record_every_stage(tmp_path):
    assert cli.main(["simulate", "--N", "60", "--seed", "2",
                     "--output-dir", str(tmp_path / "sim")]) == 0
    common = ["--data", str(tmp_path / "sim" / "data.csv"), "--iterations", "12",
              "--burn-in", "2", "--pred-count", "6", "--seed", "1"]
    modules = (cli, calibrate, gibbs)
    before = [dict(vars(module)) for module in modules]

    tracing = load_tracing()
    recorder = tracing.SpanRecorder()
    restore = tracing.install(recorder, *modules)
    try:
        assert cli.main(["fit", "--n", "5", *common,
                         "--output-dir", str(tmp_path / "fit")]) == 0
        fit = recorder.summarize()
        first = len(recorder)
        assert cli.main(["calibrate", "--n-grid", "4:8:4", "--budget-seconds", "60",
                         "--max-parallel", "1", *common,
                         "--output-dir", str(tmp_path / "cal")]) == 0
        sweep = recorder.summarize(first)
        first = len(recorder)
        data, config = pinned_great_circle_chain()
        out = gibbs.run_chain(data, config, 4, collect_trace=True)
        pinned = recorder.summarize(first)
    finally:
        restore()
    assert [dict(vars(module)) for module in modules] == before

    assert {"cli.read", "gibbs.run_chain", "gibbs.variances",
            SUBSET_DRAW} | SWEEP_STAGES <= set(fit)
    assert all(fit[name]["calls"] == 12 for name in SWEEP_STAGES | {"gibbs.variances"})
    assert fit[SUBSET_DRAW]["calls"] == 1
    assert {"cli.read", "calibrate.run_sweep", "gibbs.run_chain",
            "gibbs.variances", SUBSET_DRAW} | SWEEP_STAGES <= set(sweep)
    assert sweep["gibbs.run_chain"]["calls"] == sweep[SUBSET_DRAW]["calls"] == 2
    assert SWEEP_STAGES | {"gibbs.run_chain", "model.kernel", SUBSET_DRAW} <= set(pinned)
    assert all(pinned[name]["calls"] == config.iterations for name in SWEEP_STAGES)
    assert pinned[SUBSET_DRAW]["calls"] == 1
    assert "gibbs.variances" not in pinned
    assert out.trace.shape == (config.iterations, 5)
    assert recorder.counters["chain_wall_s"] > 0.0
