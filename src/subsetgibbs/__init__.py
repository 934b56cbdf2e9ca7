"""Budget-calibrated Bayesian regression via a subset-resampling Gibbs sampler.

The sampler redraws a without-replacement data subset of size n at every
sweep and updates the regression blocks from their conjugate full
conditionals given that subset, so per-sweep cost is governed by n rather
than the dataset size.  The calibration harness runs a grid of subset
sizes, times them, and picks the n whose full fit lands closest to a
wall-clock budget without exceeding it.
"""

from .calibrate import (
    CalibrationReport,
    SweepPlan,
    pairwise_difference,
    run_sweep,
    select_budget_n,
)
from .distributions import (
    MlbParams,
    make_rng,
    mlb_log_density,
    spawn_seed,
)
from .errors import InvalidParameterError, NumericalError
from .gibbs import ChainOutput, run_chain
from .model import (
    BasisConfig,
    DatasetView,
    FixedVariances,
    SamplerConfig,
    kernel_matrix,
)
from .simdata import (
    Ar1Config,
    equally_spaced_indices,
    generate_ar1,
    rmspe,
    rste,
)

__version__ = "0.1.0"

__all__ = [
    "Ar1Config",
    "BasisConfig",
    "CalibrationReport",
    "ChainOutput",
    "DatasetView",
    "FixedVariances",
    "InvalidParameterError",
    "MlbParams",
    "NumericalError",
    "SamplerConfig",
    "SweepPlan",
    "equally_spaced_indices",
    "generate_ar1",
    "kernel_matrix",
    "make_rng",
    "mlb_log_density",
    "pairwise_difference",
    "rmspe",
    "rste",
    "run_chain",
    "run_sweep",
    "select_budget_n",
    "spawn_seed",
]
