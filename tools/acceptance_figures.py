"""Print criterion 4's acceptance figures at one or more master seeds.

    python tools/acceptance_figures.py 7 8 9

For each master seed the script runs criterion 4's simulation study (the
acceptance data, grid and sweeps of ``tests/test_acceptance.py``,
serially) and prints one line: the 4a Spearman correlation, the 4b
variance ratios at the first and last grid points (n = 10 and 200), the
4c grid indices of the largest RMSPE and pairwise-diff drops with their
gap, and the RMSPE at n = 10, 50 and 200.  The study and the 4b and 4c
figures come from the acceptance test module itself, so the script
reports exactly what those tests assert.  It imports the package from
the ``src`` directory next to it and takes about 8 s per seed on a
2-core machine.
"""

import argparse
import sys
from pathlib import Path

import scipy.stats as st

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import largest_drops, run_simulation_study, variance_ratios  # noqa: E402


def figures(master_seed: int) -> str:
    study = run_simulation_study(master_seed, max_parallel=1)
    grid, rmspes = study["grid"].tolist(), study["rmspes"]
    spearman = st.spearmanr(grid, rmspes).statistic
    (low, high), _ = variance_ratios(study)
    rmspe_drop, diff_drop = largest_drops(study)
    rmspe_at = " / ".join(f"{rmspes[grid.index(n)]:.3f}" for n in (10, 50, 200))
    return (f"seed {master_seed}: 4a spearman {spearman:.3f} (<= -0.8); "
            f"4b {low:.3f} at n=10 (< 0.5), {high:.3f} at n=200 (> 0.8); "
            f"4c drops at {rmspe_drop} and {diff_drop}, gap {abs(rmspe_drop - diff_drop)} "
            f"(<= 3); RMSPE n=10/50/200 {rmspe_at}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED", help="master seeds")
    for seed in parser.parse_args(argv).seeds:
        print(figures(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
