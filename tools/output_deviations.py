"""Report how far the sampler's outputs moved between two checkouts.

Where ``tools/output_hashes.py`` says whether a change kept every output
bit, this script says by how much the values moved.  Run it first in the
reference checkout, which saves the outputs, then in the changed one,
which compares against them:

    python tools/output_deviations.py save reference.npz
    python tools/output_deviations.py compare reference.npz

It runs the chain cases of ``tools/output_hashes.py`` (not its ``cli_``
file cases) and imports the package from the ``src`` directory next to
it, so a copy of both scripts placed in another checkout measures that
checkout.  ``compare`` prints one line per case: for each output label
(``mu_hat``, ``mu_var`` and ``trace`` of a chain; ``sweep20`` pools its
chains' ``mu_hat`` and ``mu_var`` and adds the pairwise ``diffs``) the
largest absolute change relative to the largest reference magnitude,
max |new - ref| / max |ref|, then the reference and new jitter counts.
A last line gives the largest deviation over all cases and the number of
cases whose jitter count moved.  The script takes about 10 s on a 2-core
machine.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_hashes import cases  # noqa: E402


def pooled():
    """Yield (name, {label: array}, jitter), each label's arrays concatenated."""
    for name, (parts, jitter) in cases():
        arrays = {}
        for label, array in parts:
            arrays.setdefault(label, []).append(np.ravel(array))
        yield name, {label: np.concatenate(chunks) for label, chunks in arrays.items()}, jitter


def relative_deviation(reference: np.ndarray, new: np.ndarray) -> float:
    """max |new - reference| / max |reference|; NaN in both at a place counts as equal."""
    if reference.shape != new.shape:
        return float("inf")
    both_nan = np.isnan(reference) & np.isnan(new)
    change = np.where(both_nan, 0.0, np.abs(new - reference))
    scale = np.max(np.abs(np.where(both_nan, 0.0, reference)), initial=0.0)
    largest = np.max(change, initial=0.0)
    if largest == 0.0:
        return 0.0
    return largest / scale if scale > 0.0 else float("inf")


def save(path):
    arrays = {}
    for name, outputs, jitter in pooled():
        for label, array in outputs.items():
            arrays[f"{name}/{label}"] = array
        arrays[f"{name}/jitter"] = np.array(jitter)
    np.savez(path, **arrays)


def compare(path):
    reference = np.load(path)
    worst, moved = 0.0, 0
    for name, outputs, jitter in pooled():
        fields = []
        for label, array in outputs.items():
            deviation = relative_deviation(reference[f"{name}/{label}"], array)
            worst = max(worst, deviation)
            fields.append(f"{label}={deviation:.1e}")
        reference_jitter = int(reference[f"{name}/jitter"])
        moved += reference_jitter != jitter
        print(f"{name} {' '.join(fields)} j={reference_jitter}/{jitter}", flush=True)
    print(f"largest {worst:.1e}, jitter moved in {moved} cases")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("save", "compare"))
    parser.add_argument("path", help="the reference outputs (.npz)")
    args = parser.parse_args(argv)
    if args.action == "save":
        save(args.path)
    else:
        compare(args.path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
