"""Run the benchmark in alternating pairs of a parent commit and the working tree.

    python tools/bench_pairs.py PARENT_REF OUTPUT.json [--pairs 10] [--seed 2401]

The parent side is ``git archive PARENT_REF`` unpacked into a temporary
directory; the change side is a copy of the working tree's ``src``, the
benchmark's own directories, ``pyproject.toml`` and ``BENCHMARK.json``.
Each side runs from its own directory, so both build what they run from
their own source.  For every workload in ``BENCHMARK.json`` and every
pair, both sides run the benchmark command with ``--trace 0``, the
pair's seed (``--seed`` plus the pair's index) and ``run_seconds``; odd
pairs run the parent first, even pairs the change.  After its pairs, each
workload runs once more per side with ``--trace 1`` at the seed after the
last pair's, parent first, for the per-layer metrics.

``OUTPUT.json`` gets the ``commits``, ``context``, ``workloads`` and
``per_layer`` parts of the ``BENCH_<PR>.json`` shape.  ``workloads``
holds per workload the seeds, which side ran first, the pair count, the
attempted, failed and correct operations of each side, and per
end-to-end metric both sides' runs, medians and quartiles, the change's
median over the parent's and the pairs the change wins in the metric's
``better`` direction (ties count for neither).  ``per_layer`` holds per
workload the traced runs' seed, whether both were correct, their
attempted and failed operations and, per metric of ``BENCHMARK.json``'s
``per_layer`` list, both sides' values and the change's over the
parent's (null where the parent's is 0).  The script leaves any bound to
``BENCHMARK.json``; it exits 1 when a run fails, when an operation fails
or when an output check fails.  Each run takes ``run_seconds`` plus its
input setup, so ten pairs of two workloads are forty runs, and the traced
runs four more.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_parent(ref: str, target: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def copy_working_tree(paths, target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "work", "results")
    for name in ["src", *paths]:
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy2(ROOT / name, target / name)


def run_once(checkout: Path, command, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run; returns its summary and machine context."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    context, summary = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return dict(summary, context=context["context"])


def quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summarize(pairs, end_to_end) -> dict:
    """One workload's part of the file from its pairs of runs.

    ``pairs`` holds one dict per pair: ``seed``, ``first`` (the side that
    ran first) and, per side, the summary the benchmark prints
    (``correct``, ``attempted``, ``failed`` and ``metrics``, each metric a
    ``{"value": ...}``).  ``end_to_end`` is ``BENCHMARK.json``'s list of
    end-to-end metrics with their ``better`` directions.
    """
    part = {
        "seeds": [pair["seed"] for pair in pairs],
        "first": [pair["first"] for pair in pairs],
        "pairs": len(pairs),
        "all_correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
        "correct": {side: sum(bool(pair[side]["correct"]) for pair in pairs) for side in SIDES},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES},
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "metrics": {},
    }
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        runs = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                for side in SIDES}
        wins = sum(sign * (change - parent) > 0
                   for parent, change in zip(runs["parent"], runs["change"]))
        spread = {side: quartiles(runs[side]) for side in SIDES}
        part["metrics"][name] = {
            "better": metric["better"],
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
            "parent_quartiles": spread["parent"],
            "change_quartiles": spread["change"],
            "parent_median": spread["parent"][1],
            "change_median": spread["change"][1],
            "change_over_parent": spread["change"][1] / spread["parent"][1],
            "change_wins": f"{wins} of {len(pairs)}",
        }
    return part


def summarize_traced(traced, per_layer) -> dict:
    """One workload's part of ``per_layer`` from its traced run per side.

    ``traced`` holds the ``seed`` and, per side, the summary the
    benchmark prints with ``--trace 1``; ``per_layer`` is
    ``BENCHMARK.json``'s list of per-layer metrics.
    """
    part = {
        "seed": traced["seed"],
        "all_correct": all(traced[side]["correct"] for side in SIDES),
        "attempted": {side: traced[side]["attempted"] for side in SIDES},
        "failed": {side: traced[side]["failed"] for side in SIDES},
        "metrics": {},
    }
    for metric in per_layer:
        name = metric["name"]
        parent, change = (traced[side]["metrics"][name]["value"] for side in SIDES)
        part["metrics"][name] = {
            "better": metric["better"],
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "change_over_parent": change / parent if parent else None,
        }
    return part


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent side")
    parser.add_argument("output", type=Path, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2401, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", *benchmark["paths"]))
    document = {
        "commits": {
            "parent": parent_sha,
            "parent_src_tree": git("rev-parse", f"{parent_sha}:src"),
            "change": f"working tree at {head}" + (" with uncommitted changes" if dirty else ""),
        },
        "benchmark": (f"{' '.join(benchmark['command'])} --workload W --seed S --seconds "
                      f"{benchmark['run_seconds']} --trace 0, each side from its own copy; "
                      "odd pairs parent first; quartiles are numpy's linear percentiles; "
                      "then one --trace 1 run per side and workload, parent first"),
        "context": None,
        "workloads": {},
        "per_layer": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        export_parent(parent_sha, checkouts["parent"])
        copy_working_tree(benchmark["paths"], checkouts["change"])
        for workload in benchmark["workloads"]:
            pairs = []
            for index in range(args.pairs):
                seed = args.seed + index
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], benchmark["command"],
                                          workload["name"], seed, benchmark["run_seconds"])
                    context = pair[side].pop("context")
                    document["context"] = document["context"] or context
                    print(f"{workload['name']} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
                pairs.append(pair)
            document["workloads"][workload["name"]] = summarize(pairs, benchmark["end_to_end"])
            traced = {"seed": args.seed + args.pairs}
            for side in SIDES:
                traced[side] = run_once(checkouts[side], benchmark["command"], workload["name"],
                                        traced["seed"], benchmark["run_seconds"], trace=1)
                traced[side].pop("context")
                print(f"{workload['name']} seed {traced['seed']} {side} traced: "
                      f"{json.dumps(traced[side]['metrics'])}", file=sys.stderr, flush=True)
            document["per_layer"][workload["name"]] = summarize_traced(
                traced, benchmark["per_layer"])
    args.output.write_text(json.dumps(document, indent=1) + "\n")
    failing = [name for name in document["workloads"]
               if any(not part[name]["all_correct"] or any(part[name]["failed"].values())
                      for part in (document["workloads"], document["per_layer"]))]
    if failing:
        print(f"failed operations or checks in: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
