#!/usr/bin/env python3
"""girit benchmark: the replication sequence, a spilling build and a cold
single-model query loop.

Run from the root of a girit checkout:

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--workload NAME` runs one workload and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Lines before
it name the workload's input properties and the metrics of the stages they
come from. `--workload all` runs every workload untraced and then traced, and
prints all of it. Inputs are generated from `--seed` under
`.bench_build/perfbench/`, which is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("replicate", "index-spill", "query-cold")


def measure(workloads, root: str, name: str, seed: int, seconds: int, traced: bool) -> dict:
    """One run of one workload; returns the contract's result object."""
    base = os.path.join(root, ".bench_build", "perfbench")
    work = os.path.join(base, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        with workloads.Bench(root, work, seed, seconds) as bench:
            outcome = workloads.WORKLOADS[name](bench, traced)
            setup_s = bench.setup_s(outcome.index_dir) if outcome is not None and not traced else 0.0
        metrics = {}
        if outcome is not None and not traced:
            values = {
                "setup_s": setup_s,
                "wall_s": outcome.wall_s,
                "items_per_s": outcome.items_per_s,
                "peak_rss_mb": outcome.peak_rss_mb,
                "bytes_per_posting": outcome.shape["postings_bytes"] / outcome.shape["postings"],
                "ok_ratio": 1.0 - bench.failed / bench.attempted,
            }
            metrics = {k: {"value": v, "unit": workloads.END_TO_END[k][0]} for k, v in values.items()}
        elif outcome is not None:
            metrics = {k: {"value": v, "unit": workloads.PER_LAYER[k][0]} for k, v in outcome.layers.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"== {name} seed={seed} seconds={seconds} trace={int(traced)}")
    for line in bench.lines:
        print(line)
    if outcome is not None:
        report = dict(outcome.report)
        report["index_bytes_per_posting"] = (outcome.shape["postings_bytes"] / outcome.shape["postings"], "B")
        report["failed_ratio"] = (bench.failed / max(1, bench.attempted), "ratio")
        for key, (value, unit) in report.items():
            print(f"{key} {value:.6g} {unit}")
    for problem in bench.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {
        "correct": outcome is not None and bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=int, default=20, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "girit", "__init__.py")):
        print(f"error: no girit sources under {src}; run from the root of a girit checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import girit
    import workloads

    if os.path.dirname(os.path.abspath(girit.__file__)) != os.path.join(src, "girit"):
        print(f"error: imported girit from {girit.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = measure(workloads, root, args.workload, args.seed, args.seconds, bool(args.trace))
        for key, metric in result["metrics"].items():
            print(f"{key} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {}
    for name in WORKLOAD_NAMES:
        for traced in (False, True):
            result = measure(workloads, root, name, args.seed, args.seconds, traced)
            for key, metric in result["metrics"].items():
                print(f"{key} {metric['value']:.6g} {metric['unit']}")
            results[f"{name}/trace{int(traced)}"] = result
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{run}/{k}": m for run, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
