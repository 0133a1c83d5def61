#!/usr/bin/env python3
"""Run workloads under several seeds and report, per end-to-end metric,
the median and the interquartile spread as a share of it next to the
bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload fig15-serial --runs 10
    python3 perfbench/spread.py --workload fig15-serial grid-jobs2 fig16-traced --runs 1

A spread above a third of its bound means the benchmark is not steady
enough to judge a change by that metric (``setup_s`` is exempt: only
its median is compared).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload:
        status |= _spread(spec, workload, args.runs, args.first_seed)
    return status


def _spread(spec, workload: str, runs: int, first_seed: int) -> int:
    values = {}
    for seed in range(first_seed, first_seed + runs):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g} {metric['unit']}"
            for name, metric in result["metrics"].items()
        ), flush=True)
    if runs < 2:
        return 0

    status = 0
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series)
        steady = metric["name"] == "setup_s" or spread <= metric["bound"] / 3
        status |= not steady
        print(
            f"{workload} {metric['name']:<16} median="
            f"{statistics.median(series):.6g} {metric['unit']} "
            f"spread={spread:.4f} bound={metric['bound']} "
            f"{'ok' if steady else 'UNSTEADY'}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
