#!/usr/bin/env python3
"""Time one benchmark workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload fig15-serial --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the simulator is imported from the
checkout's ``src/``.  With ``--trace 0`` the last stdout line is a JSON
object carrying the end-to-end metrics, with ``--trace 1`` the per-layer
ones.  The exit code is non-zero when a golden or cross-run digest
mismatches, a cell fails, or the layer times do not reconcile.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time includes the package import

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig15-serial", "grid-jobs2", "fig16-traced")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up (import, golden gate), print the time and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        path
        for path in (ROOT / "src" / "repro" / "__init__.py", ROOT / "tests" / "goldens")
        if not path.exists()
    ]
    if missing:
        print(
            "error: not a repro checkout, missing "
            + ", ".join(str(p.relative_to(ROOT)) for p in missing),
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run

    return run(args, ROOT, _START)


if __name__ == "__main__":
    sys.exit(main())
