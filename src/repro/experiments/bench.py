"""Tracked perf-bench harness for the replay kernels.

``python -m repro.experiments bench`` times the scalar reference and the
fast replay loop on the figure-15 design set, verifies their parity
while doing so, times the figure-15/18 smoke sweeps end to end, and
writes the whole record to ``BENCH_kernel.json`` so kernel throughput
is tracked in CI alongside correctness.

The numbers answer three questions:

* how fast is each loop (``accesses_per_sec`` per design, telemetry
  off, best of ``repeats``);
* is the fast loop still exact (``parity`` per design — byte-equal
  :meth:`~repro.sim.SimulationResult.to_dict` plus an identical
  telemetry event stream against the scalar reference);
* what does a user-visible sweep cost (``figures`` wall seconds);
* what does the shared-memory trace arena save (``sweep_setup`` —
  per-cell workload prep with the arena off vs on at fig15 smoke
  scale, plus an arena-on/off whole-sweep parity bit);
* what does the serving layer add on top of a cell (``serve_latency``
  — cold vs warm request p50/p95 through a live ``repro.serve``
  server at smoke scale, plus the coalescing hit ratio).
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from typing import Any, Dict

from repro.experiments.designs import REGISTRY, kernel_decision
from repro.experiments.runner import SMOKE_SCALE, Scale, clear_sweep_cache
from repro.sim import simulate
from repro.telemetry.bus import EventBus
from repro.telemetry.recorder import EventLog
from repro.workloads import benchmark, build_workload

#: Wire-format version of ``BENCH_kernel.json``.
#: 2: added the ``sweep_setup`` arena section.
#: 3: added the ``serve_latency`` service section.
#: 4: per-design ``reason`` (kernel-selection rationale) and the
#:    pager-backed ``baseline_20GB_DDR3`` row (batched-paged kernel).
BENCH_SCHEMA_VERSION = 4

#: Default output path of the ``bench`` subcommand.
DEFAULT_BENCH_OUT = "BENCH_kernel.json"

#: Designs timed by the kernel benchmark: the figure-15 comparison set
#: plus the under-provisioned flat baseline.  Alloy-Cache and
#: baseline_20GB_DDR3 are pager-backed and exercise the fast loop's
#: fault-segmented (``batched-paged``) mode; the other three its
#: pager-free (``batched``) mode.
BENCH_DESIGNS = (
    "Alloy-Cache",
    "baseline_20GB_DDR3",
    "PoM",
    "Chameleon",
    "Chameleon-Opt",
)

#: Throughput-measurement scale: long enough that per-access cost
#: dominates fixed setup, small enough for CI (24k accesses per run).
BENCH_SCALE = Scale(
    fast_mb=1.0,
    accesses_per_core=3000,
    warmup_per_core=3000,
    num_copies=4,
    benchmarks=("mcf",),
)


def _simulate_once(
    label: str,
    scale: Scale,
    kernel: str,
    telemetry: EventBus | None = None,
):
    config = scale.config()
    architecture = REGISTRY.get(label).factory(config)
    workload = build_workload(
        config,
        benchmark(scale.benchmarks[0]),
        num_copies=scale.num_copies,
        seed=scale.seed,
    )
    start = time.perf_counter()
    result = simulate(
        architecture,
        workload,
        accesses_per_core=scale.accesses_per_core,
        warmup_per_core=scale.warmup_per_core,
        telemetry=telemetry,
        kernel=kernel,
    )
    return time.perf_counter() - start, result


def _throughput(label: str, scale: Scale, kernel: str, repeats: int) -> float:
    """Best-of-``repeats`` accesses/sec (warmup + measured), telemetry off."""
    total = (scale.accesses_per_core + scale.warmup_per_core) * scale.num_copies
    best = float("inf")
    for _ in range(repeats):
        elapsed, _ = _simulate_once(label, scale, kernel)
        best = min(best, elapsed)
    return total / best


def _parity_check(label: str, scale: Scale):
    """(parity, auto-resolved :class:`~repro.sim.KernelDecision`) for
    ``label`` at ``scale``.

    Parity compares the full wire form *and* the telemetry event stream
    of a forced-scalar run against ``kernel="auto"``.
    """
    def capture(kernel: str):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        _, result = _simulate_once(label, scale, kernel, telemetry=bus)
        return (
            json.dumps(result.to_dict(), sort_keys=True),
            [event.to_dict() for event in log.events],
        )

    parity = capture("scalar") == capture("auto")
    return parity, kernel_decision(label, scale.config())


def _figure_wall_seconds(scale: Scale) -> Dict[str, float]:
    """End-to-end wall time of the fig15/fig18 smoke sweeps (no cache)."""
    from repro.experiments.figures import run_fig15, run_fig18
    from repro.runtime import SweepExecutor

    seconds: Dict[str, float] = {}
    for name, runner in (("fig15", run_fig15), ("fig18", run_fig18)):
        clear_sweep_cache()
        executor = SweepExecutor(jobs=1, cache=None)
        start = time.perf_counter()
        runner(scale, executor=executor)
        seconds[name] = time.perf_counter() - start
    clear_sweep_cache()
    return seconds


def _sweep_setup_bench(scale: Scale, repeats: int) -> Dict[str, Any]:
    """Arena economics at ``scale``: what one sweep cell pays to get
    its workload trace with the arena off (synthesise from the spec)
    vs on (attach the parent's precompiled columns), plus the one-off
    publish cost and an arena-on/off whole-sweep parity check."""
    from repro.runtime import SweepExecutor
    from repro.runtime.arena import TraceArena, attach_arena
    from repro.workloads import build_workload as _build
    from repro.workloads.compiled import compile_trace

    names = list(scale.benchmarks)
    total = scale.warmup_per_core + scale.accesses_per_core
    config = scale.config()

    def generate_all() -> float:
        start = time.perf_counter()
        for name in names:
            workload = _build(
                config,
                benchmark(name),
                num_copies=scale.num_copies,
                seed=scale.seed,
            )
            compile_trace(workload, total)
        return time.perf_counter() - start

    generate_seconds = min(generate_all() for _ in range(repeats))

    publish_start = time.perf_counter()
    arena = TraceArena.publish(scale, names)
    publish_seconds = time.perf_counter() - publish_start
    if arena is None:  # no /dev/shm — report generation cost only
        return {
            "available": False,
            "per_cell_prep_off_ms": round(
                generate_seconds / len(names) * 1e3, 3
            ),
        }
    try:
        def attach_all() -> float:
            start = time.perf_counter()
            view = attach_arena(arena.manifest)
            try:
                for name in names:
                    view.trace(name)
            finally:
                view.close()
            return time.perf_counter() - start

        attach_seconds = min(attach_all() for _ in range(repeats))
    finally:
        arena_bytes = arena.nbytes
        arena.dispose()

    def fig15_sweep(use_arena: bool) -> str:
        executor = SweepExecutor(jobs=1, cache=None, arena=use_arena)
        results = executor.run(scale, BENCH_DESIGNS)
        return json.dumps(
            {
                f"{d}/{w}": r.to_dict()
                for (d, w), r in sorted(results.items())
            },
            sort_keys=True,
        )

    per_cell_off = generate_seconds / len(names)
    per_cell_on = attach_seconds / len(names)
    return {
        "available": True,
        "arena_bytes": arena_bytes,
        "publish_seconds": round(publish_seconds, 4),
        "per_cell_prep_off_ms": round(per_cell_off * 1e3, 3),
        "per_cell_prep_on_ms": round(per_cell_on * 1e3, 3),
        "prep_speedup": round(per_cell_off / max(per_cell_on, 1e-9), 1),
        "parity": fig15_sweep(True) == fig15_sweep(False),
    }


def _serve_latency_bench(scale: Scale) -> Dict[str, Any]:
    """Request latency through a live server at ``scale``.

    Cold requests simulate their cell; warm requests repeat the same
    cells and must be answered from the completed-job table / result
    cache without a worker.  A burst of identical concurrent requests
    measures the coalescing hit ratio.
    """
    import tempfile
    import threading
    from pathlib import Path

    from repro.runtime import ResultCache
    from repro.serve import Client, ServerThread

    cells = [
        {"design": "Chameleon", "workload": name} for name in scale.benchmarks
    ]
    scale_fields = {
        "fast_mb": scale.fast_mb,
        "ratio": scale.ratio,
        "accesses_per_core": scale.accesses_per_core,
        "warmup_per_core": scale.warmup_per_core,
        "num_copies": scale.num_copies,
        "seed": scale.seed,
    }

    def timed_request(client: Client, payload: Dict[str, Any]) -> float:
        start = time.perf_counter()
        client.simulate({**scale_fields, **payload})
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        with ServerThread(port=0, cache=cache) as srv:
            client = Client(port=srv.port)
            cold = sorted(timed_request(client, cell) for cell in cells)
            warm = sorted(timed_request(client, cell) for cell in cells)
            # Snapshot before the burst: the warm pass must not have
            # cost any worker cells beyond the cold pass's.
            after_warm = client.metrics()

            # A cold cell (fresh seed) so the burst actually coalesces
            # instead of hitting the completed-job table.
            burst = {
                **scale_fields,
                **cells[0],
                "seed": scale.seed + 1,
                "wait": True,
            }
            workers = 4
            latencies = [0.0] * workers

            def fire(index: int) -> None:
                start = time.perf_counter()
                client.request("POST", "/v1/simulate", burst)
                latencies[index] = time.perf_counter() - start

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = client.metrics()

    def block(samples: list) -> Dict[str, float]:
        from repro.serve.metrics import percentile

        return {
            "p50_ms": round(percentile(samples, 0.50) * 1e3, 3),
            "p95_ms": round(percentile(samples, 0.95) * 1e3, 3),
        }

    return {
        "cells": len(cells),
        "cold": block(cold),
        "warm": block(warm),
        "warm_no_worker": (
            after_warm["dispatch"]["worker_cells"] == len(cells)
        ),
        "coalesce_hit_ratio": round(
            snapshot["requests"]["coalesced"]
            / max(1, snapshot["requests"]["received"]),
            4,
        ),
        "cache_hit_ratio": snapshot["cache_hit_ratio"],
    }


def run_kernel_bench(
    scale: Scale = BENCH_SCALE,
    figure_scale: Scale = SMOKE_SCALE,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Run the whole benchmark; returns the ``BENCH_kernel.json`` payload."""
    designs: Dict[str, Any] = {}
    for label in BENCH_DESIGNS:
        parity, decision = _parity_check(label, SMOKE_SCALE)
        scalar_rate = _throughput(label, scale, "scalar", repeats)
        auto_rate = _throughput(label, scale, "auto", repeats)
        designs[label] = {
            "kernel": decision.kernel,
            "reason": decision.reason,
            "parity": parity,
            "scalar_accesses_per_sec": round(scalar_rate, 1),
            "auto_accesses_per_sec": round(auto_rate, 1),
            "speedup_vs_scalar": round(auto_rate / scalar_rate, 3),
        }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "scale": dataclasses.asdict(scale),
        "repeats": repeats,
        "designs": designs,
        "figures": {
            name: round(seconds, 3)
            for name, seconds in _figure_wall_seconds(figure_scale).items()
        },
        "sweep_setup": _sweep_setup_bench(figure_scale, repeats),
        "serve_latency": _serve_latency_bench(figure_scale),
    }


def run_bench_command(
    out_path: str = DEFAULT_BENCH_OUT, repeats: int = 3
) -> int:
    """CLI entry point: print a summary, write the JSON, gate on parity."""
    payload = run_kernel_bench(repeats=repeats)
    print(f"kernel benchmark ({payload['repeats']} repeats, best-of)")
    for label, row in payload["designs"].items():
        print(
            f"  {label:18s} kernel={row['kernel']:13s} "
            f"[{row['reason']}] "
            f"scalar={row['scalar_accesses_per_sec']:>10,.0f}/s "
            f"auto={row['auto_accesses_per_sec']:>10,.0f}/s "
            f"({row['speedup_vs_scalar']:.2f}x) "
            f"parity={'OK' if row['parity'] else 'FAIL'}"
        )
    for name, seconds in payload["figures"].items():
        print(f"  {name} smoke sweep: {seconds:.2f}s")
    setup = payload["sweep_setup"]
    if setup["available"]:
        print(
            f"  sweep setup: per-cell prep "
            f"{setup['per_cell_prep_off_ms']:.1f}ms -> "
            f"{setup['per_cell_prep_on_ms']:.2f}ms with arena "
            f"({setup['prep_speedup']:.0f}x, "
            f"{setup['arena_bytes']:,} bytes shared, publish "
            f"{setup['publish_seconds'] * 1e3:.0f}ms) "
            f"parity={'OK' if setup['parity'] else 'FAIL'}"
        )
    else:
        print("  sweep setup: shared memory unavailable, arena skipped")
    serve = payload["serve_latency"]
    print(
        f"  serve latency: cold p50 {serve['cold']['p50_ms']:.0f}ms / "
        f"p95 {serve['cold']['p95_ms']:.0f}ms, warm p50 "
        f"{serve['warm']['p50_ms']:.1f}ms / p95 "
        f"{serve['warm']['p95_ms']:.1f}ms, coalesce ratio "
        f"{serve['coalesce_hit_ratio']:.2f} "
        f"warm-no-worker={'OK' if serve['warm_no_worker'] else 'FAIL'}"
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    failures = [
        label for label, row in payload["designs"].items() if not row["parity"]
    ]
    if failures:
        print(
            f"kernel parity FAILED for: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    if setup["available"] and not setup["parity"]:
        print("arena sweep parity FAILED", file=sys.stderr)
        return 1
    return 0
