"""Orchestration of one benchmark run: set-up and golden gate, timed
iterations, the traced run, metric computation and the report."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import metrics as m
from perfbench.layers import LAYERS, OTHER, CellProfiler, layer_seconds, sum_layers
from perfbench.workloads import (
    WORKLOADS,
    Iteration,
    Workload,
    combined_digest,
    golden_gate,
    run_iteration,
)
from repro.experiments.designs import REGISTRY

#: Set-ups per run (this process plus fresh interpreters); their median
#: is ``setup_s``.
SETUPS = 3

#: The profiled layer times may exceed the traced wall time by at most
#: this share (profiler clock skew) before reconciliation fails.
RECONCILE_SLACK = 0.02

#: End-to-end metric units, in report order.
END_TO_END = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "paper_error_pp": "pp",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {
        "sim.self_share": "fraction",
        "sim.us_per_access": "us",
        "sim.cells_batched": "count",
        "sim.cells_batched_paged": "count",
        "policy.self_share": "fraction",
    }
    for label in REGISTRY.labels():
        units[f"policy.us_per_access.{label}"] = "us"
    units.update({
        "policy.fast_hit_rate": "fraction",
        "policy.swaps": "count",
        "policy.cache_mode_fraction": "fraction",
        "dram.self_share": "fraction",
        "dram.ops": "count",
        "dram.ns_per_op": "ns",
        "dram.row_hit_rate": "fraction",
        "pager.self_share": "fraction",
        "pager.page_faults": "count",
        "pager.fault_ratio": "fraction",
        "stats.self_share": "fraction",
        "synth.self_share": "fraction",
        "synth.publish_ms": "ms",
        "runtime.self_share": "fraction",
        "runtime.overhead_ms_per_cell": "ms",
        "runtime.worker_utilisation": "fraction",
        "runtime.cell_ms_p50": "ms",
        "runtime.cell_ms_p90": "ms",
        "runtime.cache_put_ms": "ms",
        "runtime.arena_hits": "count",
        "runtime.retries": "count",
        "runtime.failures": "count",
        "telemetry.events": "count",
        "telemetry.self_share": "fraction",
        "telemetry.merge_ms_per_cell": "ms",
        "telemetry.export_ms": "ms",
        "telemetry.us_per_event": "us",
        "check.golden_mismatches": "count",
        "check.digest_mismatches": "count",
        "tracing.overhead_ratio": "ratio",
        "other.self_share": "fraction",
    })
    return units


class Ledger:
    """Cells attempted and failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.golden_mismatches = 0
        self.digest_mismatches = 0
        self.reasons: List[str] = []

    def fail(self, cells: int, reason: str) -> None:
        if cells:
            self.failed += cells
            self.reasons.append(reason)

    def check(
        self, work: Workload, it: Iteration, reference: Dict[Tuple[str, str], str]
    ) -> None:
        """Account one iteration: every cell simulated, each with an
        arena attached and no retry, with the reference digests."""
        self.attempted += work.cells
        digests = it.digests()
        mismatched = sum(
            1 for cell, digest in reference.items() if digests.get(cell) != digest
        )
        self.digest_mismatches += mismatched
        simulated = len(it.cell_seconds())
        bad = max(
            mismatched,
            work.cells - simulated,
            work.cells - it.metrics.arena_hits,
            it.metrics.failures,  # failed attempts, each one retried
        )
        self.fail(
            min(work.cells, bad),
            f"digest-mismatch={mismatched} simulated={simulated} "
            f"arena_hits={it.metrics.arena_hits} retries={it.metrics.retries} "
            f"failures={it.metrics.failures} of {work.cells} cells",
        )


def _setup_probe(args, root: Path) -> Optional[float]:
    """Set-up time of a fresh interpreter, or None if it failed."""
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    proc = subprocess.run(
        cmd, cwd=root, capture_output=True, text=True, timeout=150
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("setup_s "):
        sys.stderr.write(proc.stderr)
        return None
    return float(lines[-1].split()[1])


def _paper_error(work: Workload, it: Iteration, root: Path) -> float:
    reference = json.loads(
        (root / "perfbench" / "paper_reference.json").read_text()
    )
    simulated: Dict[str, float] = {}
    expected: Dict[str, float] = {}
    benchmarks = work.scale.benchmarks
    for figure in work.figures:
        for design, value in reference[figure]["averages"].items():
            if figure == "fig15":
                per = [it.results[(design, b)].fast_hit_rate for b in benchmarks]
            else:
                per = [
                    it.results[(design, b)].cache_mode_fraction or 0.0
                    for b in benchmarks
                ]
            simulated[f"{figure}/{design}"] = 100.0 * statistics.fmean(per)
            expected[f"{figure}/{design}"] = value
    return m.paper_error_pp(simulated, expected)


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _counts(it: Iteration) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for result in it.results.values():
        for key, value in result.counters.to_dict()["counts"].items():
            total[key] = total.get(key, 0.0) + value
    return total


def _layer_metrics(
    work: Workload,
    untraced: List[Iteration],
    traced: Iteration,
    profiled: Iteration,
    profiler: CellProfiler,
    ledger: Ledger,
) -> Tuple[Dict[str, float], bool]:
    """Per-layer metrics, and whether the layer times reconcile with
    the profiled pass's wall time."""
    out = {name: 0.0 for name in per_layer_units()}
    first = untraced[0]
    accesses = work.cells * work.accesses_per_cell
    cell_s = first.cell_seconds()

    # Profiler self time by layer, reconciled against the pass's wall.
    in_cell = {d: layer_seconds(p) for d, p in profiler.cells.items()}
    total = sum_layers(layer_seconds(profiler.outer), *in_cell.values())
    named = {layer: total.get(layer, 0.0) for layer in LAYERS}
    named["telemetry"] += sum(profiled.tracer.durations("write_trace"))
    wall = profiled.wall
    for layer, seconds in named.items():
        out[f"{layer}.self_share"] = seconds / wall
    out[f"{OTHER}.self_share"] = 1.0 - sum(named.values()) / wall
    reconciled = out[f"{OTHER}.self_share"] >= -RECONCILE_SLACK

    # Host time per operation: the profiled in-cell share of a layer
    # applied to the untraced cell seconds, so profiler cost cancels.
    cell_total = sum(sum(t.values()) for t in in_cell.values())
    counts = _counts(first)
    dram_ops = sum(
        v for k, v in counts.items()
        if k.startswith("dram.") and k.endswith((".accesses", ".transfers"))
    )
    out["dram.ops"] = dram_ops
    if dram_ops and cell_total:
        # Device counters cover only the measured window, so charge
        # them only that window's pro-rated share of the DRAM time.
        scale = work.scale
        window = scale.accesses_per_core / (
            scale.accesses_per_core + scale.warmup_per_core
        )
        dram_share = sum(t.get("dram", 0.0) for t in in_cell.values()) / cell_total
        out["dram.ns_per_op"] = dram_share * window * sum(cell_s) * 1e9 / dram_ops
    row_hit = sum(v for k, v in counts.items() if k.endswith(".row_hit"))
    row_conflict = sum(v for k, v in counts.items() if k.endswith(".row_conflict"))
    if row_hit + row_conflict:
        out["dram.row_hit_rate"] = row_hit / (row_hit + row_conflict)
    per_design_accesses = len(work.scale.benchmarks) * work.accesses_per_cell
    for design, table in in_cell.items():
        design_s = sum(
            c.seconds for c in first.metrics.cells if c.design == design
        )
        share = table.get("policy", 0.0) / (sum(table.values()) or 1.0)
        out[f"policy.us_per_access.{design}"] = (
            share * design_s * 1e6 / per_design_accesses
        )

    out["sim.us_per_access"] = sum(cell_s) * 1e6 / accesses
    for key, count in first.metrics.kernels.items():
        kernel = key.split("[", 1)[0]
        if kernel == "batched":
            out["sim.cells_batched"] += count
        elif kernel == "batched-paged":
            out["sim.cells_batched_paged"] += count

    results = list(first.results.values())
    out["policy.fast_hit_rate"] = statistics.fmean(r.fast_hit_rate for r in results)
    out["policy.swaps"] = sum(r.swaps for r in results)
    modes = [r.cache_mode_fraction for r in results if r.cache_mode_fraction is not None]
    out["policy.cache_mode_fraction"] = statistics.fmean(modes) if modes else 0.0
    out["pager.page_faults"] = sum(r.page_faults for r in results)
    measured = counts.get("arch.accesses", 0.0)
    if measured:
        out["pager.fault_ratio"] = out["pager.page_faults"] / measured

    out["synth.publish_ms"] = 1000.0 * sum(traced.tracer.durations("TraceArena.publish"))
    out["runtime.overhead_ms_per_cell"] = statistics.median(
        m.overhead_ms_per_cell(work.jobs, it.run_wall, it.cell_seconds())
        for it in untraced
    )
    out["runtime.worker_utilisation"] = statistics.median(
        it.metrics.worker_utilisation for it in untraced
    )
    for q, name in ((0.5, "runtime.cell_ms_p50"), (0.9, "runtime.cell_ms_p90")):
        value = m.quantile_with_tail([1000.0 * s for s in cell_s], q)
        out[name] = value if value is not None else 0.0
    puts = traced.tracer.durations("ResultCache.put")
    if puts:
        out["runtime.cache_put_ms"] = 1000.0 * statistics.fmean(puts)
    out["runtime.arena_hits"] = first.metrics.arena_hits
    passes = untraced + [traced] + ([profiled] if profiled is not traced else [])
    out["runtime.retries"] = sum(it.metrics.retries for it in passes)
    out["runtime.failures"] = sum(it.metrics.failures for it in passes)

    if work.traced_figure:
        out["telemetry.events"] = first.events
        out["telemetry.merge_ms_per_cell"] = statistics.median(
            1000.0 * (it.run_wall - sum(it.cell_seconds())) / work.cells
            for it in untraced
        )
        export_ms = 1000.0 * statistics.median(it.export_wall for it in untraced)
        out["telemetry.export_ms"] = export_ms
        if first.events:
            out["telemetry.us_per_event"] = 1000.0 * export_ms / first.events

    out["check.golden_mismatches"] = ledger.golden_mismatches
    out["check.digest_mismatches"] = ledger.digest_mismatches
    out["tracing.overhead_ratio"] = traced.wall / statistics.median(
        it.wall for it in untraced
    )
    return out, reconciled


def _write_spans(root: Path, args, passes: List[Tuple[str, Iteration]]) -> Path:
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {},
    }
    for label, it in passes:
        self_times = m.span_self_times(it.tracer.tuples())
        payload["passes"][label] = [
            {**span, "self": self_times.get(span["id"])}
            for span in it.tracer.spans
        ]
    path.write_text(json.dumps(payload, indent=1))
    return path


def _print_report(work, args, values, units, sample_note, ledger, digest) -> None:
    print(f"perfbench {work.name} seed={args.seed} trace={args.trace}: {sample_note}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    ratio = m.fail_ratio(ledger.failed, ledger.attempted)
    print(f"  {'fail_ratio':<40} {ratio:>16.6g} ({ledger.failed}/{ledger.attempted} cells)")
    for reason in ledger.reasons:
        print(f"  failure: {reason}")
    print(f"digest {work.name} seed={args.seed} sha256:{digest}")


def run(args, root: Path, start: float) -> int:
    work = WORKLOADS[args.workload]
    scale = work.at_seed(args.seed)
    ledger = Ledger()

    gate_cells, mismatches = golden_gate(work, root / "tests" / "goldens")
    ledger.attempted += gate_cells
    ledger.golden_mismatches = mismatches
    ledger.fail(mismatches, f"golden-mismatch={mismatches} of {gate_cells} cells")
    scratch_root = root / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    setup = time.perf_counter() - start
    try:
        if args.setup_probe:
            if mismatches:
                return 1
            print(f"setup_s {setup!r}")
            return 0
        setups = [setup]
        if not args.trace:
            for _ in range(SETUPS - 1):
                probe = _setup_probe(args, root)
                if probe is None:
                    ledger.fail(1, "set-up probe failed")
                else:
                    setups.append(probe)
        return _measure(args, root, work, scale, scratch, ledger, setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still holds its own scratch directory
        # The trace arena's shared memory started multiprocessing's
        # resource tracker; stop it and wait, so nothing outlives the run.
        resource_tracker._resource_tracker._stop()


def _measure(args, root, work, scale, scratch, ledger, setups) -> int:
    untraced: List[Iteration] = []
    reference: Dict = {}
    # The traced run spends half its time on the untraced baseline and
    # leaves the rest to the (slower) traced passes.
    budget = args.seconds / 2 if args.trace else args.seconds
    loop_start = time.perf_counter()
    try:
        while True:
            it = run_iteration(work, scale, scratch)
            if not reference:
                reference = it.digests()
            ledger.check(work, it, reference)
            untraced.append(it)
            if time.perf_counter() - loop_start >= budget:
                break
    except Exception as exc:  # a cell exhausted its retries, or worse
        ledger.attempted += work.cells
        ledger.fail(work.cells, f"sweep raised {type(exc).__name__}: {exc}")

    correct = True
    values: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if untraced and not args.trace:
        units = END_TO_END
        values = {
            "wall_s": statistics.median(it.wall for it in untraced),
            "cpu_s": statistics.median(it.cpu for it in untraced),
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": statistics.median(setups),
            "paper_error_pp": _paper_error(work, untraced[0], root),
        }
        values["accesses_per_s"] = (
            work.cells * work.accesses_per_cell / values["wall_s"]
        )
        values = {name: values[name] for name in END_TO_END}
        note = (
            f"{len(untraced)} iterations x {work.cells} cells, "
            f"{work.cells * work.accesses_per_cell} accesses each; "
            f"medians of {len(untraced)} (setup_s of {len(setups)})"
        )
    elif untraced:
        units = per_layer_units()
        values, correct = _trace(args, root, work, scale, scratch, ledger, untraced, reference)
        note = (
            f"{len(untraced)} untraced iterations, then traced passes of "
            f"{work.cells} cells"
        )
    else:
        note = "no iteration completed"
    digest = combined_digest(reference) if reference else "none"
    _print_report(work, args, values, units, note, ledger, digest)
    correct = correct and ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


def _trace(args, root, work, scale, scratch, ledger, untraced, reference):
    """The traced run: spans around each layer, profiled self time."""
    passes = [(f"untraced-{i}", it) for i, it in enumerate(untraced)]
    try:
        if work.jobs == 1:
            profiler = CellProfiler()
            traced = run_iteration(work, scale, scratch, patch=True, profiler=profiler)
            ledger.check(work, traced, reference)
            profiled = traced
            passes.append(("traced", traced))
        else:
            # Workers cannot share the parent's profiler: time the
            # pooled pass with spans only, and take in-cell shares from
            # a serial profiled pass over the same cells.
            traced = run_iteration(work, scale, scratch, patch=True)
            ledger.check(work, traced, reference)
            profiler = CellProfiler()
            profiled = run_iteration(
                work, scale, scratch, jobs=1, patch=True, profiler=profiler
            )
            ledger.check(work, profiled, reference)
            passes += [("traced", traced), ("profiled-serial", profiled)]
    except Exception as exc:
        ledger.attempted += work.cells
        ledger.fail(work.cells, f"traced sweep raised {type(exc).__name__}: {exc}")
        return {}, False
    values, reconciled = _layer_metrics(work, untraced, traced, profiled, profiler, ledger)
    if not reconciled:
        ledger.reasons.append(
            f"layer self times exceed the profiled wall time: "
            f"other.self_share={values['other.self_share']:.4f}"
        )
    path = _write_spans(root, args, passes)
    print(f"spans written to {path.relative_to(root)}")
    return values, reconciled
