"""The benchmark's workloads and the one call that runs each of them.

Every workload regenerates a slice of the paper's design × Table II
grid through public entry points only: a fresh ``SweepExecutor`` per
iteration (``faults=None``, so ``$REPRO_FAULTS`` cannot inject
anything; never ``run_fig15``/``run_design_sweep``, whose in-process
memo makes repeats free), ``repro.telemetry.write_trace`` for the
traced figure, and ``repro.check`` for the correctness gate.  Why each
workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.check import GoldenStore, result_digest
from repro.experiments.designs import REGISTRY
from repro.experiments.runner import DEFAULT_SCALE, SMOKE_SCALE, Scale
from repro.runtime import DEFAULT_ARENA_BUDGET, ResultCache, SweepExecutor
from repro.runtime.metrics import SOURCE_SIMULATED
from repro.telemetry import EventBus, write_trace

from perfbench.layers import CellProfiler, Tracer, traced

#: Access counts of the two DEFAULT_SCALE-capacity workloads: one
#: eighth of DEFAULT_SCALE's, keeping its 1:3 measured:warm-up split,
#: so a sweep takes seconds and a run holds several of them.
_DEFAULT_ACCESSES = dict(accesses_per_core=250, warmup_per_core=750)


@dataclass(frozen=True)
class Workload:
    name: str
    designs: Tuple[str, ...]
    scale: Scale
    jobs: int
    #: Give every iteration a cold ResultCache in a fresh directory.
    cold_cache: bool
    #: Capture telemetry with the live auditor and export the merged
    #: trace (what ``fig16 --trace --audit`` does).
    traced_figure: bool
    #: Paper figures whose reference averages ``paper_error_pp`` uses.
    figures: Tuple[str, ...]

    def at_seed(self, seed: int) -> Scale:
        return dataclasses.replace(self.scale, seed=seed)

    @property
    def cells(self) -> int:
        return len(self.designs) * len(self.scale.benchmarks)

    @property
    def accesses_per_cell(self) -> int:
        scale = self.scale
        return scale.num_copies * (
            scale.accesses_per_core + scale.warmup_per_core
        )


WORKLOADS: Dict[str, Workload] = {
    work.name: work
    for work in (
        Workload(
            name="fig15-serial",
            designs=REGISTRY.figure_labels("fig15"),
            scale=dataclasses.replace(DEFAULT_SCALE, **_DEFAULT_ACCESSES),
            jobs=1,
            cold_cache=False,
            traced_figure=False,
            figures=("fig15",),
        ),
        Workload(
            name="grid-jobs2",
            designs=REGISTRY.labels(),
            scale=dataclasses.replace(
                SMOKE_SCALE, benchmarks=DEFAULT_SCALE.benchmarks
            ),
            jobs=2,
            cold_cache=True,
            traced_figure=False,
            figures=("fig15", "fig16"),
        ),
        Workload(
            name="fig16-traced",
            designs=REGISTRY.figure_labels("fig16"),
            scale=dataclasses.replace(DEFAULT_SCALE, **_DEFAULT_ACCESSES),
            jobs=1,
            cold_cache=False,
            traced_figure=True,
            figures=("fig16",),
        ),
    )
}


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Iteration:
    """One run of a workload's sweep (and export, when traced)."""

    wall: float
    cpu: float
    run_wall: float
    export_wall: float
    results: Dict
    metrics: object  # the executor's SweepMetrics
    events: int
    tracer: Tracer

    def digests(self) -> Dict[Tuple[str, str], str]:
        return {cell: result_digest(r) for cell, r in self.results.items()}

    def cell_seconds(self) -> List[float]:
        return [
            c.seconds for c in self.metrics.cells
            if c.source == SOURCE_SIMULATED
        ]


def run_iteration(
    work: Workload,
    scale: Scale,
    scratch: Path,
    jobs: Optional[int] = None,
    patch: bool = False,
    profiler: Optional[CellProfiler] = None,
) -> Iteration:
    """Run the workload once.  ``patch`` adds spans around the calls
    into each layer and ``profiler`` profiles them; the root spans
    (``SweepExecutor.run``, ``write_trace``) are always recorded."""
    tracer = Tracer()
    cache_dir = Path(tempfile.mkdtemp(dir=scratch)) if work.cold_cache else None
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    executor = SweepExecutor(
        jobs=jobs or work.jobs,
        cache=cache,
        faults=None,
        telemetry=EventBus() if work.traced_figure else None,
        audit=work.traced_figure,
        arena=True,
        arena_budget=DEFAULT_ARENA_BUDGET,
    )
    trace_path = scratch / f"trace-{os.getpid()}.json"
    events = 0
    patches = traced(tracer, profiler, cache) if patch else nullcontext()
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with patches:
            if profiler is not None:
                profiler.outer.enable()
            try:
                with tracer.span("SweepExecutor.run"):
                    results = executor.run(scale, work.designs)
            finally:
                if profiler is not None:
                    profiler.outer.disable()
        if work.traced_figure:
            # Not profiled: the exporter is telemetry code throughout,
            # and the profiler would triple its cost.
            tracks = {
                f"{design}/{workload}": stream
                for (design, workload), stream in executor.events.items()
            }
            with tracer.span("write_trace"):
                events = write_trace(tracks, trace_path)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    finally:
        trace_path.unlink(missing_ok=True)
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    run_wall = sum(tracer.durations("SweepExecutor.run"))
    export_wall = sum(tracer.durations("write_trace"))
    return Iteration(
        wall, cpu, run_wall, export_wall, results, executor.metrics,
        events, tracer,
    )


def golden_gate(work: Workload, goldens: Path) -> Tuple[int, int]:
    """Simulate every design the workload uses on the committed golden
    cells (SMOKE_SCALE) and compare result digests with the store.

    Returns ``(cells checked, mismatches)``; a missing golden is a
    mismatch.
    """
    store = GoldenStore(goldens)
    executor = SweepExecutor(
        jobs=1, cache=None, faults=None, arena=True,
        arena_budget=DEFAULT_ARENA_BUDGET,
    )
    results = executor.run(SMOKE_SCALE, work.designs)
    mismatches = 0
    for (design, workload), result in results.items():
        record = store.get(SMOKE_SCALE, design, workload)
        if record is None or record.result_digest != result_digest(result):
            mismatches += 1
    return len(results), mismatches


def combined_digest(digests: Dict[Tuple[str, str], str]) -> str:
    """One digest over every cell's result digest, in cell order."""
    hasher = hashlib.sha256()
    for (design, workload), digest in sorted(digests.items()):
        hasher.update(f"{design}\t{workload}\t{digest}\n".encode())
    return hasher.hexdigest()
