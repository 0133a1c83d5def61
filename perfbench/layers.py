"""The traced run's instruments: in-memory spans around the calls into
each layer, and profiler self time charged to the package's modules.

Everything here works from outside the package: names are patched where
their caller looks them up (``repro.runtime.cells.simulate_cell`` and
``.simulate``, ``repro.runtime.executor.TraceArena``, the executor's
``cache.put``) and restored afterwards.  Nothing under ``src/`` knows it
is being traced.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Package sub-module -> layer name.  Module files outside this map but
#: inside ``repro`` (config, cpu, check, experiments, ...) and the
#: benchmark's own files land in ``other``.
LAYER_OF_MODULE = {
    "sim": "sim",
    "arch": "policy",
    "core": "policy",
    "dram": "dram",
    "osmodel": "pager",
    "stats": "stats",
    "workloads": "synth",
    "trace": "synth",
    "runtime": "runtime",
    "telemetry": "telemetry",
}
LAYERS = tuple(sorted(set(LAYER_OF_MODULE.values())))
OTHER = "other"


class Tracer:
    """Spans of one pass kept in memory: ``(id, parent, name, start,
    end)`` plus attributes."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def tuples(self) -> List[Tuple[int, Optional[int], str, float, float]]:
        return [
            (s["id"], s["parent"], s["name"], s["start"], s["end"])
            for s in self.spans
            if s["end"] is not None
        ]

    def durations(self, name: str) -> List[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]


class CellProfiler:
    """One profiler per design for time inside ``simulate_cell`` and an
    outer one for the rest of the traced call; at most one is enabled
    at any moment, so their self times add up without overlap."""

    def __init__(self) -> None:
        self.outer = cProfile.Profile()
        self.cells: Dict[str, cProfile.Profile] = {}

    @contextmanager
    def cell(self, design: str) -> Iterator[None]:
        self.outer.disable()
        profile = self.cells.setdefault(design, cProfile.Profile())
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            self.outer.enable()


@contextmanager
def traced(
    tracer: Tracer, profiler: Optional[CellProfiler] = None, cache=None
) -> Iterator[None]:
    """Patch spans (and per-design profiling) into the sweep path for
    the duration of the block."""
    import repro.runtime.cells as cells
    import repro.runtime.executor as executor

    simulate_cell = cells.simulate_cell
    simulate = cells.simulate
    arena_class = executor.TraceArena

    def traced_simulate_cell(scale, design, workload, *args, **kwargs):
        with tracer.span("simulate_cell", design=design, workload=workload):
            if profiler is None:
                return simulate_cell(scale, design, workload, *args, **kwargs)
            with profiler.cell(design):
                return simulate_cell(scale, design, workload, *args, **kwargs)

    def traced_simulate(*args, **kwargs):
        with tracer.span("repro.sim.simulate"):
            return simulate(*args, **kwargs)

    class TracedArena(arena_class):
        @classmethod
        def publish(cls, *args, **kwargs):
            with tracer.span("TraceArena.publish"):
                return arena_class.publish(*args, **kwargs)

    put = cache.put if cache is not None else None

    def traced_put(*args, **kwargs):
        with tracer.span("ResultCache.put"):
            return put(*args, **kwargs)

    cells.simulate_cell = traced_simulate_cell
    cells.simulate = traced_simulate
    executor.TraceArena = TracedArena
    if cache is not None:
        cache.put = traced_put
    try:
        yield
    finally:
        cells.simulate_cell = simulate_cell
        cells.simulate = simulate
        executor.TraceArena = arena_class
        if cache is not None:
            del cache.put


# ----------------------------------------------------------------------
# Profiler self time -> layers
# ----------------------------------------------------------------------

def _own_layer(filename: str, package: Path, bench: Path) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` for code that is
    charged to its callers (builtins, the standard library, NumPy)."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    path = Path(filename)
    try:
        parts = path.relative_to(package).parts
    except ValueError:
        try:
            path.relative_to(bench)
        except ValueError:
            return None
        return OTHER
    if len(parts) > 1:
        return LAYER_OF_MODULE.get(parts[0], OTHER)
    return OTHER


def layer_seconds(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time by layer.  Code outside the package and the benchmark
    (builtins, stdlib, NumPy) is charged to whoever called it, split by
    each caller's share of its cumulative time, recursively."""
    import repro

    package = Path(repro.__file__).resolve().parent
    bench = Path(__file__).resolve().parent
    try:
        stats = pstats.Stats(profile).stats
    except TypeError:  # profile never enabled: no data
        return {}
    memo: Dict[tuple, Dict[str, float]] = {}

    def distribution(func: tuple, visiting: frozenset) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = _own_layer(func[0], package, bench)
        if layer is not None:
            dist = {layer: 1.0}
        else:
            callers = {
                caller: edge
                for caller, edge in stats[func][4].items()
                if caller in stats and caller not in visiting
            }
            weights = {c: edge[3] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: edge[0] for c, edge in callers.items()}
                total = sum(weights.values())
            dist = {}
            if total <= 0:
                dist[OTHER] = 1.0
            else:
                for caller, weight in weights.items():
                    for name, share in distribution(
                        caller, visiting | {func}
                    ).items():
                        dist[name] = dist.get(name, 0.0) + share * weight / total
        memo[func] = dist
        return dist

    out: Dict[str, float] = {}
    for func, (_, _, self_time, _, _) in stats.items():
        for name, share in distribution(func, frozenset()).items():
            out[name] = out.get(name, 0.0) + self_time * share
    return out


def sum_layers(*tables: Dict[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for table in tables:
        for name, seconds in table.items():
            out[name] = out.get(name, 0.0) + seconds
    return out
