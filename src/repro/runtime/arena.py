"""Precompiled, zero-copy shared-memory trace arena for design sweeps.

Every figure sweep replays the same Table II workload traces across
many designs, yet each sweep cell historically re-synthesised its
workload trace from the spec — trace generation was paid ``designs ×
workloads`` times instead of ``workloads`` times.  The arena fixes
that: the parent process compiles each workload in the sweep grid once
(:func:`repro.workloads.compile_trace`), exports the struct-of-arrays
columns into one ``multiprocessing.shared_memory`` segment, and every
worker attaches read-only :class:`~repro.trace.batch.RecordBatch`
views directly over the shared buffers — no per-cell regeneration, no
pickling traces over the job pipe.

The manifest is content-addressed the same way as
:class:`~repro.runtime.cache.ResultCache` keys — the
:func:`~repro.runtime.store.payload_digest` of ``(Scale, workload
names, repro.__version__, arena schema)`` — and is itself a plain JSON-safe dict, so it crosses the
worker fork/pipe boundary as-is.

Degradation is always graceful and never changes results:

* shared memory unavailable (no ``/dev/shm``, permissions, import
  failure) → :meth:`TraceArena.publish` returns ``None`` and cells
  regenerate;
* estimated or exact payload over the size budget
  (:data:`DEFAULT_ARENA_BUDGET`, override with ``$REPRO_ARENA_BUDGET``
  or the executor's ``arena_budget``) → same fallback;
* a worker that cannot attach (segment vanished, stale manifest)
  regenerates locally — byte-identical, since compiled traces come
  from the same seeded generators.

Lifetime: the publishing executor owns the segment and unlinks it in a
``finally`` block, so crashes, fault-plan kills, and resumed sweeps
cannot leak ``/dev/shm`` entries; workers only ever ``close()`` their
attachment.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro._version import __version__
from repro.runtime.store import payload_digest
from repro.trace.batch import RecordBatch, align_offset
from repro.workloads import benchmark, build_workload
from repro.workloads.compiled import CompiledTrace, CoreTrace, compile_trace

#: Wire/layout version, part of the content-addressed key.
ARENA_SCHEMA_VERSION = 1

#: Default arena size budget (bytes); larger grids fall back to
#: per-cell generation rather than squeezing ``/dev/shm``.
DEFAULT_ARENA_BUDGET = 256 * 1024 * 1024

#: Environment override for the size budget (bytes).
ARENA_BUDGET_ENV = "REPRO_ARENA_BUDGET"

#: Shared-memory segment name prefix (leak checks glob for this).
ARENA_PREFIX = "repro-arena-"

#: Raw bytes per trace record across the three columns (two ``int64``
#: plus one ``bool``) — the pre-compile budget estimate.
_BYTES_PER_RECORD = 17

#: Segments whose buffers were still referenced when closed: live
#: zero-copy views need the mapping, so it is pinned for the process
#: lifetime instead of letting ``__del__`` retry (and noisily fail)
#: the close.  Unlink is unaffected — names never leak.
_PINNED_SEGMENTS: list = []


def _close_segment(shm) -> None:
    try:
        shm.close()
    except BufferError:
        _PINNED_SEGMENTS.append(shm)


def arena_budget(budget: Optional[int] = None) -> int:
    """Resolve the size budget: explicit > ``$REPRO_ARENA_BUDGET`` >
    :data:`DEFAULT_ARENA_BUDGET`."""
    if budget is not None:
        return budget
    raw = os.environ.get(ARENA_BUDGET_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_ARENA_BUDGET


def arena_key(scale, workloads: Sequence[str]) -> str:
    """Content address of an arena: Scale + workload names + version."""
    return payload_digest(
        {
            "scale": dataclasses.asdict(scale),
            "workloads": list(workloads),
            "version": __version__,
            "arena_schema": ARENA_SCHEMA_VERSION,
        }
    )


def _shared_memory():
    """The stdlib module, or ``None`` when unavailable."""
    try:
        from multiprocessing import shared_memory
    except Exception:  # pragma: no cover — exotic builds only
        return None
    return shared_memory


def _attach_segment(name: str):
    """Attach an existing segment without registering it with the
    resource tracker where the runtime supports opting out (3.13+);
    older runtimes share the forked parent's tracker, which is
    harmless — the parent unlinks exactly once."""
    shared_memory = _shared_memory()
    if shared_memory is None:
        raise OSError("multiprocessing.shared_memory unavailable")
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _layout_workloads(
    compiled: Dict[str, CompiledTrace]
) -> tuple[Dict[str, List[Dict[str, Any]]], int]:
    """Per-workload/per-core block offsets, and the total segment size."""
    offset = 0
    workloads: Dict[str, List[Dict[str, Any]]] = {}
    for name, trace in compiled.items():
        cores: List[Dict[str, Any]] = []
        for core in trace.cores:
            columns = RecordBatch.buffer_layout(len(core), offset)
            lengths = columns["end"]
            nbatches = len(core.batch_lengths)
            offset = align_offset(lengths + nbatches * 8)
            cores.append(
                {
                    "columns": columns,
                    "lengths": lengths,
                    "nbatches": nbatches,
                }
            )
        workloads[name] = cores
    return workloads, max(offset, 1)


class TraceArena:
    """Parent-side handle on a published arena segment.

    Create with :meth:`publish`; pass :attr:`manifest` to workers (it
    is a plain dict); call :meth:`dispose` — idempotent, exception-safe
    — when the sweep is done.
    """

    def __init__(self, shm, manifest: Dict[str, Any]) -> None:
        self._shm = shm
        self.manifest = manifest

    @property
    def name(self) -> str:
        return str(self.manifest["segment"])

    @property
    def nbytes(self) -> int:
        return int(self.manifest["bytes"])

    @classmethod
    def publish(
        cls,
        scale,
        workloads: Sequence[str],
        budget: Optional[int] = None,
    ) -> Optional["TraceArena"]:
        """Compile ``workloads`` at ``scale`` and publish the arena.

        Returns ``None`` (callers fall back to per-cell generation)
        when shared memory is unavailable or the payload would exceed
        the budget — never raises for environmental reasons.
        """
        shared_memory = _shared_memory()
        if shared_memory is None:
            return None
        budget = arena_budget(budget)
        names = sorted(set(workloads))
        if not names:
            return None
        total_per_core = scale.warmup_per_core + scale.accesses_per_core
        estimate = (
            len(names) * scale.num_copies * total_per_core * _BYTES_PER_RECORD
        )
        if estimate > budget:
            return None
        config = scale.config()
        compiled: Dict[str, CompiledTrace] = {}
        for name in names:
            workload = build_workload(
                config,
                benchmark(name),
                num_copies=scale.num_copies,
                seed=scale.seed,
            )
            compiled[name] = compile_trace(workload, total_per_core)
        layout, total_bytes = _layout_workloads(compiled)
        if total_bytes > budget:
            return None
        key = arena_key(scale, names)
        segment = f"{ARENA_PREFIX}{key[:12]}-{os.getpid()}"
        try:
            shm = cls._create_segment(shared_memory, segment, total_bytes)
        except OSError:
            return None
        try:
            for name, trace in compiled.items():
                for core, spec in zip(trace.cores, layout[name]):
                    core.batch.export_into(shm.buf, spec["columns"])
                    np.frombuffer(
                        shm.buf,
                        dtype=np.int64,
                        count=spec["nbatches"],
                        offset=spec["lengths"],
                    )[:] = core.batch_lengths
        except BaseException:
            cls._destroy_segment(shm)
            raise
        manifest = {
            "arena_schema": ARENA_SCHEMA_VERSION,
            "segment": segment,
            "key": key,
            "bytes": total_bytes,
            "accesses_per_core": total_per_core,
            "num_copies": scale.num_copies,
            "workloads": layout,
        }
        return cls(shm, manifest)

    @staticmethod
    def _create_segment(shared_memory, name: str, size: int):
        """Create the segment, reclaiming a stale same-name leftover
        from a crashed earlier run (pid reuse) rather than failing."""
        try:
            return shared_memory.SharedMemory(
                create=True, size=size, name=name
            )
        except FileExistsError:
            stale = shared_memory.SharedMemory(name=name)
            TraceArena._destroy_segment(stale)
            return shared_memory.SharedMemory(
                create=True, size=size, name=name
            )

    @staticmethod
    def _destroy_segment(shm) -> None:
        _close_segment(shm)
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            self._destroy_segment(shm)


class ArenaView:
    """Worker-side read-only attachment to a published arena."""

    def __init__(self, manifest: Dict[str, Any]) -> None:
        if manifest.get("arena_schema") != ARENA_SCHEMA_VERSION:
            raise ValueError(
                f"arena schema {manifest.get('arena_schema')!r} != "
                f"{ARENA_SCHEMA_VERSION}"
            )
        self.manifest = manifest
        self._shm = _attach_segment(str(manifest["segment"]))

    def trace(self, workload: str) -> CompiledTrace:
        """Zero-copy :class:`CompiledTrace` over the shared columns."""
        specs = self.manifest["workloads"][workload]
        cores = []
        for spec in specs:
            batch = RecordBatch.attach(self._shm.buf, spec["columns"])
            lengths = np.frombuffer(
                self._shm.buf,
                dtype=np.int64,
                count=spec["nbatches"],
                offset=spec["lengths"],
            ).view()
            lengths.flags.writeable = False
            cores.append(CoreTrace(batch=batch, batch_lengths=lengths))
        return CompiledTrace(
            workload=workload,
            accesses_per_core=int(self.manifest["accesses_per_core"]),
            cores=tuple(cores),
        )

    def close(self) -> None:
        """Detach (never unlinks — the publisher owns the segment).

        If zero-copy views over the segment are still alive, the
        mapping stays pinned until process exit — closing it under
        them would invalidate their memory."""
        shm, self._shm = self._shm, None
        if shm is not None:
            _close_segment(shm)


def attach_arena(manifest: Dict[str, Any]) -> ArenaView:
    """Attach to a published arena by manifest.

    Raises ``OSError`` when the segment is gone (callers regenerate)
    and ``ValueError`` on a schema mismatch.
    """
    return ArenaView(manifest)


__all__ = [
    "ARENA_BUDGET_ENV",
    "ARENA_PREFIX",
    "ARENA_SCHEMA_VERSION",
    "ArenaView",
    "DEFAULT_ARENA_BUDGET",
    "TraceArena",
    "arena_budget",
    "arena_key",
    "attach_arena",
]
