"""Checkpoint/resume journal for design sweeps.

A multi-hour sweep must survive being killed: the
:class:`~repro.runtime.executor.SweepExecutor` appends every completed
``(design, workload)`` cell — with its full
:meth:`~repro.sim.SimulationResult.to_dict` payload — to an
append-only JSONL journal, flushed and fsynced per line, so a restart
replays **only the missing cells** and merges bit-identically with an
uninterrupted run.

One journal file describes exactly one sweep: its name embeds the
:func:`~repro.runtime.store.payload_digest` of the sweep identity
(scale fields minus ``benchmarks``, the ordered cell list, library
version, result schema), so a changed grid can never resume from a
stale journal — it simply addresses a different file.  A CLI grid and
a :mod:`repro.serve` dispatch batch are both just cell lists, so there
is one identity and one naming (``sweep-<digest16>.jsonl``).  The
first line is a ``{"kind": "sweep", ...}`` header restating that
identity; every further line is a ``{"kind": "cell", ...}`` record.

Crash tolerance on the journal itself: a kill mid-append leaves a
truncated final line.  :meth:`SweepJournal.open` reads the file with
the shared torn-tail reader, which stops at the first line that does
not parse (or lacks its newline), and truncates the file just past the
last good line before appending — the partial record is dropped and
its cell re-runs.

Journals live next to the :class:`~repro.runtime.cache.ResultCache`
(the CLI's ``--resume`` points them at the cache directory) and are
deleted the moment their sweep completes: an existing journal *is* the
marker of an interrupted sweep.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

from repro._version import __version__
from repro.runtime.store import payload_digest, read_jsonl, scale_identity
from repro.sim import RESULT_SCHEMA_VERSION, SimulationResult

#: Journal cells keyed by ``(design, workload)``.
JournalCells = Dict[Tuple[str, str], SimulationResult]


class SweepJournal:
    """Append-only JSONL checkpoint of one sweep's completed cells.

    ``SweepJournal(root, scale, cells)`` is the journal of the sweep
    that runs exactly ``cells`` (ordered ``(design, workload)`` pairs)
    at ``scale``; it lives under ``root`` with its identity digest in
    its name.
    """

    def __init__(
        self,
        root: Path | str,
        scale: Any,
        cells: Sequence[Tuple[str, str]],
    ) -> None:
        #: JSON-normalised sweep identity, restated by the header line.
        self.identity: Dict[str, Any] = json.loads(
            json.dumps(
                {
                    "scale": scale_identity(scale),
                    "cells": [list(cell) for cell in cells],
                    "version": __version__,
                    "result_schema": RESULT_SCHEMA_VERSION,
                }
            )
        )
        digest = payload_digest(self.identity)
        self.path = Path(root) / f"sweep-{digest[:16]}.jsonl"
        self._handle = None

    def open(self) -> JournalCells:
        """Recover the cells of a previous interrupted run and open the
        journal for appending.

        The file is trusted up to its first torn or malformed line
        (:func:`~repro.runtime.store.read_jsonl`); anything after it is
        truncated away before the first append, so a partial record's
        cell simply re-runs.  A missing, empty, or wrong-identity
        journal recovers nothing and is rewritten from a fresh header.
        """
        header = dict(self.identity, kind="sweep")
        recovered: JournalCells = {}
        clean = 0  # byte offset just past the last trusted line
        for entry, end in read_jsonl(self.path):
            if clean == 0:
                if entry != header:
                    break  # foreign or stale journal: start over
            elif entry.get("kind") == "cell":
                try:
                    result = SimulationResult.from_dict(entry["result"])
                    cell = (str(entry["design"]), str(entry["workload"]))
                except (KeyError, TypeError, ValueError):
                    break
                recovered[cell] = result
            else:
                break
            clean = end
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a+b")
        self._handle.truncate(clean)
        if clean == 0:
            self._write_line(header)
        return recovered

    # -- writing -------------------------------------------------------

    def record(
        self,
        design: str,
        workload: str,
        seconds: float,
        result: SimulationResult,
    ) -> None:
        """Checkpoint one completed cell (flushed + fsynced, so it
        survives an immediate kill)."""
        self._write_line(
            {
                "kind": "cell",
                "design": design,
                "workload": workload,
                "seconds": seconds,
                "result": result.to_dict(),
            }
        )

    def _write_line(self, entry: dict) -> None:
        if self._handle is None:
            raise RuntimeError("journal not open")
        self._handle.write(json.dumps(entry).encode() + b"\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop writing; the journal stays on disk for a later resume."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def discard(self) -> None:
        """The sweep completed: close and delete the journal."""
        self.close()
        self.path.unlink(missing_ok=True)

    @property
    def exists(self) -> bool:
        return self.path.exists()


__all__ = ["JournalCells", "SweepJournal"]
