"""Drain checkpoint: the unserved queue, persisted across restarts.

On SIGTERM the server finishes its in-flight batch, then writes every
still-queued request to a :mod:`repro.runtime.journal`-style JSONL
file — a ``{"kind": "serve-queue", ...}`` header restating the wire
format, then one ``{"kind": "job", ...}`` line per queued request.  A
restarted server pointed at the same directory loads the file, deletes
it, and re-queues the requests; job digests are recomputed from the
request identity, so a client that was told "checkpointed, poll
``/v1/jobs/<id>``" finds its job under the same id.

Loading uses the sweep journal's torn-tail reader
(:func:`repro.runtime.store.read_jsonl`): parsing stops at the first
line that is incomplete or malformed (a kill mid-write costs the tail,
never the file), and a header from a different wire version discards
the whole checkpoint rather than guessing at its meaning.  Unlike the
sweep journal the file is written in one shot at drain time
(:func:`repro.runtime.store.atomic_write`), not appended per-event —
the queue is only ever persisted whole.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence

from repro._version import __version__
from repro.runtime.store import atomic_write, read_jsonl
from repro.serve.protocol import (
    BadRequest,
    SimRequest,
    WIRE_VERSION,
)

#: Checkpoint file name inside the server's checkpoint directory.
CHECKPOINT_NAME = "serve-queue.jsonl"


class QueueCheckpoint:
    """Whole-queue snapshot in ``<root>/serve-queue.jsonl``."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / CHECKPOINT_NAME

    @property
    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -------------------------------------------------------

    def write(self, requests: Sequence[SimRequest]) -> Path:
        """Persist the queue (fsynced, atomically published)."""
        self.root.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "serve-queue",
            "wire": WIRE_VERSION,
            "version": __version__,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for request in requests:
            lines.append(
                json.dumps(
                    {
                        "kind": "job",
                        "id": request.digest,
                        "request": request.to_dict(),
                    },
                    sort_keys=True,
                )
            )
        atomic_write(self.path, ("\n".join(lines) + "\n").encode())
        return self.path

    # -- loading -------------------------------------------------------

    def load(self) -> List[SimRequest]:
        """Queued requests from a previous drain (tolerates a torn
        tail; a missing or foreign-wire checkpoint recovers nothing)."""
        entries = (entry for entry, _ in read_jsonl(self.path))
        header = next(entries, None)
        if (
            header is None
            or header.get("kind") != "serve-queue"
            or header.get("wire") != WIRE_VERSION
        ):
            return []  # foreign or incompatible checkpoint
        requests: List[SimRequest] = []
        for entry in entries:
            if entry.get("kind") != "job":
                break
            try:
                requests.append(SimRequest.from_dict(entry["request"]))
            except (BadRequest, KeyError, TypeError):
                break
        return requests

    def discard(self) -> None:
        """The queue was re-admitted (or served): drop the file."""
        self.path.unlink(missing_ok=True)


__all__ = ["CHECKPOINT_NAME", "QueueCheckpoint"]
