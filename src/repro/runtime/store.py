"""The one identity and persistence layer under every on-disk artefact.

Result-cache entries, sweep journals, golden records, serve job ids,
the serve drain checkpoint and trace-arena keys all rest on the same
four pieces, defined here once:

* **canonical encoding** — :func:`canonical_json_bytes` (sorted keys,
  compact separators, UTF-8) and its SHA-256, :func:`payload_digest`.
  Every content address in the codebase is a :func:`payload_digest`
  of a plain JSON-safe dict, so producer-side key order can never leak
  into an address;
* **cell identity** — :func:`cell_identity`: a cell is its scale
  *minus* ``benchmarks`` plus its design and workload.  The sibling
  ``benchmarks`` tuple only lists which other cells shared the sweep
  (or the :mod:`repro.serve` dispatch batch), which never influences a
  cell's result, so a CLI grid cell and a serve cell resolve to one
  address.  Callers add their own salt (cache version, golden schema,
  wire version) to the returned dict;
* **atomic publish** — :func:`atomic_write`: stage into a
  uniquely-named temp file, fsync, ``os.replace``.  Readers never
  observe a partial file and concurrent writers of one path each land
  a complete copy (last replace wins);
* **torn-tail JSONL reading** — :func:`read_jsonl`: the records of an
  append-only or one-shot JSONL file up to the first line a kill could
  have cut short.

This module is a leaf: it imports nothing from the rest of
:mod:`repro`, so :mod:`repro.check` and :mod:`repro.serve` can build on
it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple


def canonical_json_bytes(payload: Any) -> bytes:
    """The canonical JSON encoding: sorted keys, compact separators."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON bytes."""
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def scale_identity(scale: Any) -> Dict[str, Any]:
    """The scale's identity fields: every field but ``benchmarks``."""
    fields = dataclasses.asdict(scale)
    fields.pop("benchmarks", None)
    return fields


def cell_identity(scale: Any, design: str, workload: str) -> Dict[str, Any]:
    """What determines one cell's result (see the module docstring)."""
    return {
        "scale": scale_identity(scale),
        "design": design,
        "workload": workload,
    }


def atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` durably and all-or-nothing.

    The temp file is unique per call, so racing writers never
    interleave into one staging file; it is removed if anything before
    the replace fails (the previous ``path``, if any, stays intact).
    """
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only if the replace never ran


def read_jsonl(path: Path) -> Iterator[Tuple[Dict[str, Any], int]]:
    """Each complete dict record of a JSONL file, with the byte offset
    just past its line.

    Stops at the first line that lacks its newline, does not parse, or
    is not a JSON object: a kill mid-write leaves such a torn tail, and
    nothing after it is trusted.  A missing file yields nothing.  The
    last offset yielded is where an appender should truncate before
    writing again.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    offset = 0
    for line in data.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            return
        try:
            entry = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return
        if not isinstance(entry, dict):
            return
        offset += len(line)
        yield entry, offset


__all__ = [
    "atomic_write",
    "canonical_json_bytes",
    "cell_identity",
    "payload_digest",
    "read_jsonl",
    "scale_identity",
]
