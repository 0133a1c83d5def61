"""The golden-run conformance store.

A *golden* pins one simulation cell's exact semantics: the canonical
digest of its :class:`~repro.sim.SimulationResult` and of its telemetry
event stream, recorded once and committed under ``tests/goldens/`` so
every later run — on any branch, any kernel, any execution path — can
be byte-compared against it.

Keys are **content-addressed and version-independent**: a golden's
identity is the SHA-256 of the shared cell identity
(:func:`repro.runtime.store.cell_identity`: scale fields minus
``benchmarks``, design label, workload name) salted with the golden
schema — deliberately *not* ``repro.__version__``.  The result cache
keys on the package version so an upgrade re-simulates; the golden
store must do the opposite, so a version bump that silently changes
simulation semantics shows up as a digest mismatch instead of a fresh,
vacuously-green store.  An *intentional* semantic change is recorded
by re-blessing (``python -m repro.experiments check --bless --note
"..."``), which requires a changelog note explaining the change; the
note and the recording version are stored as metadata alongside each
digest.  Blessing publishes each record atomically
(:func:`repro.runtime.store.atomic_write`), so a killed ``--bless``
leaves every golden either old or new, never torn.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.runtime.store import (
    atomic_write,
    cell_identity,
    payload_digest,
    scale_identity,
)

#: Bumped when the golden file layout changes (not when simulation
#: semantics change — that is what the digests themselves detect).
GOLDEN_SCHEMA_VERSION = 1

#: Where goldens live unless ``--goldens``/``$REPRO_GOLDENS`` says
#: otherwise — the committed store at the repository root.
DEFAULT_GOLDENS_DIR = Path("tests") / "goldens"


def default_goldens_dir() -> Path:
    """``$REPRO_GOLDENS`` or the committed ``tests/goldens/``."""
    env = os.environ.get("REPRO_GOLDENS")
    return Path(env) if env else DEFAULT_GOLDENS_DIR


def cell_key(scale: Any, design: str, workload: str) -> str:
    """Version-independent content address of one cell."""
    return payload_digest(
        dict(
            cell_identity(scale, design, workload),
            golden_schema=GOLDEN_SCHEMA_VERSION,
        )
    )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", text)


@dataclass(frozen=True)
class GoldenRecord:
    """One blessed cell: digests plus provenance metadata."""

    design: str
    workload: str
    scale: Dict[str, Any]
    result_digest: str
    events_digest: str
    #: Required changelog note from the blessing run — *why* these
    #: digests are correct (initial recording, or what semantic change
    #: made re-blessing legitimate).
    note: str
    #: ``repro.__version__`` at blessing time.  Metadata only — never
    #: part of the key, so version bumps cannot silently retire a
    #: golden.
    recorded_version: str
    schema: int = GOLDEN_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "design": self.design,
            "workload": self.workload,
            "scale": self.scale,
            "result_digest": self.result_digest,
            "events_digest": self.events_digest,
            "note": self.note,
            "recorded_version": self.recorded_version,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GoldenRecord":
        schema = data.get("schema")
        if schema != GOLDEN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported golden schema {schema!r} "
                f"(expected {GOLDEN_SCHEMA_VERSION})"
            )
        return cls(
            design=data["design"],
            workload=data["workload"],
            scale=dict(data["scale"]),
            result_digest=data["result_digest"],
            events_digest=data["events_digest"],
            note=data["note"],
            recorded_version=data["recorded_version"],
        )


class GoldenStore:
    """Directory of per-cell golden records.

    One JSON file per cell, named ``<design>__<workload>__<key12>.json``
    — the digest prefix makes the name collision-free, the label prefix
    keeps ``git diff`` and code review readable.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    # -- addressing ----------------------------------------------------

    def path_for(self, scale: Any, design: str, workload: str) -> Path:
        key = cell_key(scale, design, workload)
        return self.root / (
            f"{_slug(design)}__{_slug(workload)}__{key[:12]}.json"
        )

    # -- traffic -------------------------------------------------------

    def get(
        self, scale: Any, design: str, workload: str
    ) -> Optional[GoldenRecord]:
        """The blessed record, or ``None`` when the cell was never
        blessed.  A damaged file raises — goldens are committed
        artefacts, silently ignoring corruption would defeat the
        store's whole purpose."""
        path = self.path_for(scale, design, workload)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        return GoldenRecord.from_dict(payload)

    def put(
        self,
        scale: Any,
        design: str,
        workload: str,
        result_digest: str,
        events_digest: str,
        note: str,
    ) -> GoldenRecord:
        """Bless one cell.  ``note`` is mandatory and non-empty."""
        if not note or not note.strip():
            raise ValueError(
                "blessing a golden requires a changelog note "
                "(--note) explaining why the new digests are correct"
            )
        import repro

        record = GoldenRecord(
            design=design,
            workload=workload,
            scale=scale_identity(scale),
            result_digest=result_digest,
            events_digest=events_digest,
            note=note.strip(),
            recorded_version=repro.__version__,
        )
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.path_for(scale, design, workload),
            (
                json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
            ).encode(),
        )
        return record

    # -- inventory -----------------------------------------------------

    def records(self) -> Iterator[Tuple[Path, GoldenRecord]]:
        """Every committed record, in sorted path order."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            yield path, GoldenRecord.from_dict(json.loads(path.read_text()))

    def __len__(self) -> int:
        return sum(1 for _ in self.records())


__all__ = [
    "DEFAULT_GOLDENS_DIR",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenRecord",
    "GoldenStore",
    "cell_key",
    "default_goldens_dir",
    "scale_identity",
]
