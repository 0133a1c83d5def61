"""Content-addressed on-disk result cache for sweep cells.

Each ``(Scale, design, workload)`` simulation cell is deterministic
(seeded workload synthesis, no wall-clock dependence), so its
:class:`~repro.sim.SimulationResult` can be cached across processes and
CLI invocations.  The cache key is the
:func:`~repro.runtime.store.payload_digest` of

    {**cell_identity(scale, design, workload),
     "version": repro.__version__, "result_schema": ...}

so any change to the experiment scale, the library version, or the wire
format addresses a different entry — stale results are never returned,
they are simply orphaned (and reclaimable with ``cache clear``).  The
cell identity excludes the scale's ``benchmarks`` sibling list, so the
same cell run in a CLI grid or a :mod:`repro.serve` batch shares one
entry.

Entries are one JSON file each, sharded by digest prefix
(``<root>/ab/abcdef....json``) and published with
:func:`~repro.runtime.store.atomic_write`.  The cache is unbounded;
``cache clear`` reclaims it.  All traffic is counted in
:class:`CacheStats`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runtime.store import atomic_write, cell_identity, payload_digest
from repro.sim import RESULT_SCHEMA_VERSION, SimulationResult


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


@dataclass
class CacheStats:
    """Traffic accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Unreadable/truncated/incompatible entries dropped on lookup
    #: (each also counts as a miss).
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Persistent map ``(scale, design, workload) -> SimulationResult``."""

    def __init__(
        self, root: Path | str | None = None, *, version: str | None = None
    ) -> None:
        if version is None:
            from repro import __version__ as version
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version
        self.stats = CacheStats()

    # -- keying --------------------------------------------------------

    def _identity(
        self, scale: Any, design: str, workload: str
    ) -> Dict[str, Any]:
        """The shared cell identity salted with this cache's version
        and the result schema (stored alongside each entry)."""
        return dict(
            cell_identity(scale, design, workload),
            version=self.version,
            result_schema=RESULT_SCHEMA_VERSION,
        )

    def _path(self, identity: Dict[str, Any]) -> Path:
        digest = payload_digest(identity)
        return self.root / digest[:2] / f"{digest}.json"

    def entry_path(self, scale: Any, design: str, workload: str) -> Path:
        """Where the cell's entry lives (whether or not it exists)."""
        return self._path(self._identity(scale, design, workload))

    # -- traffic -------------------------------------------------------

    def get(
        self, scale: Any, design: str, workload: str
    ) -> Optional[SimulationResult]:
        """The cached result, or ``None`` (counted as hit/miss).

        A corrupt entry — truncated file, invalid JSON or UTF-8, wrong
        payload shape, incompatible result schema, even an unreadable
        file — **never raises**: it is removed and counted as a miss
        (plus ``stats.corrupt``), so one damaged file costs one
        re-simulation, not the sweep.  A lookup touches the entry only
        by reading it, so a concurrent ``cache clear`` can cost a miss
        but never an error.
        """
        path = self.entry_path(scale, design, workload)
        try:
            payload = json.loads(path.read_text())
            result = SimulationResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (
            OSError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ):
            # Corrupt or incompatible entry: drop it and report a miss.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # unremovable (permissions): still just a miss
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        scale: Any,
        design: str,
        workload: str,
        result: SimulationResult,
    ) -> Path:
        """Persist ``result`` through :func:`atomic_write`.

        Safe under concurrent writers (``--jobs`` sweeps or
        :mod:`repro.serve` dispatch batches sharing a cache dir): each
        racer lands a complete entry — last replace wins — and readers
        never observe a partial file.
        """
        identity = self._identity(scale, design, workload)
        path = self._path(identity)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": identity, "result": result.to_dict()}
        atomic_write(path, json.dumps(payload).encode())
        self.stats.stores += 1
        return path

    # -- maintenance ---------------------------------------------------

    def _entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/*.json"))

    def info(self) -> Dict[str, Any]:
        """Inventory: root, entry count, total bytes, version keyed."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "version": self.version,
            "result_schema": RESULT_SCHEMA_VERSION,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        entries = self._entries()
        for path in entries:
            path.unlink(missing_ok=True)
        return len(entries)


__all__ = ["CacheStats", "ResultCache", "default_cache_dir"]
