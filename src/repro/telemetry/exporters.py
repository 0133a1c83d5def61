"""Trace exporters: JSONL event log and Chrome-trace/Perfetto JSON.

Both exporters accept either a flat event sequence (one run) or a
mapping of *track label* -> event sequence (a merged sweep, one track
per ``design/workload`` cell).  The Chrome export follows the Trace
Event Format — instant events for the structural stream, counter
tracks for the epoch samples — so a file written here opens directly
in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

from repro.telemetry.events import EpochSample, TelemetryEvent, field_names

#: Exporter input: one run's events, or label -> events for many runs.
EventStream = Union[
    Sequence[TelemetryEvent], Mapping[str, Sequence[TelemetryEvent]]
]

#: Thread ids within each Chrome-trace process, one lane per event
#: kind so the structural streams render as parallel tracks.
_KIND_TIDS = {
    "segment_swap": 1,
    "mode_transition": 2,
    "isa_alloc": 3,
    "writeback": 4,
    "page_fault": 5,
    "epoch_sample": 6,
    "job_retry": 7,
    "arena": 8,
}


def _tracks(events: EventStream) -> Dict[str, Sequence[TelemetryEvent]]:
    if isinstance(events, Mapping):
        return dict(events)
    return {"run": events}


def write_jsonl(events: EventStream, path: str | Path) -> int:
    """Write one JSON object per event; returns the event count.

    Multi-track input adds a ``"track"`` field to every line so a
    merged sweep log remains self-describing.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        tracks = _tracks(events)
        tag_tracks = len(tracks) > 1
        for label, stream in tracks.items():
            for event in stream:
                data = event.to_dict()
                if tag_tracks:
                    data["track"] = label
                handle.write(json.dumps(data, sort_keys=True))
                handle.write("\n")
                count += 1
    return count


def chrome_trace_events(
    events: Sequence[TelemetryEvent], pid: int, label: str
) -> List[dict]:
    """One track's Trace Event Format records (metadata included)."""
    records: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    named_tids = set()
    for event in events:
        tid = _KIND_TIDS.get(event.kind, 0)
        if tid not in named_tids:
            named_tids.add(tid)
            records.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": event.kind},
                }
            )
        ts = event.time_ns / 1000.0  # Trace Event ts is microseconds
        if isinstance(event, EpochSample):
            # Counter track: cumulative engine counters over time.
            records.append(
                {
                    "name": "engine counters",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "accesses": event.accesses,
                        "fast_hits": event.fast_hits,
                        "swaps": event.swaps,
                        "faults": event.faults,
                    },
                }
            )
        else:
            records.append(
                {
                    "name": event.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        name: getattr(event, name)
                        for name in field_names(type(event))
                        if name != "time_ns"
                    },
                }
            )
    return records


def write_chrome_trace(events: EventStream, path: str | Path) -> int:
    """Write a ``chrome://tracing``/Perfetto JSON file; returns the
    number of (non-metadata) events exported.

    The file is byte-identical to ``json.dump({"traceEvents": records,
    "displayTimeUnit": "ns"})`` but streamed one track at a time through
    the C encoder (``json.dump`` always takes the pure-Python one), so
    neither the sweep's record list nor the file's text is ever held
    whole.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write('{"traceEvents": [')
        tracks = enumerate(_tracks(events).items(), start=1)
        for pid, (label, stream) in tracks:
            if pid > 1:
                handle.write(", ")
            records = chrome_trace_events(stream, pid=pid, label=label)
            handle.write(json.dumps(records)[1:-1])
            count += len(stream)
        handle.write('], "displayTimeUnit": "ns"}')
    return count


def write_trace(events: EventStream, path: str | Path) -> int:
    """Dispatch on suffix: ``.jsonl`` -> JSONL, anything else ->
    Chrome trace JSON."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return write_jsonl(events, path)
    return write_chrome_trace(events, path)


__all__ = [
    "EventStream",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
