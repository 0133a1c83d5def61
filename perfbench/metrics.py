"""Metric arithmetic for the benchmark, kept free of any simulator
import so it can be tested on its own (see ``perfbench/tests``)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it describes one or two outliers, not a tail.
MIN_BEYOND = 10


def quantile_with_tail(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """Nearest-rank ``q``-quantile of ``values``, or ``None`` when
    fewer than ``min_beyond`` samples lie beyond its rank."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


Span = Tuple[int, Optional[int], str, float, float]
"""``(span id, parent id or None, name, start, end)``."""


def span_self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of that
    interval covered by its direct children (overlapping children are
    counted once, and clipped to the parent's interval)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for span_id, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def overhead_ms_per_cell(
    jobs: int, wall_seconds: float, cell_seconds: Sequence[float]
) -> float:
    """Executor overhead per cell: worker-seconds the sweep held
    (``jobs × wall``) that no cell spent simulating, in ms per cell."""
    if not cell_seconds:
        return 0.0
    idle = jobs * wall_seconds - sum(cell_seconds)
    return 1000.0 * idle / len(cell_seconds)


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed cells over attempted cells (0 when nothing ran)."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"bad counts: failed={failed} attempted={attempted}")
    return failed / attempted if attempted else 0.0


def paper_error_pp(
    simulated: Mapping[str, float], reference: Mapping[str, float]
) -> float:
    """Mean absolute gap, in percentage points, between simulated and
    paper averages over the keys of ``reference``."""
    if not reference:
        raise ValueError("empty reference table")
    return statistics.fmean(
        abs(simulated[key] - value) for key, value in reference.items()
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, the way the
    acceptance check computes it (``statistics.quantiles(n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
