"""The benchmark's arithmetic: percentiles, span self time, failure counts.

Pure functions over plain numbers, kept apart from the workloads so that
``test_stats.py`` can pin each rule on its own.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile that leaves at least ``beyond`` samples above it.

    Returns ``(q, value)``.  With nearest rank, the sample of rank
    ``n - beyond`` is the highest one that still has ``beyond`` samples
    ranked after it, and it is the ``100 * (n - beyond) / n``-th
    percentile.  A tail is never taken below the median: with fewer than
    ``2 * beyond`` samples the median's rank is used.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - beyond, math.ceil(n / 2))
    return 100.0 * rank / n, ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def ratio(part: float, whole: float) -> float:
    """``part / whole``, reading 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


@dataclass
class Span:
    """One timed call into a layer; ``parent`` indexes the enclosing span."""

    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Grandchildren are not subtracted again: they lie inside a child,
    whose whole interval is already taken out.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(index, ()), s.start, s.end)
        for index, s in enumerate(spans)
    ]


@dataclass
class Tally:
    """Operations attempted, failed and wrong in one run.

    ``failed`` counts every operation that did not deliver a checked
    result: an error, a refusal, a truncation or a failed gate.  ``wrong``
    counts the subset whose output was checked and found incorrect (a
    wrong verdict, digest or safety check); any wrong output makes the
    run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, note: str, *, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.notes) < 10:
            self.notes.append(note)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def latency_metrics(samples_s: Sequence[float], wall_s: float) -> dict[str, float]:
    """``op_ms.p50``, ``op_ms.tail`` and ``ops_per_s`` from per-op seconds.

    ``ops_per_s`` counts every timed operation, failed ones included, over
    the measured wall time.
    """
    ms = [s * 1000.0 for s in samples_s]
    q, value = tail(ms)
    return {
        "op_ms.p50": median(ms),
        "op_ms.tail": value,
        "ops_per_s": len(ms) / wall_s,
        # Context for the reader, not metrics: how many samples, and which
        # percentile the tail rule picked from them.
        "samples": len(ms),
        "tail_percentile": q,
    }
