"""The benchmark's own arithmetic: medians, spreads, tails, spans, memory.

Everything here is pure and small so that ``selftest.py`` can pin it.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: percentiles a tail may be reported at, highest first
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = median(values)
    return (q3 - q1) / centre if centre else math.inf


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with at least ten of ``n`` samples beyond.

    ``n * (1 - p/100)`` samples lie above the p-th percentile; ``None`` when
    even the median has fewer than ten beyond it (``n < 20``).
    """
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return None


def p90_or_max(values: Sequence[float]) -> Tuple[float, Optional[str]]:
    """The p90 where ten samples lie beyond it, else the maximum (noted)."""
    tail = tail_percentile(len(values))
    if tail is not None and tail >= 90.0:
        return percentile(values, 90.0), None
    return max(values), f"max: {len(values)} samples, fewer than 100"


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def parse_vmhwm_kb(status_text: str) -> int:
    """``VmHWM`` (peak resident set, kB) from a ``/proc/<pid>/status`` text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) < 2 or (len(fields) > 2 and fields[2] != "kB"):
                raise ValueError(f"unexpected VmHWM line: {line!r}")
            return int(fields[1])
    raise ValueError("no VmHWM line in status text")


def read_vmhwm_kb(pid: str = "self") -> int:
    with open(f"/proc/{pid}/status") as handle:
        return parse_vmhwm_kb(handle.read())


# ----------------------------------------------------------------------
# spans: (id, parent_id, name, start_ns, end_ns); parent 0 = top level
# ----------------------------------------------------------------------
Span = Tuple[int, int, str, int, int]


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds per span name, each span minus the time its children cover.

    Children of one span run inside it on the same thread or task and do
    not overlap each other, so their durations add up.
    """
    spans = list(spans)
    child_ns: Dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        totals[name] += max(0, end - start - child_ns[span_id]) / 1e9
    return dict(totals)


def span_counts(spans: Iterable[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for _, _, name, _, _ in spans:
        counts[name] += 1
    return dict(counts)


def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total, reach = 0, lo
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def unattributed_share(spans: Iterable[Span], lo: int, hi: int) -> float:
    """Share of the window ``[lo, hi]`` (ns) that no span covers."""
    if hi <= lo:
        raise ValueError("empty window")
    covered = covered_ns(((s[3], s[4]) for s in spans), lo, hi)
    return 1.0 - covered / (hi - lo)
