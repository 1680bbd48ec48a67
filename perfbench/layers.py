"""Per-layer metrics of one traced pass, folded from its spans and counts.

Each ``*_s`` metric is busy time: the self time of the layer's spans,
summed over the program process and its pool workers.  A layer the pass
does not use reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import pbstats

PASSES = ("percentiles", "histogram", "laggards", "reclaimable", "normality", "earlybird")
STAGES = ("accumulate", "merge", "finalize")

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("backend.run_s", "s"),
    ("backend.samples", "count"),
    ("backend.samples_per_s", "1/s"),
    ("executor.map_blocks_s", "s"),
    ("executor.chunks", "count"),
    *((f"analysis.{p}.{stage}_s", "s") for p in PASSES for stage in STAGES),
    ("analysis.engine_s", "s"),
    ("store.append_s", "s"),
    ("store.finalize_s", "s"),
    ("store.read_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.groups", "count"),
    ("cache_tier.hits", "count"),
    ("cache_tier.misses", "count"),
    ("cache_tier.hit_ratio", "ratio"),
    ("cache_tier.admit_s", "s"),
    ("output.tables_s", "s"),
    ("output.figures_s", "s"),
    ("output.bytes_written", "bytes"),
    ("service.queue_wait_s", "s"),
    ("service.job_run_s", "s"),
    ("service.analyses_s", "s"),
    ("service.http_s", "s"),
    ("service.coalesced", "count"),
    ("service.coalesce_ratio", "ratio"),
    ("service.rejected", "count"),
    ("setup.import_s", "s"),
    ("setup.config_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
)


def _add(totals: Dict[str, float], more: Dict[str, float]) -> None:
    for name, value in more.items():
        totals[name] = totals.get(name, 0) + value


def from_trace(
    span_groups: Sequence[Sequence[pbstats.Span]],
    events: Iterable[Tuple[str, float, int]],
) -> Dict[str, float]:
    """The span-derived metrics of one pass, from the spans of each of its
    processes (ids are unique only within one process)."""
    own: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    hits = 0
    for spans in span_groups:
        _add(own, pbstats.self_times(spans))
        _add(calls, pbstats.span_counts(spans))
        # admit() bumps the LRU clock through touch(); only a bare touch
        # serves a hit
        names = {span[0]: span[2] for span in spans}
        hits += sum(
            1 for span in spans
            if span[2] == "cache_tier.touch" and names.get(span[1]) != "cache_tier.admit"
        )
    counts: Dict[str, float] = {}
    for name, amount, _ in events:
        counts[name] = counts.get(name, 0.0) + amount
    run_s = own.get("backend.run", 0.0)
    samples = counts.get("backend.samples", 0.0)
    misses = calls.get("cache_tier.admit", 0)
    metrics = {
        "backend.run_s": run_s,
        "backend.samples": samples,
        "backend.samples_per_s": samples / run_s if run_s > 0 else 0.0,
        "executor.map_blocks_s": own.get("executor.map_blocks", 0.0)
        + own.get("executor.wait", 0.0),
        "executor.chunks": counts.get("executor.chunks", 0.0),
        "analysis.engine_s": own.get("analysis.engine", 0.0),
        "store.append_s": own.get("store.append", 0.0),
        "store.finalize_s": own.get("store.finalize", 0.0),
        "store.read_s": own.get("store.read", 0.0),
        "store.bytes_written": counts.get("store.bytes_written", 0.0),
        "store.groups": counts.get("store.groups", 0.0),
        "cache_tier.hits": float(hits),
        "cache_tier.misses": float(misses),
        "cache_tier.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache_tier.admit_s": own.get("cache_tier.admit", 0.0),
        "output.tables_s": own.get("output.tables", 0.0),
        "output.figures_s": own.get("output.figures", 0.0),
    }
    for p in PASSES:
        for stage in STAGES:
            metrics[f"analysis.{p}.{stage}_s"] = own.get(f"analysis.{p}.{stage}", 0.0)
    return metrics


def inclusive_top_level(spans: Sequence[pbstats.Span], name: str) -> float:
    """Seconds inside outermost ``name`` spans (nested layers included)."""
    by_id = {span[0]: span for span in spans}

    def nested(span) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    return sum(
        (s[4] - s[3]) / 1e9 for s in spans if s[2] == name and not nested(s)
    )


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Metric-wise median over passes (missing entries read 0)."""
    names = {name for sample in samples for name in sample}
    return {
        name: pbstats.median([sample.get(name, 0.0) for sample in samples])
        for name in names
    }
