#!/usr/bin/env python3
"""MiniQMC: wide arrival distributions and how much communication they hide
(§4.2.3, Figures 8/9, and the §5 "binning vs fine-grained" discussion).

MiniQMC is the application where the paper sees the largest opportunity:
the per-thread mover times spread over tens of milliseconds every iteration,
so half the cores sit idle waiting for the slowest walkers.  This example

* reproduces the Figure 8 percentile plot and the Figure 9 single-iteration
  histogram,
* quantifies the idle time (reclaimable time / idle ratio), and
* sweeps the early-bird model over message sizes and partition granularities
  to show when fine-grained delivery vs binned aggregation wins.

Run with::

    python examples/miniqmc_overlap.py
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import BinnedStrategy, BulkStrategy, FineGrainedStrategy, ThreadTimingAnalyzer
from repro.core.earlybird import EarlyBirdModel
from repro.core.laggard import IterationClass
from repro.core.strategies import compare_strategies
from repro.experiments.config import CampaignConfig
from repro.experiments.figures import figure9_miniqmc_histogram
from repro.experiments.session import CampaignSession
from repro.viz import ascii_histogram, ascii_percentile_plot, ascii_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--threads", type=int, default=48)
    parser.add_argument("--seed", type=int, default=20230421)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = CampaignConfig(
        application="miniqmc",
        trials=args.trials,
        processes=args.processes,
        iterations=args.iterations,
        threads=args.threads,
        seed=args.seed,
    )
    print("running MiniQMC campaign...")
    dataset = CampaignSession(config).run().dataset
    analyzer = ThreadTimingAnalyzer(dataset)

    print("\nFigure 8 analogue — per-iteration mover percentiles (ms):")
    print(ascii_percentile_plot(analyzer.percentile_series(), width=70, height=16))

    figure9 = figure9_miniqmc_histogram(dataset)
    print(
        f"\nFigure 9 analogue — one process-iteration, 1 ms bins "
        f"(spread {figure9['spread_ms']:.1f} ms):"
    )
    print(ascii_histogram(figure9["histogram"], max_rows=20, unit_scale=1e3))

    reclaimable = analyzer.reclaimable()
    print(
        f"\nreclaimable time: {reclaimable.mean_reclaimable_s * 1e3:.1f} ms per "
        f"iteration; idle ratio {reclaimable.mean_idle_ratio:.3f} — "
        f"roughly {100 * reclaimable.mean_idle_ratio:.0f}% of the fork/join window is idle"
    )

    # ------------------------------------------------------------ buffer sweep
    grouped = analyzer.grouped("process_iteration")
    exemplar = analyzer.laggards().exemplar(IterationClass.WIDE)
    arrivals = grouped.group(exemplar) if exemplar is not None else grouped.values[0]

    print("\nHow much of the message can early-bird delivery hide?")
    rows = []
    for buffer_mb in (1, 4, 16, 64):
        model = EarlyBirdModel(buffer_bytes=buffer_mb * 1024 * 1024)
        outcome = model.evaluate(arrivals)
        rows.append(
            {
                "buffer (MB)": buffer_mb,
                "bulk exposed comm (ms)": (outcome.bulk_completion_s - outcome.last_arrival_s) * 1e3,
                "early-bird exposed (ms)": outcome.post_compute_communication_s * 1e3,
                "hidden fraction": outcome.overlap_efficiency,
            }
        )
    print(ascii_table(rows))

    # -------------------------------------------------- granularity comparison
    print("\nfine-grained vs binned aggregation (16 MB buffer):")
    strategies = [
        BulkStrategy(),
        FineGrainedStrategy(),
        BinnedStrategy(4),
        BinnedStrategy(12),
    ]
    comparison = compare_strategies(
        arrivals, buffer_bytes=16 * 1024 * 1024, strategies=strategies
    )
    rows = [
        {
            "strategy": name,
            "completion (ms)": outcome.completion_s * 1e3,
            "exposed after compute (us)": outcome.exposed_after_compute_s * 1e6,
            "messages": outcome.n_messages,
        }
        for name, outcome in comparison.outcomes.items()
    ]
    print(ascii_table(rows))
    print(
        "\nConclusion: with MiniQMC-like spreads both binned aggregation and "
        "fine-grained early-bird transmission hide almost all of the "
        "communication, matching the paper's §5 assessment."
    )


if __name__ == "__main__":
    main()
