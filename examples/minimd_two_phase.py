#!/usr/bin/env python3
"""MiniMD two-phase behaviour and the role of OS noise (§4.2.2, Figures 6/7).

MiniMD is the application the paper flags as *hard* for early-bird
communication: outside of a wide warm-up phase its threads arrive nearly
simultaneously, and the rare laggards that do appear are caused by OS noise
rather than by the work distribution.  This example shows all three pieces:

* the two-phase percentile plot (Figure 6) and per-phase IQR table,
* the three distribution classes with example histograms (Figure 7), and
* an OS-noise ablation: re-running the same campaign with the noise model
  disabled makes the post-warm-up laggards disappear.

Run with::

    python examples/minimd_two_phase.py
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import ThreadTimingAnalyzer
from repro.experiments.config import CampaignConfig
from repro.experiments.figures import figure7_minimd_classes
from repro.experiments.tables import minimd_phase_table
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


def _steady_laggard_fraction(analyzer: ThreadTimingAnalyzer, warmup: int = 19) -> float:
    laggards = analyzer.laggards()
    steady = [
        bool(has)
        for key, has in zip(laggards.keys, laggards.has_laggard)
        if key[-1] >= warmup
    ]
    return float(np.mean(steady)) if steady else 0.0


def main() -> None:
    args = parse_args()
    base_config = CampaignConfig(
        application="minimd",
        trials=args.trials,
        processes=args.processes,
        iterations=args.iterations,
        threads=args.threads,
        seed=args.seed,
    )

    print("running MiniMD campaign (OS-noise model enabled)...")
    noisy = CampaignSession(base_config).run().dataset
    noisy_analyzer = ThreadTimingAnalyzer(noisy)

    print("\nFigure 6 analogue — per-iteration arrival percentiles (ms):")
    print(ascii_percentile_plot(noisy_analyzer.percentile_series(), width=70, height=16))

    print("\ntwo-phase IQR comparison (paper §4.2.2):")
    print(ascii_table(minimd_phase_table(noisy)))

    figure7 = figure7_minimd_classes(noisy)
    print(
        f"\npost-warm-up classes: {100 * figure7['steady_no_laggard_fraction']:.1f}% "
        f"no laggard vs {100 * figure7['steady_laggard_fraction']:.1f}% laggard "
        f"(paper: 95.2% / 4.8%)"
    )
    if figure7["initial_histogram"] is not None:
        print("\nexample warm-up iteration (Figure 7a, 50 µs bins):")
        print(ascii_histogram(figure7["initial_histogram"], max_rows=14))
    if figure7["laggard_histogram"] is not None:
        print("\nexample laggard iteration (Figure 7c, 10 µs bins):")
        print(ascii_histogram(figure7["laggard_histogram"], max_rows=14))

    # ------------------------------------------------------------ noise ablation
    print("\nre-running the identical campaign with OS noise disabled...")
    quiet_config = CampaignConfig(
        application="minimd",
        trials=args.trials,
        processes=args.processes,
        iterations=args.iterations,
        threads=args.threads,
        seed=args.seed,
    )
    quiet_config.machine = quiet_config.machine.without_noise()
    quiet = CampaignSession(quiet_config).run().dataset
    quiet_analyzer = ThreadTimingAnalyzer(quiet)

    rows = [
        {
            "campaign": "noise enabled",
            "steady-state laggard %": 100 * _steady_laggard_fraction(noisy_analyzer),
            "mean IQR (ms)": noisy_analyzer.percentile_series().iqr[19:].mean(),
        },
        {
            "campaign": "noise disabled",
            "steady-state laggard %": 100 * _steady_laggard_fraction(quiet_analyzer),
            "mean IQR (ms)": quiet_analyzer.percentile_series().iqr[19:].mean(),
        },
    ]
    print("\nOS-noise ablation (post-warm-up iterations only):")
    print(ascii_table(rows))
    print(
        "\nConclusion: MiniMD's rare, high-magnitude laggards are a noise "
        "phenomenon — exactly the situation the paper says needs 'a more "
        "sophisticated approach' before early-bird delivery pays off."
    )


if __name__ == "__main__":
    main()
