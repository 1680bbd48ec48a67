"""Ablation A2 — OS noise on/off and loop-schedule choice.

Design-choice checks called out in DESIGN.md:

* with the OS-noise model disabled, MiniFE's laggard iterations drop to
  (almost) none beyond the application-level stragglers, and MiniMD's
  post-warm-up laggards disappear entirely — evidence that the noise model is
  what reproduces the paper's laggard statistics;
* switching MiniFE's mat-vec loop from ``static`` to ``dynamic`` scheduling
  removes the deterministic boundary-thread imbalance (the early arrivals),
  pushing its process-iteration distributions towards normality — the
  counterfactual behind the §4.2.1 "work distribution imbalance" explanation.
"""

import numpy as np
import pytest

from repro.apps.minife.app import MiniFEApp, MiniFEConfig
from repro.core.analyzer import ThreadTimingAnalyzer
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.openmp.schedule import DynamicSchedule


def _run(config):
    return CampaignSession(config).run().dataset


def _ablation_config(application, *, noise):
    config = CampaignConfig(
        application=application,
        trials=1,
        processes=2,
        iterations=100,
        threads=48,
        seed=20230421,
    )
    if not noise:
        config.machine = config.machine.without_noise()
    return config


def test_noise_off_removes_minimd_laggards(benchmark):
    dataset = benchmark(_run, _ablation_config("minimd", noise=False))
    analyzer = ThreadTimingAnalyzer(dataset)
    laggards = analyzer.laggards()
    steady = [
        bool(has)
        for key, has in zip(laggards.keys, laggards.has_laggard)
        if key[-1] >= 19
    ]
    assert np.mean(steady) == pytest.approx(0.0, abs=0.02)


def test_noise_on_restores_minimd_laggards(benchmark):
    dataset = benchmark(_run, _ablation_config("minimd", noise=True))
    analyzer = ThreadTimingAnalyzer(dataset)
    laggards = analyzer.laggards()
    steady = [
        bool(has)
        for key, has in zip(laggards.keys, laggards.has_laggard)
        if key[-1] >= 19
    ]
    assert 0.005 < np.mean(steady) < 0.15


def test_noise_off_minife_laggards_come_from_the_application(benchmark):
    dataset = benchmark(_run, _ablation_config("minife", noise=False))
    fraction = ThreadTimingAnalyzer(dataset).laggards().laggard_fraction
    # only the application-level straggler model remains (~18 %)
    assert 0.08 < fraction < 0.30


def test_dynamic_schedule_rebalances_minife(benchmark):
    """Dynamic scheduling removes the boundary-thread early arrivals."""

    def build_dataset():
        config = _ablation_config("minife", noise=False)
        dataset_static = _run(config)
        return dataset_static

    static_ds = benchmark(build_dataset)
    static_report = ThreadTimingAnalyzer(static_ds).report(include_earlybird=False)
    # without execution jitter the only spread left in the static campaign is
    # the deterministic work imbalance plus the application stragglers
    assert static_report.mean_iqr_ms < 0.2

    app = MiniFEApp(MiniFEConfig(straggler_probability=0.0, schedule=DynamicSchedule(chunk=64)))
    rng = np.random.default_rng(0)
    static_base = MiniFEApp(
        MiniFEConfig(straggler_probability=0.0)
    ).base_thread_times(0, 0, rng)
    dynamic_base = app.base_thread_times(0, 0, rng)
    # dynamic scheduling narrows the spread of pure work per thread and in
    # particular removes the early boundary threads of the static blocks
    assert dynamic_base.std() < static_base.std()
    assert static_base.min() < dynamic_base.min()
