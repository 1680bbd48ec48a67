"""Unit tests for the OS-noise model."""

import numpy as np
import pytest

from repro.cluster.noise import (
    NoiseEvent,
    NoiseSpec,
    OSNoiseModel,
    WindowedNoiseModel,
    total_noise,
)
from repro.cluster.topology import Core

CORE = Core(0, 0, 0)
OTHER_CORE = Core(0, 0, 1)


class TestNoiseSpec:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(interrupt_rate_hz=-1.0)

    def test_disabled_copy_switches_off(self):
        spec = NoiseSpec()
        assert spec.enabled
        assert not spec.disabled().enabled


class TestEvents:
    def test_periodic_daemon_events_follow_the_period(self):
        spec = NoiseSpec(
            daemon_period_s=0.01,
            daemon_duration_s=1e-6,
            interrupt_rate_hz=0.0,
            jitter_fraction=0.0,
        )
        model = OSNoiseModel(spec, np.random.default_rng(0))
        events = model.events_in(CORE, 0.0, 0.1)
        assert 9 <= len(events) <= 11
        gaps = np.diff([e.start for e in events])
        np.testing.assert_allclose(gaps, 0.01, rtol=1e-9)

    def test_disabled_model_produces_no_events_or_delay(self):
        model = OSNoiseModel(NoiseSpec().disabled(), np.random.default_rng(0))
        assert model.events_in(CORE, 0.0, 1.0) == []
        assert model.delay_over(CORE, 0.0, 0.05) == 0.0

    def test_total_noise_sums_durations(self):
        events = [NoiseEvent(0.0, 1e-3), NoiseEvent(0.5, 2e-3)]
        assert total_noise(events) == pytest.approx(3e-3)


class TestDelays:
    def test_delay_is_nonnegative_and_bounded(self):
        model = OSNoiseModel(NoiseSpec(), np.random.default_rng(1))
        delays = [model.delay_over(CORE, i * 0.03, 0.025) for i in range(200)]
        assert all(d >= 0.0 for d in delays)
        # one window cannot accumulate more noise than physically available
        assert max(delays) < 0.025

    def test_zero_work_has_zero_delay(self):
        model = OSNoiseModel(NoiseSpec(), np.random.default_rng(2))
        assert model.delay_over(CORE, 0.0, 0.0) == 0.0

    def test_negative_work_rejected(self):
        model = OSNoiseModel(NoiseSpec(), np.random.default_rng(2))
        with pytest.raises(ValueError):
            model.delay_over(CORE, 0.0, -1.0)

    def test_jittered_compute_disabled_is_identity(self):
        model = OSNoiseModel(NoiseSpec().disabled(), np.random.default_rng(3))
        assert model.jittered_compute(0.02) == 0.02

    def test_jittered_compute_spread_matches_fraction(self):
        spec = NoiseSpec(jitter_fraction=0.01)
        model = OSNoiseModel(spec, np.random.default_rng(4))
        samples = np.array([model.jittered_compute(1.0) for _ in range(2000)])
        assert samples.std() == pytest.approx(0.01, rel=0.15)

    def test_batch_delays_statistically_match_scalar_path(self):
        spec = NoiseSpec(jitter_fraction=0.0)
        scalar_model = OSNoiseModel(spec, np.random.default_rng(5))
        batch_model = OSNoiseModel(spec, np.random.default_rng(6))
        work = np.full(4000, 0.025)
        scalar = np.array(
            [scalar_model.delay_over(CORE, 0.0, w) for w in work[:1000]]
        )
        batch = batch_model.batch_delays(work)
        assert batch.shape == work.shape
        assert np.all(batch >= 0.0)
        # same order of magnitude of mean injected noise (both include the
        # periodic daemon plus rare interrupts)
        assert abs(batch.mean() - scalar.mean()) < 5e-4

    @pytest.mark.parametrize("shape", [(16,), (6, 16), (2, 6, 16)])
    def test_batch_delays_preserve_input_shape(self, shape):
        # the vectorized backend passes thread rows, the campaign backend
        # iteration x thread planes: one call, delays shaped like the work
        model = OSNoiseModel(NoiseSpec(), np.random.default_rng(8))
        delays = model.batch_delays(np.full(shape, 0.025))
        assert delays.shape == shape
        assert np.all(delays >= 0.0)

    def test_batch_delays_reject_negative_work(self):
        model = OSNoiseModel(NoiseSpec(), np.random.default_rng(9))
        with pytest.raises(ValueError):
            model.batch_delays(np.array([0.025, -1.0]))

    def test_batch_delays_disabled_are_zero(self):
        model = OSNoiseModel(NoiseSpec().disabled(), np.random.default_rng(10))
        np.testing.assert_array_equal(
            model.batch_delays(np.full((3, 4), 0.025)), np.zeros((3, 4))
        )

    def test_sample_wall_time_at_least_work(self):
        model = OSNoiseModel(NoiseSpec(jitter_fraction=0.0), np.random.default_rng(7))
        wall = model.sample_wall_time(CORE, 0.0, 0.025)
        assert wall >= 0.025


class TestWindowedNoiseModel:
    """Pre-generated per-core timelines (the event backend's noise path)."""

    def test_overlapping_queries_see_one_consistent_realisation(self):
        # the base model redraws events per query; the windowed model must
        # serve the *same* events for the same window, every time
        model = WindowedNoiseModel(NoiseSpec(), np.random.default_rng(0))
        first = model.events_in(CORE, 0.0, 0.2)
        again = model.events_in(CORE, 0.0, 0.2)
        assert first == again
        # a sub-window is a verbatim slice of the timeline
        sub = model.events_in(CORE, 0.05, 0.1)
        assert sub == [ev for ev in first if 0.05 <= ev.start < 0.1]

    def test_events_are_sorted_and_in_window(self):
        model = WindowedNoiseModel(
            NoiseSpec(interrupt_rate_hz=50.0), np.random.default_rng(1)
        )
        events = model.events_in(CORE, 0.3, 2.7)
        starts = [ev.start for ev in events]
        assert starts == sorted(starts)
        assert all(0.3 <= s < 2.7 for s in starts)

    def test_timeline_extends_across_window_boundaries(self):
        model = WindowedNoiseModel(
            NoiseSpec(), np.random.default_rng(2), window_s=0.05
        )
        # the query spans many generation windows; the daemon ticks must
        # keep their fixed period straight through the seams
        events = model.events_in(CORE, 0.0, 1.0)
        daemon = [ev for ev in events if ev.duration == NoiseSpec().daemon_duration_s]
        gaps = np.diff([ev.start for ev in daemon])
        np.testing.assert_allclose(gaps, 0.01, rtol=1e-9)

    def test_cores_have_independent_timelines(self):
        model = WindowedNoiseModel(NoiseSpec(), np.random.default_rng(3))
        a = model.events_in(CORE, 0.0, 0.5)
        b = model.events_in(OTHER_CORE, 0.0, 0.5)
        assert [ev.start for ev in a] != [ev.start for ev in b]

    def test_delay_over_matches_manual_walk_of_the_timeline(self):
        model = WindowedNoiseModel(NoiseSpec(), np.random.default_rng(4))
        start, work = 0.003, 0.025
        extra = model.delay_over(CORE, start, work)
        # replay the detour semantics by hand from the cached events, over
        # the same bounded look-ahead the model (and the per-query base
        # class) uses
        horizon_end = start + work * 1.5 + model.horizon_s
        events = model.events_in(CORE, start, horizon_end)
        end, expected = start + work, 0.0
        for event in events:
            if event.start < end:
                end += event.duration
                expected += event.duration
        assert extra == pytest.approx(expected, abs=0.0)

    def test_overloaded_noise_population_terminates(self):
        # duty cycle >= 1 (events arrive faster than they drain): the walk
        # must stop at the bounded look-ahead instead of chasing the
        # stretching window (and growing the timeline) forever
        spec = NoiseSpec(interrupt_rate_hz=3000.0, interrupt_mean_s=0.5e-3)
        model = WindowedNoiseModel(spec, np.random.default_rng(9))
        extra = model.delay_over(CORE, 0.0, 0.025)
        assert np.isfinite(extra) and extra >= 0.0
        # bounded by what the look-ahead window can physically contain
        assert extra <= model.spec.interrupt_max_s * len(
            model.events_in(CORE, 0.0, 0.025 * 1.5 + model.horizon_s)
        )

    def test_disabled_and_degenerate_inputs(self):
        model = WindowedNoiseModel(NoiseSpec().disabled(), np.random.default_rng(5))
        assert model.events_in(CORE, 0.0, 1.0) == []
        assert model.delay_over(CORE, 0.0, 0.05) == 0.0
        enabled = WindowedNoiseModel(NoiseSpec(), np.random.default_rng(5))
        assert enabled.delay_over(CORE, 0.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            enabled.delay_over(CORE, 0.0, -1.0)
        with pytest.raises(ValueError):
            WindowedNoiseModel(NoiseSpec(), window_s=0.0)

    def test_windowed_factory_shares_spec_sources_and_rng(self):
        base = OSNoiseModel(NoiseSpec(), np.random.default_rng(6))
        windowed = base.windowed(window_s=0.5)
        assert isinstance(windowed, WindowedNoiseModel)
        assert windowed.spec is base.spec
        assert windowed.sources == base.sources
        assert windowed.window_s == 0.5

    def test_mean_delay_agrees_with_per_query_model(self):
        # same populations, different draw schedule: long-run injected noise
        # per window must agree between the two models
        spec = NoiseSpec(jitter_fraction=0.0)
        per_query = OSNoiseModel(spec, np.random.default_rng(7))
        windowed = WindowedNoiseModel(spec, np.random.default_rng(8))
        work = 0.025
        a = np.array([per_query.delay_over(CORE, i * 0.03, work) for i in range(2000)])
        b = np.array([windowed.delay_over(CORE, i * 0.03, work) for i in range(2000)])
        assert abs(a.mean() - b.mean()) < 5e-5
