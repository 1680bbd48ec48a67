"""Generic campaign-kernel fallback for non-tensor applications.

Custom applications that only implement the per-shard API
(:meth:`~repro.apps.base.ProxyApplication.item_costs` and friends, with
``campaign_tensor = False``) must still run through the 3-D campaign kernel:
per-shard cost/delay draws under absolute shard scopes feeding one
whole-campaign schedule fold plus whole-tensor jitter/noise passes.  These
tests pin the fallback's two contracts — chunk invariance (bit-identical
samples for any partition of the shard axis) and distributional agreement
with the per-iteration ``"vectorized"`` oracle.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.apps.base import ApplicationConfig, ProxyApplication
from repro.experiments.backends import CampaignTensorBackend, get_backend
from repro.experiments.config import CampaignConfig
from repro.sim.random import PurposeSplitRNG, RandomStreams


class ToyApp(ProxyApplication):
    """Minimal third-party app: per-iteration lognormal item costs only."""

    name = "unit-toy"
    region = "compute"
    campaign_tensor = False

    def item_costs(self, process, iteration, rng):
        return rng.lognormal(mean=-9.0, sigma=0.3, size=64)

    def run_reference_kernel(self, rng):
        return {"norm": 1.0}


class RaggedApp(ToyApp):
    """Item counts differ per process: exercises the per-plane fold branch."""

    name = "unit-ragged"

    def item_costs(self, process, iteration, rng):
        return rng.lognormal(mean=-9.0, sigma=0.3, size=48 + 16 * process)


class DelayedApp(ToyApp):
    """Adds application-level delays so the ``extra`` tensor is non-zero."""

    name = "unit-delayed"

    def application_delays(self, process, iteration, rng):
        return rng.exponential(2.0e-5, size=self.config.n_threads)


@contextmanager
def registered(app_cls):
    assert app_cls.name not in APPLICATIONS
    APPLICATIONS[app_cls.name] = app_cls
    try:
        yield
    finally:
        del APPLICATIONS[app_cls.name]


def _config(app_cls, **overrides):
    params = dict(
        application=app_cls.name,
        trials=3,
        processes=2,
        iterations=60,
        threads=16,
        seed=1234,
        backend="campaign",
    )
    params.update(overrides)
    return CampaignConfig(**params)


class TestChunkInvariance:
    @pytest.mark.parametrize("app_cls", [ToyApp, RaggedApp, DelayedApp])
    def test_any_chunking_is_bit_identical(self, app_cls):
        with registered(app_cls):
            config = _config(app_cls, iterations=20)
            reference = CampaignTensorBackend(chunk_shards=8).run(config)
            for chunk_shards in (1, 2, 3):
                chunked = CampaignTensorBackend(chunk_shards=chunk_shards).run(
                    config
                )
                np.testing.assert_array_equal(
                    chunked.compute_times_s, reference.compute_times_s
                )

    def test_iter_shards_matches_run(self, app_cls=ToyApp):
        with registered(app_cls):
            config = _config(app_cls, iterations=12)
            backend = CampaignTensorBackend(chunk_shards=2)
            streamed = np.concatenate(
                [
                    shard.columns["compute_time_s"]
                    for shard in backend.iter_shards(config)
                ]
            )
            np.testing.assert_array_equal(
                streamed,
                CampaignTensorBackend(chunk_shards=2).run(config).compute_times_s,
            )


class TestDistributionalAgreement:
    @pytest.mark.parametrize("app_cls", [ToyApp, DelayedApp])
    def test_matches_vectorized_backend(self, app_cls):
        """Campaign fallback and the per-iteration vectorized oracle agree
        in distribution.

        Draw order necessarily differs (per-shard tensor draws vs per
        iteration), so the comparison is on summary statistics, not bits.
        """
        with registered(app_cls):
            config = _config(app_cls)
            fallback = CampaignTensorBackend().run(config).compute_times_s
            vectorized = (
                get_backend("vectorized")
                .run(config.with_backend("vectorized"))
                .compute_times_s
            )
            assert fallback.shape == vectorized.shape
            assert np.isclose(fallback.mean(), vectorized.mean(), rtol=0.05)
            for percentile in (25, 50, 75, 95):
                assert np.isclose(
                    np.percentile(fallback, percentile),
                    np.percentile(vectorized, percentile),
                    rtol=0.05,
                ), f"p{percentile} diverged"

    def test_ragged_planes_fold_per_shard(self):
        """Heterogeneous item counts still produce the full tensor."""
        with registered(RaggedApp):
            config = _config(RaggedApp, iterations=15)
            dataset = CampaignTensorBackend().run(config)
            assert dataset.n_samples == 3 * 2 * 15 * 16
            assert np.all(dataset.compute_times_s > 0)


class TestAppLevelContract:
    def test_plain_generator_accepted(self):
        """``maybe_scope`` is a no-op for plain Generators — still works."""
        app = ToyApp(ApplicationConfig(n_threads=8, n_iterations=10))
        times = app.thread_compute_times_campaign(
            shards=[(0, 0), (0, 1), (1, 0)],
            rng=np.random.default_rng(7),
        )
        assert times.shape == (3, 10, 8)
        assert np.all(times > 0)

    def test_shard_scopes_are_absolute(self):
        """The same shard's draws do not depend on its chunk neighbours."""
        app = ToyApp(ApplicationConfig(n_threads=8, n_iterations=10))

        def sample(shards):
            rng = PurposeSplitRNG(RandomStreams(99), "unit-toy", "campaign")
            return app.thread_compute_times_campaign(shards=shards, rng=rng)

        together = sample([(0, 0), (0, 1)])
        alone = sample([(0, 1)])
        np.testing.assert_array_equal(together[1], alone[0])

    def test_delay_shape_mismatch_rejected(self):
        class BadDelays(ToyApp):
            def application_delays_batch(self, process, n_iterations, rng):
                return np.zeros((n_iterations, 3))

        app = BadDelays(ApplicationConfig(n_threads=8, n_iterations=5))
        with pytest.raises(ValueError, match="application_delays_batch"):
            app.thread_compute_times_campaign(
                shards=[(0, 0)], rng=np.random.default_rng(0)
            )
