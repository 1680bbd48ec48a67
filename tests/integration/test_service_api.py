"""End-to-end tests for the campaign service (async API + HTTP front end).

The acceptance bar for the service is bit-identity: a campaign submitted
through the async API (or over HTTP) must produce exactly the dataset that
``CampaignSession.run`` produces for the same config — coalesced, streamed
or not.  A gated backend (shards blocked on events the test releases)
makes the streaming/cancellation ordering deterministic.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core.timing import TimingDataset, TimingShard
from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    register_backend,
    unregister_backend,
)
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.scenarios import get_scenario
from repro.service import (
    CampaignHTTPServer,
    CampaignService,
    JobCancelledError,
    JobState,
    dataset_digest,
    shard_digest,
)

GATED_BACKEND = "integration-test-gated"
SCENARIO = "manzano-default"


def _session_digest(config: CampaignConfig) -> str:
    """The reference digest: what CampaignSession.run produces."""
    return dataset_digest(CampaignSession(config).run().dataset)


class GatedBackend(CampaignBackend):
    """Backend whose shards block until the test releases them.

    ``gates[(trial, process)]`` must be set before the shard returns, so a
    test controls exactly when each shard becomes available (and therefore
    when the service streams or observes a cancel flag).
    """

    gates = {}

    @classmethod
    def reset(cls, config: CampaignConfig) -> None:
        cls.gates = {
            (t, p): threading.Event()
            for t in range(config.trials)
            for p in range(config.processes)
        }

    def shard_specs(self, config):
        return [
            ShardSpec(trial=t, process=p)
            for t in range(config.trials)
            for p in range(config.processes)
        ]

    def run_shard(self, config, spec, streams):
        if not type(self).gates[(spec.trial, spec.process)].wait(timeout=30):
            raise TimeoutError(f"gate for shard {spec} never released")
        n = config.iterations * config.threads
        iteration, thread = np.divmod(np.arange(n), config.threads)
        columns = {
            "trial": np.full(n, spec.trial),
            "process": np.full(n, spec.process),
            "iteration": iteration,
            "thread": thread,
            "compute_time_s": np.full(n, float(spec.process + 1) * 1.0e-3),
        }
        return TimingShard(trial=spec.trial, process=spec.process, columns=columns)


@pytest.fixture()
def gated_backend():
    register_backend(GATED_BACKEND)(GatedBackend)
    try:
        yield GatedBackend
    finally:
        unregister_backend(GATED_BACKEND)


def _gated_config() -> CampaignConfig:
    config = CampaignConfig.smoke(application="minife")
    config = config.scaled(trials=1, processes=3)
    config.backend = GATED_BACKEND
    return config


class TestAsyncAPI:
    def test_three_jobs_two_identical_bit_identical_to_session(self):
        """The ISSUE acceptance scenario: 3 jobs, 2 identical, one distinct.

        The duplicate coalesces onto the in-flight job; every digest equals
        the one ``CampaignSession.run`` computes for the same config.
        """
        scenario_config = get_scenario(SCENARIO).campaign_config("smoke")
        distinct_config = CampaignConfig.smoke(application="minimd")

        async def scenario():
            async with CampaignService(workers=2, executor_mode="thread") as service:
                first = await service.submit(SCENARIO, scale="smoke")
                second = await service.submit(SCENARIO, scale="smoke")
                third = await service.submit(distinct_config)
                assert not first.coalesced
                assert second.coalesced and second.job is first.job
                assert third.job is not first.job
                results = await asyncio.gather(
                    first.result(), second.result(), third.result()
                )
                assert results[0] is results[1]
                stats = service.stats()
                assert stats["submitted"] == 3
                assert stats["coalesce_hits"] == 1
                return first.digest, third.digest

        shared_digest, distinct_digest = asyncio.run(scenario())
        assert shared_digest == _session_digest(scenario_config)
        assert distinct_digest == _session_digest(distinct_config)

    def test_stream_yields_shards_before_job_finishes(self, gated_backend):
        config = _gated_config()
        gated_backend.reset(config)

        async def scenario():
            async with CampaignService(workers=1, executor_mode="thread") as service:
                handle = await service.submit(config)
                stream = handle.stream()
                gated_backend.gates[(0, 0)].set()
                first = await asyncio.wait_for(anext(stream), timeout=10)
                # the first shard arrived while the campaign is still running
                assert handle.state is JobState.STREAMING
                assert not handle.job.finished
                assert (first.trial, first.process) == (0, 0)
                for gate in gated_backend.gates.values():
                    gate.set()
                rest = [shard async for shard in stream]
                result = await handle.result()
                assert [s.process for s in [first, *rest]] == [0, 1, 2]
                merged = TimingDataset.merge([first, *rest])
                assert dataset_digest(merged) == handle.digest
                assert dataset_digest(result.dataset) == handle.digest

        asyncio.run(scenario())

    def test_cancel_between_shards_stops_running_job(self, gated_backend):
        config = _gated_config()
        gated_backend.reset(config)

        async def scenario():
            async with CampaignService(workers=1, executor_mode="thread") as service:
                handle = await service.submit(config)
                queue = handle.job.subscribe()
                gated_backend.gates[(0, 0)].set()
                shard = await asyncio.wait_for(queue.get(), timeout=10)
                assert shard.process == 0
                assert handle.cancel() is True
                # release the remaining gates: the worker thread produces the
                # next shard, then observes the flag at the shard boundary
                for gate in gated_backend.gates.values():
                    gate.set()
                await asyncio.wait_for(handle.job.wait(), timeout=10)
                assert handle.state is JobState.CANCELLED
                assert handle.progress.shards_done == 1
                with pytest.raises(JobCancelledError):
                    await handle.result()

        asyncio.run(scenario())

    def test_cache_dir_serves_repeat_submissions(self, tmp_path):
        config = get_scenario(SCENARIO).campaign_config("smoke")

        async def scenario():
            async with CampaignService(
                workers=1, executor_mode="thread", cache_dir=tmp_path
            ) as service:
                first = await service.submit(SCENARIO, scale="smoke")
                await first.result()
                assert not first.job.from_cache
                # sequential (not coalesced: first already finished) resubmit
                second = await service.submit(SCENARIO, scale="smoke")
                await second.result()
                assert second.job.from_cache
                assert second.digest == first.digest
                stats = service.stats()
                assert stats["cache_hits"] == 1
                assert stats["cache_misses"] == 1
                return first.digest

        digest = asyncio.run(scenario())
        assert digest == _session_digest(config)


async def _http_request(host, port, method, path, body=None):
    """Minimal HTTP/1.1 client: one request, read to EOF (Connection: close)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), timeout=60)
    writer.close()
    await writer.wait_closed()
    head, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, body_blob


class TestHTTPFrontEnd:
    def test_submit_stream_result_round_trip(self):
        config = get_scenario(SCENARIO).campaign_config("smoke")
        expected = _session_digest(config)

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                host, port = server.host, server.port
                status, body = await _http_request(
                    host, port, "POST", "/jobs",
                    body={"scenario": SCENARIO, "scale": "smoke"},
                )
                assert status == 202
                submitted = json.loads(body)
                job_id = submitted["job_id"]
                assert submitted["coalesced"] is False

                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/stream"
                )
                assert status == 200
                events = [json.loads(line) for line in body.splitlines() if line]
                shard_events = [e for e in events if e["event"] == "shard"]
                done = events[-1]
                assert done["event"] == "done"
                assert done["state"] == "done"
                assert len(shard_events) == done["shards_total"]
                assert all(len(e["digest"]) == 64 for e in shard_events)

                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/result"
                )
                assert status == 200
                result = json.loads(body)
                assert result["state"] == "done"
                assert result["digest"] == expected

                status, body = await _http_request(host, port, "GET", "/stats")
                assert status == 200
                stats = json.loads(body)
                assert stats["submitted"] == 1
                assert stats["jobs"]["done"] == 1

                # the per-shard stream digests match the job's own shards
                job = service.get_job(job_id)
                assert [e["digest"] for e in shard_events] == [
                    shard_digest(s) for s in job.shards
                ]

                # finalized analysis products over HTTP: the payload is the
                # streaming engine's own JSON view of the same campaign
                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/analyses"
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["job_id"] == job_id
                assert payload["digest"] == expected
                assert payload["analyses"] == expected_analyses
                # second fetch is served from the per-job memo, identically
                status, body = await _http_request(
                    host, port, "GET", f"/jobs/{job_id}/analyses"
                )
                assert status == 200
                assert json.loads(body) == payload

        expected_analyses = json.loads(
            json.dumps(CampaignSession(config).analyze(analyses="all").as_payload())
        )
        asyncio.run(scenario())

    def test_http_error_paths(self):
        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                host, port = server.host, server.port
                status, _ = await _http_request(host, port, "GET", "/jobs/nope")
                assert status == 404
                status, body = await _http_request(
                    host, port, "POST", "/jobs", body={"scale": "smoke"}
                )
                assert status == 400
                assert b"scenario" in body
                status, _ = await _http_request(host, port, "DELETE", "/jobs")
                assert status == 405
                status, _ = await _http_request(host, port, "GET", "/healthz")
                assert status == 200

        asyncio.run(scenario())

    @pytest.mark.parametrize("backend", ["batched", "chunked"])
    def test_retired_backend_override_rejected(self, backend):
        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                status, body = await _http_request(
                    server.host, server.port, "POST", "/jobs",
                    body={"scenario": SCENARIO, "overrides": {"backend": backend}},
                )
                assert status == 400
                error = json.loads(body)["error"]
                assert backend in error
                for name in ("campaign", "event", "vectorized"):
                    assert name in error
                assert sum(service.stats()["jobs"].values()) == 0

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "extra", [{"backend": "campaign"}, {"seed": 3}, {"sceanrio": SCENARIO}]
    )
    def test_unknown_top_level_key_rejected(self, extra):
        """A campaign setting placed beside ``scenario`` instead of inside
        ``overrides`` would be dropped and the job run on the scenario's own
        settings; it must be a 400 naming the key, not a silent 202."""

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                status, body = await _http_request(
                    server.host, server.port, "POST", "/jobs",
                    body={"scenario": SCENARIO, "scale": "smoke", **extra},
                )
                assert status == 400
                error = json.loads(body)["error"]
                (key,) = extra
                assert repr(key) in error
                assert "overrides" in error
                assert sum(service.stats()["jobs"].values()) == 0

        asyncio.run(scenario())

    def test_analyses_endpoint_conflicts_on_cancelled_job(self, gated_backend):
        """``GET /jobs/<id>/analyses`` on a non-``done`` terminal job is a
        409, not a 500: there is no dataset to analyse."""
        config = _gated_config()
        gated_backend.reset(config)

        async def scenario():
            service = CampaignService(workers=1, executor_mode="thread")
            async with CampaignHTTPServer(service, port=0) as server:
                handle = await service.submit(config)
                assert handle.cancel() is True
                for gate in gated_backend.gates.values():
                    gate.set()
                await asyncio.wait_for(handle.job.wait(), timeout=10)
                status, body = await _http_request(
                    server.host, server.port,
                    "GET", f"/jobs/{handle.job.id}/analyses",
                )
                assert status == 409
                error = json.loads(body)
                assert error["state"] == "cancelled"
                assert "analyses need a completed job" in error["error"]

        asyncio.run(scenario())
