"""The ``service-mix`` workload: two clients in a closed loop on the service.

The server is ``python -m repro serve --workers 2 --executor-mode thread``
with a fresh cache directory.  Two client threads, one HTTP connection at a
time each, work through identical rounds.  Per client, a round is:

1. one duplicate job both clients submit at the same instant (coalescing);
2. one smoke-scale scenario job with a fresh seed (a cache write);
3. a resubmission of that job, which has completed by then (a cache read);
4. for the first client only, one benchmark-scale campaign-backend job.

The mix is assumed, not measured: no record of real traffic exists, so
each kind of job appears once per client and round (the campaign job once
per round) rather than in proportions nothing supports.

A job is ``POST /jobs`` followed by ``GET /jobs/<id>/analyses``; its
latency runs from the POST until the analyses are received and hold every
pass.  After the session every digest is compared with
``CampaignSession.run`` for the same config, every histogram with the
config's sample count, and every coalesced duplicate with its leader.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import launch
import layers
import pbstats

SMOKE_SCENARIOS = ("manzano-default", "manzano-minimd", "manzano-miniqmc", "manzano-dynamic")
CAMPAIGN_SCENARIO = "manzano-campaign-batched"
CLIENTS = 2
ANALYSES = {"percentiles", "histogram", "laggards", "reclaimable", "normality", "earlybird"}
#: server spawns per run (to first healthy /healthz) besides the session's own;
#: their time comes out of the session's, so a run stays ``--seconds`` long
SETUP_SPAWNS = 11
#: the server keeps every job it ran, so its peak grows with the job count:
#: read it after a fixed number of measured rounds, whatever the run length
RSS_ROUNDS = 10


@dataclass(frozen=True)
class JobSpec:
    scenario: str
    scale: str
    seed: int


@dataclass
class Op:
    spec: JobSpec
    round: int
    duplicate: bool
    status: int = 0
    job_id: str = ""
    coalesced: bool = False
    digest: str = ""
    analyses: Optional[dict] = None
    latency_s: float = 0.0
    http_s: float = 0.0
    error: str = ""


def request(port: int, method: str, path: str, body: Optional[dict] = None,
            timeout: float = 60.0) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, (json.loads(data) if data else {})
    finally:
        connection.close()


class Server:
    """One ``python -m repro serve`` process under the benchmark's control."""

    def __init__(self, work: Path, tag: str, trace: bool, log) -> None:
        self.report = work / f"server-{tag}.json"
        port_file = work / f"server-{tag}.port"
        argv = [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--workers", "2", "--executor-mode", "thread",
            "--cache-dir", str(work / f"cache-{tag}"),
        ]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            launch.command(self.report, argv, trace=trace),
            cwd=launch.ROOT,
            env=launch.env(),
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        try:
            self.port = self._wait_healthy(port_file)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.healthy = time.perf_counter()

    def _wait_healthy(self, port_file: Path, timeout: float = 60.0) -> int:
        give_up = self.spawned + timeout
        while time.perf_counter() < give_up:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited {self.process.returncode} at start")
            try:
                port = int(port_file.read_text())
                if request(port, "GET", "/healthz", timeout=5.0)[0] == 200:
                    return port
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError("server never became healthy")

    def stop(self) -> Dict[str, object]:
        """Interrupt the server, wait for it and return its reports."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("server ignored SIGINT")
        return launch.read_reports(self.report)

    def setup(self, reports: Dict[str, object]) -> Dict[str, float]:
        main = reports["main"]
        return {
            "setup_s": self.healthy - self.spawned,
            "import_s": main["imported"] - self.spawned,
            "config_s": self.healthy - main["imported"],
        }


def round_plan(seeds: random.Random, round_index: int) -> List[List[Tuple[JobSpec, bool]]]:
    """Per client, the ordered ``(job, is_duplicate)`` list of one round."""

    def fresh(scenario: str, scale: str = "smoke") -> JobSpec:
        return JobSpec(scenario, scale, seeds.randrange(1, 2**31))

    duplicate = fresh(SMOKE_SCENARIOS[round_index % len(SMOKE_SCENARIOS)])
    plan = []
    for client in range(CLIENTS):
        new = fresh(SMOKE_SCENARIOS[(round_index + client + 1) % len(SMOKE_SCENARIOS)])
        jobs = [(duplicate, True), (new, False), (new, False)]
        if client == 0:
            jobs.append((fresh(CAMPAIGN_SCENARIO, "benchmark"), False))
        plan.append(jobs)
    return plan


def run_op(port: int, op: Op) -> None:
    """Submit one job and fetch its analyses; fills ``op``."""
    started = time.perf_counter()
    body = {"scenario": op.spec.scenario, "scale": op.spec.scale,
            "overrides": {"seed": op.spec.seed}}
    op.status, submitted = request(port, "POST", "/jobs", body)
    op.http_s = time.perf_counter() - started
    if op.status != 202:
        op.error = f"POST /jobs answered {op.status}: {submitted}"
        return
    op.job_id = submitted["job_id"]
    op.coalesced = bool(submitted.get("coalesced"))
    op.status, payload = request(port, "GET", f"/jobs/{op.job_id}/analyses")
    if op.status != 200:
        op.error = f"GET analyses answered {op.status}: {payload}"
        return
    op.digest = payload.get("digest") or ""
    op.analyses = payload.get("analyses")
    if not isinstance(op.analyses, dict) or set(op.analyses) != ANALYSES or not op.digest:
        op.error = "analyses payload incomplete"
        return
    op.latency_s = time.perf_counter() - started


class Session:
    """Rounds of the mix against one server."""

    def __init__(self, server: Server, seeds: random.Random) -> None:
        self.server = server
        self.seeds = seeds
        self.ops: List[Op] = []
        self.rounds: List[Tuple[float, float]] = []
        self.statuses: Dict[str, dict] = {}
        self.peak_rss_kb: Optional[int] = None

    def play_round(self, index: int) -> None:
        """Round ``index``; round -1 is a warm-up and is not measured."""
        plan = round_plan(self.seeds, index)
        ops = [[Op(spec, index, dup) for spec, dup in jobs] for jobs in plan]
        barrier = threading.Barrier(CLIENTS)
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(barrier, client_ops))
            for client_ops in ops
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        if index >= 0:
            self.rounds.append((started, ended))
            self.ops.extend(op for client_ops in ops for op in client_ops)
        if len(self.rounds) == RSS_ROUNDS:
            self.peak_rss_kb = pbstats.read_vmhwm_kb(str(self.server.process.pid))

    def _client(self, barrier: threading.Barrier, ops: List[Op]) -> None:
        barrier.wait()
        for op in ops:
            try:
                run_op(self.server.port, op)
            except Exception as error:  # a failed job, not a failed client
                op.error = repr(error)

    def collect_statuses(self) -> None:
        """Every job's ``GET /jobs/<id>``, fetched after the last round so
        that no round sends more requests than an untraced one."""
        for op in self.ops:
            if op.job_id and op.job_id not in self.statuses:
                code, status = request(self.server.port, "GET", f"/jobs/{op.job_id}")
                if code == 200:
                    self.statuses[op.job_id] = status


def play(sessions: List[Session], rounds_until: float, hard_deadline: float) -> None:
    """A warm-up round, then measured rounds until ``rounds_until``; the
    sessions take turns round by round, so each sees the same stretch of
    time."""
    index = -1
    while index < 1 or time.perf_counter() < rounds_until:
        if time.perf_counter() > hard_deadline:
            break
        for session in sessions:
            session.play_round(index)
        index += 1


def _histogram_total(analyses: dict) -> int:
    try:
        return sum(analyses["histogram"]["counts"])
    except (KeyError, TypeError):
        return -1


def reference(spec: JobSpec) -> Tuple[str, int]:
    """``CampaignSession.run``'s digest and sample count for one job."""
    from repro.experiments.session import CampaignSession
    from repro.scenarios import get_scenario
    from repro.service.jobs import dataset_digest

    config = get_scenario(spec.scenario).campaign_config(spec.scale, seed=spec.seed)
    return dataset_digest(CampaignSession(config).run().dataset), config.samples_per_application


def verify(ops: List[Op]) -> int:
    """Check every op against ``CampaignSession.run``; returns failures.

    The references run after the session, on one spawned worker per client.
    """
    sys.path.insert(0, str(launch.ROOT / "src"))  # spawned workers inherit it
    specs = list(dict.fromkeys(op.spec for op in ops if not op.error))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=CLIENTS, mp_context=context) as pool:
        references = dict(zip(specs, pool.map(reference, specs, chunksize=8)))
    leaders: Dict[Tuple[int, JobSpec], Op] = {}
    failed = 0
    for op in ops:
        if not op.error:
            digest, samples = references[op.spec]
            if op.digest != digest:
                op.error = f"digest {op.digest[:12]} != CampaignSession.run {digest[:12]}"
            elif _histogram_total(op.analyses) != samples:
                op.error = "histogram does not hold every sample"
            elif op.duplicate:
                leader = leaders.setdefault((op.round, op.spec), op)
                if leader is not op and (
                    leader.digest != op.digest or leader.analyses != op.analyses
                ):
                    op.error = "coalesced duplicate differs from its leader"
        if op.error:
            failed += 1
            print(f"job failed: {op.spec}: {op.error}", file=sys.stderr)
    return failed


def _window(spans: list, events: list, lo: int, hi: int):
    return (
        [s for s in spans if lo <= s[3] < hi],
        [e for e in events if lo <= e[2] < hi],
    )


def _round_layers(session: Session, reports: Dict[str, object]) -> List[Dict[str, float]]:
    spans = reports["main"].get("spans", [])
    events = reports["main"].get("events", [])
    samples = []
    for number, (started, ended) in enumerate(session.rounds):
        lo, hi = int(started * 1e9), int(ended * 1e9)
        round_spans, round_events = _window(spans, events, lo, hi)
        ops = [op for op in session.ops if op.round == number]
        jobs = {op.job_id: session.statuses.get(op.job_id) for op in ops if op.job_id}
        statuses = [s for s in jobs.values() if s]
        metrics = layers.from_trace([round_spans], round_events)
        metrics.update({
            "service.queue_wait_s": sum(s["queue_latency_s"] or 0.0 for s in statuses),
            "service.job_run_s": sum(
                (s["elapsed_s"] or 0.0) - (s["queue_latency_s"] or 0.0) for s in statuses
            ),
            "service.analyses_s": layers.inclusive_top_level(round_spans, "analysis.engine"),
            "service.http_s": sum(op.http_s for op in ops),
            "service.coalesced": float(sum(op.coalesced for op in ops)),
            "trace.unattributed_share": pbstats.unattributed_share(round_spans, lo, hi),
        })
        samples.append(metrics)
    return samples


def run(work: Path, seed: int, seconds: float, trace: bool, hard_deadline: float):
    seeds = random.Random(f"service-mix:{seed}")
    attempted = failed = 0
    setups: List[Dict[str, float]] = []
    sessions: List[Tuple[Session, Dict[str, object]]] = []
    started = time.perf_counter()
    with open(work / "program.log", "ab") as log:
        for n in range(SETUP_SPAWNS):
            attempted += 1
            try:
                server = Server(work, f"setup{n}", False, log)
                setups.append(server.setup(server.stop()))
            except RuntimeError as error:
                failed += 1
                print(f"server set-up failed: {error}", file=sys.stderr)
        # the traced run alternates rounds on an untraced and a traced server
        servers: List[Server] = []
        try:
            for traced in (False, True) if trace else (False,):
                servers.append(Server(work, f"session-{int(traced)}", traced, log))
            played = [Session(server, seeds) for server in servers]
            play(played, started + seconds, hard_deadline)
            if trace:
                played[-1].collect_statuses()
        finally:
            stopped = [server.stop() for server in servers]
        for session, reports in zip(played, stopped):
            setups.append(session.server.setup(reports))
            sessions.append((session, reports))
    ops = [op for session, _ in sessions for op in session.ops]
    attempted += len(ops)
    failed += verify(ops)
    return {"attempted": attempted, "failed": failed, "setups": setups, "sessions": sessions}


def measured(tally, trace: bool) -> bool:
    """Whether every session has rounds with checked jobs."""
    return all(
        session.rounds and any(not op.error for op in session.ops)
        for session, _ in tally["sessions"]
    )


def end_to_end(tally) -> Dict[str, Dict[str, object]]:
    session, reports = tally["sessions"][0]
    ok = [op for op in session.ops if not op.error]
    latencies = [op.latency_s for op in ok]
    walls = [ended - started for started, ended in session.rounds]
    p90, note = pbstats.p90_or_max(latencies)
    span = session.rounds[-1][1] - session.rounds[0][0]
    setups = [s["setup_s"] for s in tally["setups"]]
    return {
        "setup_s": {"value": pbstats.median(setups), "unit": "s", "n": len(setups)},
        "wall_s": {"value": pbstats.median(walls), "unit": "s", "n": len(walls)},
        "peak_rss_mb": {
            "value": (session.peak_rss_kb / 1024.0 if session.peak_rss_kb
                      else launch.peak_rss_mb(reports)),
            "unit": "MiB", "n": 1,
            **({} if session.peak_rss_kb else {"note": f"fewer than {RSS_ROUNDS} rounds"}),
        },
        "latency_p50_s": {"value": pbstats.median(latencies), "unit": "s",
                          "n": len(latencies)},
        "latency_p90_s": {"value": p90, "unit": "s", "n": len(latencies),
                          **({"note": note} if note else {})},
        "jobs_per_s": {"value": len(ok) / span, "unit": "1/s", "n": len(ok)},
    }


def per_layer(tally) -> Dict[str, float]:
    (plain, _), (traced, reports) = tally["sessions"]
    metrics = layers.median_metrics(_round_layers(traced, reports))
    # every duplicate but its round's leader could have coalesced
    followers = sum(op.duplicate for op in traced.ops) - len(traced.rounds)
    coalesced = sum(op.coalesced for op in traced.ops)
    metrics["service.coalesce_ratio"] = coalesced / followers if followers > 0 else 0.0
    metrics["service.rejected"] = float(
        sum(op.status == 429 for op in plain.ops + traced.ops)
    )
    metrics["setup.import_s"] = pbstats.median([s["import_s"] for s in tally["setups"]])
    metrics["setup.config_s"] = pbstats.median([s["config_s"] for s in tally["setups"]])
    walls = [[b - a for a, b in s.rounds] for s in (plain, traced)]
    metrics["trace.overhead_s"] = pbstats.median(walls[1]) - pbstats.median(walls[0])
    metrics["output.bytes_written"] = 0.0
    return metrics
