"""The batch workloads: one user running ``python -m repro`` back to back.

A closed loop with one client.  Every pass runs the same command with the
same campaign seed in a fresh process and a fresh output directory, so
every pass does the same work; its outputs are checked before the next
pass starts.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import launch
import layers
import pbstats

APPS = ("minife", "minimd", "miniqmc")
#: paper-scale samples per trial and application: 8 processes x 200
#: iterations x 48 threads (768k per application at the paper's 10 trials)
SAMPLES_PER_TRIAL = 8 * 200 * 48
#: setup-only spawns per run, on top of the one every pass contributes
SETUP_SPAWNS = 3
REPORT_FILES = ("table1.csv", "section4_metrics.csv", "minimd_phases.csv", "report.txt")
FIGURE_FILES = (
    *(f"figure3_{app}.csv" for app in APPS),
    *(f"percentiles_{app}.csv" for app in APPS),
    "figure5_no_laggard.csv",
    "figure5_laggard.csv",
    "figure7_initial.csv",
    "figure7_no_laggard.csv",
    "figure7_laggard.csv",
    "figure9_miniqmc.csv",
)


class CheckFailed(Exception):
    """A pass's outputs are missing or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_report(out: Path, samples: int, *, normality: bool = True) -> None:
    """Every product is present, each application's Figure 3 histogram
    holds all its samples, and the abstract's laggard ordering holds."""
    names = list(REPORT_FILES) + (["section41_normality.csv"] if normality else [])
    names += [f"figures/{name}" for name in FIGURE_FILES]
    for name in names:
        _require((out / name).is_file(), f"missing product {name}")
    for app in APPS:
        total = sum(int(row["count"]) for row in _rows(out / f"figures/figure3_{app}.csv"))
        _require(total == samples, f"figure3_{app}: {total} samples, expected {samples}")
    share = {
        row["application"].lower(): float(row["laggard_fraction (measured)"])
        for row in _rows(out / "section4_metrics.csv")
    }
    _require(
        share["minife"] > share["minimd"] and share["miniqmc"] > share["minimd"],
        f"laggard shares break the abstract's ordering: {share}",
    )


def check_out_of_core(out: Path, samples: int) -> None:
    check_report(out, samples, normality=False)
    for app in APPS:
        stores = list((out / "cache").glob(f"shards_{app}_*.store/manifest.json"))
        _require(len(stores) == 1, f"no published shard store for {app}")


def check_sweep(out: Path, samples: int) -> None:
    """Every application's analyses hold the three passes and the histogram
    counts every sample."""
    for app in APPS:
        path = out / f"analyses_{app}.json"
        _require(path.is_file(), f"missing {path.name}")
        products = json.loads(path.read_text())
        _require(
            set(products) == {"earlybird", "reclaimable", "histogram"},
            f"{path.name}: passes {sorted(products)}",
        )
        total = sum(products["histogram"]["counts"])
        _require(total == samples, f"{path.name}: histogram holds {total} of {samples}")


@dataclass(frozen=True)
class Batch:
    argv: Sequence[str]
    trials: int
    check: Callable[[Path, int], None]


WORKLOADS: Dict[str, Batch] = {
    "paper-report": Batch(("--scale", "paper"), 10, check_report),
    "earlybird-sweep": Batch(
        (
            "--scale", "paper", "--trials", "80", "--backend", "campaign",
            "--max-workers", "2",
            "--analyses", "earlybird", "reclaimable", "histogram",
        ),
        80,
        check_sweep,
    ),
    "out-of-core": Batch(
        (
            "--scale", "paper", "--trials", "20", "--backend", "campaign",
            "--out-of-core", "--spill-mb", "64",
        ),
        20,
        check_out_of_core,
    ),
}


def _bytes_under(path: Path, skip: str = "cache") -> int:
    return sum(
        f.stat().st_size
        for f in path.rglob("*")
        if f.is_file() and skip not in f.relative_to(path).parts
    )


class Runner:
    """Runs passes of one batch workload inside a scratch directory."""

    def __init__(self, workload: Batch, work: Path, campaign_seed: int, deadline: float):
        self.workload = workload
        self.work = work
        self.argv = [*workload.argv, "--seed", str(campaign_seed)]
        self.samples = workload.trials * SAMPLES_PER_TRIAL
        self.deadline = deadline
        self.count = 0
        self.log = open(work / "program.log", "ab")

    def close(self) -> None:
        self.log.close()

    def _spawn(self, trace: bool, setup_only: bool):
        self.count += 1
        out = self.work / f"pass{self.count}"
        report = self.work / f"pass{self.count}.json"
        cmd = launch.command(
            report, [*self.argv, "--output", str(out)], trace=trace, setup_only=setup_only
        )
        spawned = time.perf_counter()
        try:
            rc = subprocess.run(
                cmd,
                cwd=launch.ROOT,
                env=launch.env(),
                stdout=subprocess.DEVNULL,
                stderr=self.log,
                timeout=max(1.0, self.deadline - spawned),
            ).returncode
        except subprocess.TimeoutExpired:
            rc = -1
        exited = time.perf_counter()
        return out, report, spawned, exited, rc

    def setup_sample(self) -> Dict[str, float]:
        out, report, spawned, _, rc = self._spawn(trace=False, setup_only=True)
        if rc != 0:
            raise CheckFailed(f"setup-only spawn exited {rc}")
        main = launch.read_reports(report)["main"]
        return {
            "setup_s": main["ready"] - spawned,
            "import_s": main["imported"] - spawned,
            "config_s": main["ready"] - main["imported"],
        }

    def one_pass(self, trace: bool) -> Dict[str, object]:
        """Run, time and check one pass; raises CheckFailed."""
        out, report, spawned, exited, rc = self._spawn(trace=trace, setup_only=False)
        try:
            _require(rc == 0, f"program exited {rc}")
            try:
                self.workload.check(out, self.samples)
            except (KeyError, ValueError, TypeError, OSError) as error:
                raise CheckFailed(f"unreadable products: {error!r}") from error
            checked = time.perf_counter()
            reports = launch.read_reports(report)
            main = reports["main"]
            result = {
                "setup_s": main["ready"] - spawned,
                "import_s": main["imported"] - spawned,
                "config_s": main["ready"] - main["imported"],
                "wall_s": exited - main["ready"],
                "latency_s": checked - spawned,
                "peak_rss_mb": launch.peak_rss_mb(reports),
            }
            if trace:
                spans = launch.span_groups(reports)
                result["layers"] = {
                    **layers.from_trace(spans, launch.all_events(reports)),
                    "output.bytes_written": float(_bytes_under(out)),
                    "trace.unattributed_share": pbstats.unattributed_share(
                        spans[0], int(main["ready"] * 1e9), int(main["ended"] * 1e9)
                    ),
                }
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)


def run(name: str, work: Path, campaign_seed: int, seconds: float, trace: bool,
        hard_deadline: float) -> Dict[str, object]:
    """Measure ``name`` for ``seconds``; returns the run's tallies."""
    runner = Runner(WORKLOADS[name], work, campaign_seed, hard_deadline)
    attempted = failed = 0
    setups: List[Dict[str, float]] = []
    passes: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    try:
        for _ in range(SETUP_SPAWNS):
            attempted += 1
            try:
                setups.append(runner.setup_sample())
            except CheckFailed as error:
                failed += 1
                print(f"setup failed: {error}", file=sys.stderr)
        end = time.perf_counter() + seconds
        last = 0.0  # how long the latest pass took
        # a pass starts only if it should be half done by ``end``, so a run
        # overshoots ``seconds`` by at most half a pass; the traced run
        # alternates untraced and traced passes so that both walls come
        # from the same stretch of time
        while time.perf_counter() + last / 2 < end or not passes or (trace and not traced):
            if time.perf_counter() > hard_deadline or (failed >= 3 and not passes):
                break
            with_trace = trace and len(traced) < len(passes)
            attempted += 1
            began = time.perf_counter()
            try:
                result = runner.one_pass(with_trace)
            except CheckFailed as error:
                failed += 1
                print(f"pass failed: {error}", file=sys.stderr)
                continue
            finally:
                last = time.perf_counter() - began
            (traced if with_trace else passes).append(result)
            setups.append({k: result[k] for k in ("setup_s", "import_s", "config_s")})
    finally:
        runner.close()
    return {
        "attempted": attempted,
        "failed": failed,
        "setups": setups,
        "passes": passes,
        "traced": traced,
    }


def measured(tally: Dict[str, object], trace: bool) -> bool:
    """Whether the run has the passes its metrics need."""
    return bool(tally["setups"] and tally["passes"] and (tally["traced"] or not trace))


def end_to_end(tally: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """The six end-to-end metrics of a batch run, each with its sample count."""
    passes = tally["passes"]
    latencies = [p["latency_s"] for p in passes]
    p90, note = pbstats.p90_or_max(latencies)
    return {
        "setup_s": _m(pbstats.median([s["setup_s"] for s in tally["setups"]]),
                      "s", len(tally["setups"])),
        "wall_s": _m(pbstats.median([p["wall_s"] for p in passes]), "s", len(passes)),
        "peak_rss_mb": _m(pbstats.median([p["peak_rss_mb"] for p in passes]),
                          "MiB", len(passes)),
        "latency_p50_s": _m(pbstats.median(latencies), "s", len(passes)),
        "latency_p90_s": _m(p90, "s", len(passes), note),
        "jobs_per_s": _m(len(passes) / sum(latencies), "1/s", len(passes)),
    }


def per_layer(tally: Dict[str, object]) -> Dict[str, float]:
    traced = tally["traced"]
    metrics = layers.median_metrics([p["layers"] for p in traced])
    metrics["setup.import_s"] = pbstats.median([s["import_s"] for s in tally["setups"]])
    metrics["setup.config_s"] = pbstats.median([s["config_s"] for s in tally["setups"]])
    metrics["trace.overhead_s"] = pbstats.median(
        [p["wall_s"] for p in traced]
    ) - pbstats.median([p["wall_s"] for p in tally["passes"]])
    return metrics


def _m(value: float, unit: str, n: int, note: Optional[str] = None) -> Dict[str, object]:
    entry = {"value": value, "unit": unit, "n": n}
    if note:
        entry["note"] = note
    return entry
