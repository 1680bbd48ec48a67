"""Repository benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see README.md in this directory):

* ``paper-report``     ``python -m repro --scale paper``, back to back
* ``earlybird-sweep``  80-trial campaign-backend sweep on 2 chunk workers
* ``out-of-core``      20-trial campaign spilled to the shard store
* ``service-mix``      two clients in a closed loop on ``python -m repro serve``

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Earlier lines of standard output describe the
environment and every metric with its sample count; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict

import batch
import launch
import layers
import pbstats
import service_mix

WORKLOADS = ("paper-report", "earlybird-sweep", "service-mix", "out-of-core")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "latency_p50_s", "latency_p90_s", "jobs_per_s")
#: a run stops starting work after this many seconds (it must end by 180)
HARD_LIMIT_S = 165.0


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(src: Path) -> str:
    """sha256 over every source file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {
            name: os.environ.get(name, "unset")
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    root = launch.ROOT
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the clean-up below still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    launch.adopt_orphans()
    print("env " + json.dumps(environment(root), sort_keys=True), flush=True)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    hard_deadline = started + HARD_LIMIT_S
    trace = bool(args.trace)
    try:
        if args.workload == "service-mix":
            tally = service_mix.run(work, args.seed, args.seconds, trace, hard_deadline)
            module = service_mix
        else:
            campaign_seed = random.Random(f"{args.workload}:{args.seed}").randrange(1, 2**31)
            tally = batch.run(args.workload, work, campaign_seed, args.seconds, trace,
                              hard_deadline)
            module = batch
        rate = pbstats.error_rate(tally["attempted"], tally["failed"])
        print(f"operations       {tally['attempted']} attempted, {tally['failed']} failed "
              f"(error rate {rate:.2%})")
        if not module.measured(tally, trace):
            print("no operation succeeded; nothing to report", file=sys.stderr)
            return 1
        if trace:
            values = module.per_layer(tally)
            metrics = {
                name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in layers.PER_LAYER
            }
        else:
            described = module.end_to_end(tally)
            for name in END_TO_END:
                entry = described[name]
                note = f"  [{entry['note']}]" if "note" in entry else ""
                print(f"{name:16s} {entry['value']:.6g} {entry['unit']}  "
                      f"(n={entry['n']}){note}")
            metrics = {
                name: {"value": described[name]["value"], "unit": described[name]["unit"]}
                for name in END_TO_END
            }
    finally:
        launch.end_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if trace:
        for name, entry in metrics.items():
            print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
