"""Run one workload over several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload paper-report --seeds 1 2 3 4 5 \\
        --seconds 24 [--record perfbench/spreads.json]

For every metric of the runs' last lines it prints the median over the
seeds and the spread (Q3 - Q1) / median, quartiles as
``statistics.quantiles(values, n=4)``, beside the metric's bound in
``BENCHMARK.json``.  ``--record`` merges the workload's
medians and spreads, with the environment stamp, into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import launch
import pbstats

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=launch.ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    values = {}
    env = {}
    failed = 0
    for seed in args.seeds:
        result, env = run_once(args.workload, seed, args.seconds)
        failed += result["failed"]
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
        ), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    summary = {
        name: {"median": pbstats.median(series), "spread": pbstats.spread(series),
               "n": len(series)}
        for name, series in values.items()
    }
    bounds = {}
    declared = launch.ROOT / "BENCHMARK.json"
    if declared.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(declared.read_text())["end_to_end"]}
    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, entry in summary.items():
        bound = f"{bounds[name]:6.2f}" if name in bounds else ""
        print(f"{name:34s} {entry['median']:12.6g} {entry['spread']:8.4f} {bound}")
    if args.record is not None:
        recorded = json.loads(args.record.read_text()) if args.record.exists() else {}
        recorded[args.workload] = {
            "seconds": args.seconds, "seeds": args.seeds, "failed": failed,
            "environment": env, "metrics": summary,
        }
        args.record.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
