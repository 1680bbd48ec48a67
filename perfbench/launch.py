"""Spawning program processes and reading back what they reported."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import signal
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = HERE / "program.py"
#: ``prctl`` option that re-parents orphaned descendants to the caller
PR_SET_CHILD_SUBREAPER = 36


def env() -> Dict[str, str]:
    """The caller's environment with the checkout's ``src`` importable."""
    variables = dict(os.environ)
    src = str(ROOT / "src")
    current = variables.get("PYTHONPATH")
    variables["PYTHONPATH"] = src if not current else f"{src}{os.pathsep}{current}"
    return variables


def command(
    report: Path, argv: Sequence[str], *, trace: bool = False, setup_only: bool = False
) -> List[str]:
    cmd = [sys.executable, str(PROGRAM), "--report", str(report)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    return [*cmd, "--", *argv]


def read_reports(report: Path) -> Dict[str, object]:
    """The program's report plus those of the pool workers it forked."""
    with open(report) as handle:
        main = json.load(handle)
    if main.get("missing"):
        # a layer function the tracer looks for is gone: its metrics read 0
        print(f"untraced targets: {', '.join(main['missing'])}", file=sys.stderr)
    workers = []
    for path in sorted(glob.glob(f"{glob.escape(str(report))}.w*")):
        with open(path) as handle:
            workers.append(json.load(handle))
    return {"main": main, "workers": workers}


def peak_rss_mb(reports: Dict[str, object]) -> float:
    """Largest own ``VmHWM`` of the program process and its workers, MiB."""
    peaks = [reports["main"]["vmhwm_kb"]] + [w["vmhwm_kb"] for w in reports["workers"]]
    return max(peaks) / 1024.0


def span_groups(reports: Dict[str, object]) -> List[list]:
    """Spans per process (span ids are unique only within a process)."""
    return [reports["main"].get("spans", [])] + [
        worker.get("spans", []) for worker in reports["workers"]
    ]


def all_events(reports: Dict[str, object]) -> list:
    events = list(reports["main"].get("events", []))
    for worker in reports["workers"]:
        events.extend(worker.get("events", []))
    return events


def adopt_orphans() -> None:
    """Have every orphaned descendant re-parented to this process (Linux),
    so that a pool worker or resource tracker whose parent has ended is
    still waited for here rather than left to init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    parent = str(os.getpid())
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces and ")"
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == parent:
            found.append(int(stat.split("/")[2]))
    return found


def end_children(grace: float = 5.0) -> None:
    """Wait until no process below this one is left.

    Stops this process's multiprocessing resource tracker first (it would
    otherwise run until this process exits), gives every child ``grace``
    seconds to end by itself, then kills those still running.  With
    :func:`adopt_orphans`, grandchildren land here as their parents end
    and are waited for in turn.
    """
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)  # end of file on its pipe stops the tracker
        tracker._fd = None
    give_up = time.monotonic() + grace
    while True:
        children = _children()
        if not children:
            return
        for pid in children:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
                if not done and time.monotonic() > give_up:
                    os.kill(pid, signal.SIGKILL)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)
