"""Launch one program process the way a user would, and report on it.

    python perfbench/program.py --report OUT.json [--trace] [--setup-only] \\
        -- <arguments of python -m repro>

Runs ``repro.experiments.runner.main`` (what ``python -m repro`` runs) in
this process, after timing the set-up a user pays on every invocation:
imports, then the configs and applications the arguments name.  The
report records the monotonic-clock instants of those steps (the parent
timed the spawn on the same clock), the process's own ``VmHWM`` and, with
``--trace``, the layer spans of :mod:`tracer`.  Pool workers forked by the
program write their own ``VmHWM`` (and spans) to ``OUT.json.w<pid>`` as
they exit.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import pbstats  # noqa: E402
import tracer as tracing  # noqa: E402

#: keeps the after-fork registration alive (multiprocessing holds it weakly)
_FORK_ANCHOR = []


def _build_configs(runner, argv):
    """Build every config and application the campaign arguments name,
    through the program's own ``_configure``."""
    from repro.experiments.backends import build_application

    args = runner.build_parser().parse_args(argv)
    if args.scenario is not None:
        applications = [runner.get_scenario(args.scenario).application]
    else:
        applications = args.apps or ["minife", "minimd", "miniqmc"]
    for application in applications:
        build_application(runner._configure(args, application))


def _dump_worker(report: str, tracer) -> None:
    payload = {"pid": os.getpid(), "vmhwm_kb": pbstats.read_vmhwm_kb()}
    if tracer is None:
        with open(f"{report}.w{os.getpid()}", "w") as handle:
            json.dump(payload, handle)
    else:
        tracer.dump(f"{report}.w{os.getpid()}", **payload)


def _watch_workers(report: str, tracer) -> None:
    """Have every forked multiprocessing worker report itself at exit."""
    import multiprocessing.util as mp_util

    def after_fork(_anchor) -> None:
        if tracer is not None:
            tracer.reset()
        mp_util.Finalize(None, _dump_worker, args=(report, tracer), exitpriority=100)

    anchor = type("Anchor", (), {})()
    _FORK_ANCHOR.append(anchor)
    mp_util.register_after_fork(anchor, after_fork)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    # a launcher that ran the benchmark in the background may have left
    # SIGINT ignored, and ``serve`` only stops on KeyboardInterrupt
    signal.signal(signal.SIGINT, signal.default_int_handler)
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv

    from repro.experiments import runner

    if argv[:1] == ["serve"]:
        import repro.service.http  # noqa: F401  (what serve imports first)
    imported = time.perf_counter()
    if argv[:1] != ["serve"]:
        _build_configs(runner, argv)
    ready = time.perf_counter()
    report = {"started": STARTED, "imported": imported, "ready": ready}
    rc = 0
    tracer = None
    if not options.setup_only:
        if options.trace:
            tracer = tracing.Tracer()
            report["wrapped"] = tracing.install(tracer)
        _watch_workers(options.report, tracer)
        rc = runner.main(argv)
    report.update(ended=time.perf_counter(), rc=rc, vmhwm_kb=pbstats.read_vmhwm_kb())
    if tracer is not None:
        tracer.dump(options.report, **report)
    else:
        with open(options.report, "w") as handle:
            json.dump(report, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
