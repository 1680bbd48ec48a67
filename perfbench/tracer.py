"""In-memory layer spans recorded around calls into the program's public API.

The tracer never edits the program: :func:`install` replaces public
functions and methods of each layer module with thin wrappers that open a
span for the call (or for every ``next()`` of an iterator the call returns)
and add counts where the work happens.  Spans live in a list until
:meth:`Tracer.dump` writes them out; the parent folds them into per-layer
metrics with :mod:`pbstats`.

A span is ``(id, parent_id, name, start_ns, end_ns)`` on the monotonic
clock that ``time.perf_counter`` reads, shared by every process.  The
open-span stack is a context variable, so each thread nests its own spans.  Targets that a later version of the program renamed or removed are
skipped and listed in ``Tracer.missing``: the run then reports the layer as
idle instead of failing.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

SpanName = Union[str, Callable[[tuple], str]]
#: ``fn(result, args) -> {counter name: amount}``
Counter = Callable[[object, tuple], Dict[str, float]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, int]] = []
        #: ``(name, amount, at_ns)``: counts keep their instant so that a
        #: window of a long-running server can be cut out of them
        self.events: List[Tuple[str, float, int]] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._stack: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_spans", default=()
        )

    def reset(self) -> None:
        """Forget everything (a forked worker starts from an empty trace)."""
        self.spans = []
        self.events = []
        self._stack.set(())

    def _open(self, name: str):
        stack = self._stack.get()
        span_id = next(self._ids)
        token = self._stack.set(stack + (span_id,))
        parent = stack[-1] if stack else 0
        return span_id, parent, token, time.perf_counter_ns()

    def _close(self, name: str, opened) -> None:
        end = time.perf_counter_ns()
        span_id, parent, token, start = opened
        self._stack.reset(token)
        self.spans.append((span_id, parent, name, start, end))

    def count(self, counter: Optional[Counter], result, args) -> None:
        if counter is not None:
            now = time.perf_counter_ns()
            for name, amount in counter(result, args).items():
                self.events.append((name, float(amount), now))

    def wrap(
        self,
        fn: Callable,
        name: SpanName,
        *,
        counter: Optional[Counter] = None,
        per_item: Optional[Counter] = None,
    ) -> Callable:
        """``fn`` inside a span; iterators it returns are timed per item."""
        label = name if callable(name) else (lambda args, _n=name: _n)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = label(args)
            opened = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, opened)
            self.count(counter, result, args)
            if hasattr(result, "__next__"):
                return self._iterate(span, result, per_item, args)
            return result

        return traced

    def _iterate(self, span: str, iterator, per_item: Optional[Counter], args):
        try:
            while True:
                opened = self._open(span)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(span, opened)
                self.count(per_item, item, args)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "events": self.events,
                    "missing": self.missing,
                    **extra,
                },
                handle,
            )


# ----------------------------------------------------------------------
# layer targets
# ----------------------------------------------------------------------
def _counting(name: str, amount: Callable[[object, tuple], float]) -> Counter:
    return lambda result, args: {name: amount(result, args)}


_SHARD_SAMPLES = _counting("backend.samples", lambda r, a: getattr(r, "n_samples", 0))
_ARRAY_SAMPLES = _counting("backend.samples", lambda r, a: getattr(r, "size", 0))


def _pass_span(stage: str) -> Callable[[tuple], str]:
    return lambda args: f"analysis.{getattr(args[0], 'name', 'custom')}.{stage}"


def _store_finalized(result, args) -> Dict[str, float]:
    store = args[0]
    return {
        "store.bytes_written": getattr(store, "nbytes", 0),
        "store.groups": getattr(store, "n_groups", 0),
    }


#: (module, class or None, attributes, span, counter, per-item counter)
TARGETS: Sequence[tuple] = (
    # repro.experiments.backends (with the apps' campaign kernel and the
    # column assembly it feeds)
    ("repro.experiments.backends", "*backends", ("run_shard",), "backend.run",
     _SHARD_SAMPLES, None),
    ("repro.experiments.backends", "*backends",
     ("iter_shards", "run", "run_many", "map_chunk_blocks", "iter_shards_parallel"),
     "backend.run", None, None),
    ("repro.apps.base", "ProxyApplication", ("thread_compute_times_campaign",),
     "backend.run", _ARRAY_SAMPLES, None),
    ("repro.core.instrument", "RegionInstrumenter",
     ("record_campaign", "record_columns", "dataset"), "backend.run", None, None),
    # repro.experiments.executor
    ("repro.experiments.executor", "ShardExecutor", ("map_blocks",),
     "executor.map_blocks", None, _counting("executor.chunks", lambda r, a: 1)),
    ("repro.experiments.executor", "ShardExecutor", ("iter_shards",),
     "executor.iter_shards", None, None),
    # the parent blocked on a pool worker's result (chunk pool and its IPC)
    ("concurrent.futures", "Future", ("result",), "executor.wait", None, None),
    # repro.analysis (+ repro.stats, which the passes call)
    ("repro.analysis.base", "AnalysisPass",
     ("accumulate", "accumulate_columns", "accumulate_columns_split"),
     _pass_span("accumulate"), None, None),
    ("repro.analysis.base", "AnalysisPass", ("merge",), _pass_span("merge"), None, None),
    ("repro.analysis.base", "AnalysisPass", ("finalize",), _pass_span("finalize"),
     None, None),
    ("repro.analysis.engine", None,
     ("run_columnar_analyses", "run_analyses", "run_campaign_analyses"),
     "analysis.engine", None, None),
    ("repro.analysis.engine", "AnalysisResults", ("report",), "analysis.engine",
     None, None),
    # repro.io.shard_store
    ("repro.io.shard_store", "ShardStore", ("append", "extend", "flush", "adopt_group"),
     "store.append", None, None),
    ("repro.io.shard_store", None, ("write_group_payload",), "store.append", None, None),
    ("repro.io.shard_store", "ShardStore", ("finalize",), "store.finalize",
     _store_finalized, None),
    ("repro.io.shard_store", None, ("publish_store",), "store.finalize", None, None),
    ("repro.io.shard_store", "ShardStore",
     ("iter_column_blocks", "iter_shards", "iter_group", "group_columns"),
     "store.read", None, None),
    # repro.io.cache_tier
    ("repro.io.cache_tier", "CacheTier", ("admit",), "cache_tier.admit",
     _counting("cache_tier.misses", lambda r, a: 1), None),
    ("repro.io.cache_tier", "CacheTier", ("touch",), "cache_tier.touch",
     _counting("cache_tier.hits", lambda r, a: 1), None),
    # repro.experiments.tables / figures + repro.viz
    ("repro.experiments.tables", None, "*public", "output.tables", None, None),
    ("repro.experiments.figures", None, "*public", "output.figures", None, None),
    ("repro.viz.export", None, ("export_rows_csv",), "output.tables", None, None),
    ("repro.viz.ascii", None, ("ascii_table",), "output.tables", None, None),
    ("repro.viz.export", None, ("export_histogram_csv", "export_percentiles_csv"),
     "output.figures", None, None),
    ("repro.viz.ascii", None, ("ascii_histogram", "ascii_percentile_plot"),
     "output.figures", None, None),
)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _classes(module, spec: str) -> List[type]:
    if spec == "*backends":
        registry = [type(module.get_backend(n)) for n in module.available_backends()]
        return list(dict.fromkeys(_subclasses(module.CampaignBackend) + registry))
    cls = getattr(module, spec, None)
    return _subclasses(cls) if isinstance(cls, type) else []


def _public_functions(module) -> Tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and not name.startswith("_")
        and value.__module__ == module.__name__
    )


def install(tracer: Tracer, targets: Sequence[tuple] = TARGETS) -> int:
    """Wrap every target that exists; returns how many were wrapped.

    Module-level functions are replaced in their own module and in every
    loaded ``repro`` module that imported them by name, so call sites bound
    at import time see the wrapper too.
    """
    wrapped = 0
    replaced: Dict[int, Callable] = {}
    for module_name, owner, attributes, span, counter, per_item in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.missing.append(module_name)
            continue
        if attributes == "*public":
            attributes = _public_functions(module)
        if owner is None:
            for attribute in attributes:
                original = getattr(module, attribute, None)
                if not callable(original):
                    tracer.missing.append(f"{module_name}.{attribute}")
                    continue
                new = tracer.wrap(original, span, counter=counter, per_item=per_item)
                replaced[id(original)] = new
                setattr(module, attribute, new)
                wrapped += 1
            continue
        classes = _classes(module, owner)
        if not classes:
            tracer.missing.append(f"{module_name}.{owner}")
            continue
        for attribute in attributes:
            hits = 0
            for cls in classes:
                original = cls.__dict__.get(attribute)
                if not inspect.isfunction(original):
                    continue
                new = tracer.wrap(original, span, counter=counter, per_item=per_item)
                setattr(cls, attribute, new)
                hits += 1
            if hits == 0:
                tracer.missing.append(f"{module_name}.{owner}.{attribute}")
            wrapped += hits
    # point names bound by ``from module import fn`` at the wrappers
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attribute, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attribute, replaced[id(value)])
    return wrapped
