"""In-memory spans around the library's layer boundaries.

The benchmark records spans from its own files: :func:`install` swaps
each traced function for a wrapper at the place the library looks the
name up, and :func:`uninstall` puts the originals back.  Modules that
import a function by name (``from repro.paths.kernel import
evaluate_on_snapshot``) hold their own reference, so the wrapper must
replace *that* name (``repro.serving.mvcc.evaluate_on_snapshot``), or
the span would record no calls.

A span is ``(span_id, parent_id, request_id, name, start, end)``.  The
current span travels in a :mod:`contextvars` variable, which asyncio
tasks and ``asyncio.to_thread`` carry along, so a kernel sweep running
on a worker thread still nests under the read that caused it.  A
layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict

#: ``(span_id, request_id)`` of the innermost open span.
_CURRENT: contextvars.ContextVar[tuple[int, int] | None] = (
    contextvars.ContextVar("perfbench_span", default=None)
)

#: Traced functions: ``(span name, module, attribute path)``.  An
#: attribute path with a dot names a method on a class.
TRACED = (
    ("query.parse", "repro.serving.mvcc", "parse_query"),
    ("query.parse", "repro.query.evaluator", "parse_query"),
    ("query.parse", "repro.views.catalog", "parse_query"),
    ("query.interpreted", "repro.query.evaluator", "QueryEvaluator.evaluate_oids"),
    ("serving.read", "repro.serving.mvcc", "AsyncQueryServer.read"),
    ("serving.probe", "repro.serving.mvcc", "EpochServer.try_read_cached"),
    ("serving.invalidate", "repro.serving.invalidation", "Invalidator.on_update"),
    ("paths.kernel", "repro.serving.mvcc", "evaluate_on_snapshot"),
    ("paths.kernel", "repro.serving.mvcc", "evaluate_many_on_snapshot"),
    ("paths.compile", "repro.serving.mvcc", "compile_expression"),
    ("paths.compile", "repro.query.evaluator", "compile_expression"),
    ("gsdb.publish", "repro.gsdb.columnar", "SnapshotRetention.publish"),
    ("gsdb.pin", "repro.gsdb.columnar", "SnapshotRetention.pin"),
    ("gsdb.store_apply", "repro.gsdb.store", "ObjectStore.apply_all"),
    ("gsdb.condition_eval", "repro.views.maintenance", "eval_path_condition"),
    ("views.apply_batch", "repro.views.catalog", "ViewCatalog.apply_batch"),
    ("views.screen_replayed", "repro.views.catalog", "screen_replayed"),
    ("views.dispatch", "repro.views.dispatcher", "MaintenanceDispatcher.handle_batch"),
    ("views.maintainer", "repro.views.maintenance", "SimpleViewMaintainer.handle"),
)


class Tracer:
    """Collects spans while installed; holds per-name result tallies."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []
        #: ``name -> {result: count}`` for wrappers that tally results
        #: (``gsdb.pin`` counts False, ``serving.invalidate`` sums).
        self.results: dict[str, dict] = defaultdict(lambda: defaultdict(int))

    # -- spans opened by the driver -------------------------------------------

    def request(self, request_id: int, name: str):
        """A root span for one request; library spans nest under it."""
        return _RootSpan(self, request_id, name)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        current = _CURRENT
        clock = time.perf_counter
        tally = self.results[name] if name in _TALLIED else None

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = current.get()
                sid = next(ids)
                token = current.set((sid, parent[1] if parent else 0))
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append(
                        (sid, parent[0] if parent else 0,
                         parent[1] if parent else 0, name, start, end)
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set((sid, parent[1] if parent else 0))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append(
                    (sid, parent[0] if parent else 0,
                     parent[1] if parent else 0, name, start, end)
                )
            if tally is not None:
                _TALLIED[name](tally, result)
            return result

        return wrapper

    def install(self, bound=()) -> None:
        """Wrap every function in :data:`TRACED`, plus *bound*:
        ``(span name, object, attribute)`` triples naming callables an
        object captured before tracing began."""
        for name, module_name, attr in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
        for name, owner, leaf in bound:
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)``."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _parent, _req, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, parent, req, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "request": req,
                         "name": name, "start": start, "end": end}
                    )
                )
                out.write("\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, request_id: int, name: str) -> None:
        self._tracer = tracer
        self._request = request_id
        self._name = name

    def __enter__(self):
        self._sid = next(self._tracer._ids)
        self._token = _CURRENT.set((self._sid, self._request))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        _CURRENT.reset(self._token)
        self._tracer.spans.append(
            (self._sid, 0, self._request, self._name, self._start, end)
        )


def _tally_pin(tally, result) -> None:
    if result is False:
        tally["failed"] += 1


def _tally_invalidate(tally, result) -> None:
    tally["invalidated"] += int(result or 0)


_TALLIED = {"gsdb.pin": _tally_pin, "serving.invalidate": _tally_invalidate}


class NoTracer:
    """Stand-in when tracing is off: nothing is wrapped and root spans
    cost nothing."""

    def install(self, bound=()) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def request(self, request_id: int, name: str):
        return _NULL


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _Null()
