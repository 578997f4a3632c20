"""Per-layer metrics from a traced pass.

Each metric is listed with the end-to-end metric and workload it should
move, so a change to one layer can be checked against its prediction.
``BENCHMARK.json`` lists the same names, units and directions.
"""

from __future__ import annotations

from spans import Tracer

#: ``(name, unit, better, what it should move)``, in report order.
#: The last field is the prediction a change to that layer is judged
#: against: which end-to-end metric, on which workload, it should move.
LAYER_METRICS = (
    ("query.parse.calls", "count", "lower",
     "capacity_rps on serve-hot (every cache-hit read parses); "
     "no change on maintain"),
    ("query.parse.self_ms", "ms", "lower",
     "capacity_rps on serve-hot (every cache-hit read parses); "
     "no change on maintain"),
    ("query.interpreted.self_ms", "ms", "lower",
     "capacity_rps on serve-hot (view-extent reads hold the write mutex)"),
    ("serving.hit_ratio", "ratio", "higher",
     "capacity_rps on serve-hot; no change on serve-cold"),
    ("serving.source.carry", "count", "higher",
     "capacity_rps on serve-hot"),
    ("serving.source.epoch_cache", "count", "higher",
     "capacity_rps on serve-hot"),
    ("serving.source.kernel", "count", "lower",
     "capacity_rps on serve-cold and serve-hot (misses)"),
    ("serving.source.interpreted", "count", "lower",
     "capacity_rps on serve-hot (view-extent reads)"),
    ("serving.probe.self_ms", "ms", "lower",
     "capacity_rps on serve-hot"),
    ("serving.read.self_ms", "ms", "lower",
     "capacity_rps on serve-cold (includes the thread hand-off)"),
    ("serving.lag_mean_epochs", "epochs", "lower",
     "no gated metric: the staleness serve-hot's capacity_rps is "
     "bought with"),
    ("serving.invalidate.calls", "count", "lower",
     "updates_per_s on serve-cold and serve-hot; no change on maintain"),
    ("serving.invalidate.self_ms", "ms", "lower",
     "updates_per_s on serve-cold and serve-hot; no change on maintain"),
    ("serving.invalidations_per_update", "ratio", "lower",
     "updates_per_s and capacity_rps on serve-cold (fewer entries lost)"),
    ("paths.kernel.calls", "count", "lower",
     "capacity_rps on serve-cold and serve-hot (misses)"),
    ("paths.kernel.self_ms", "ms", "lower",
     "capacity_rps on serve-cold and serve-hot (misses)"),
    ("paths.rows_scanned_per_call", "rows", "lower",
     "capacity_rps on serve-cold"),
    ("paths.compile.self_ms", "ms", "lower",
     "capacity_rps on serve-cold"),
    ("gsdb.publish.calls", "count", "lower",
     "updates_per_s on serve-cold and serve-hot (each write publishes)"),
    ("gsdb.publish.self_ms", "ms", "lower",
     "updates_per_s on serve-cold and serve-hot (each write publishes)"),
    ("gsdb.snapshot_refreshes", "count", "lower",
     "updates_per_s and capacity_rps on serve-cold"),
    ("gsdb.pin.failed", "count", "lower",
     "capacity_rps on serve-cold (a failed pin moves to the next epoch)"),
    ("gsdb.store_apply.self_ms", "ms", "lower",
     "updates_per_s on maintain, serve-cold and serve-hot"),
    ("gsdb.condition_eval.calls", "count", "lower",
     "updates_per_s on maintain"),
    ("gsdb.condition_eval.self_ms", "ms", "lower",
     "updates_per_s on maintain"),
    ("gsdb.base_accesses_per_update", "ratio", "lower",
     "updates_per_s on maintain"),
    ("views.apply_batch.self_ms", "ms", "lower",
     "updates_per_s on maintain, serve-cold and serve-hot"),
    ("views.screen_replayed.self_ms", "ms", "lower",
     "updates_per_s on maintain, serve-cold and serve-hot"),
    ("views.dispatch.self_ms", "ms", "lower",
     "updates_per_s on maintain, serve-cold and serve-hot"),
    ("views.maintainer.calls", "count", "lower",
     "updates_per_s on maintain, serve-cold and serve-hot"),
    ("views.maintainer.self_ms", "ms", "lower",
     "updates_per_s on maintain, serve-cold and serve-hot"),
    ("views.screen_pass_ratio", "ratio", "lower",
     "updates_per_s on maintain (maintainer calls per update x view)"),
    ("views.chain_cache_hit_ratio", "ratio", "higher",
     "updates_per_s on maintain"),
    ("driver.generator_lag_p99_ms", "ms", "lower",
     "no gated metric: how late the open-loop generator dispatched "
     "(run validity)"),
    ("driver.tracing_overhead", "ratio", "lower",
     "no gated metric: untraced over traced throughput, minus one "
     "(run validity)"),
)

#: Span names opened by the driver, not the library.
ROOTS = ("driver.read", "driver.write", "driver.batch")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer, measured, overhead: float
) -> dict[str, tuple[float, str]]:
    times = tracer.self_times()

    def calls(name: str) -> int:
        return times.get(name, (0, 0.0))[0]

    def self_ms(name: str) -> float:
        return times.get(name, (0, 0.0))[1] * 1000.0

    window = measured.window
    sources = window.sources
    reads = sum(sources.values())
    lag_total = sum(lag * count for lag, count in window.lags.items())
    counters = window.counters
    chain = counters.chain_cache_hits + counters.chain_cache_misses
    updates = measured.updates
    invalidated = tracer.results["serving.invalidate"]["invalidated"]
    values = {
        "query.parse.calls": calls("query.parse"),
        "query.parse.self_ms": self_ms("query.parse"),
        "query.interpreted.self_ms": self_ms("query.interpreted"),
        "serving.hit_ratio": _ratio(
            sources.get("carry", 0) + sources.get("epoch-cache", 0), reads
        ),
        "serving.source.carry": sources.get("carry", 0),
        "serving.source.epoch_cache": sources.get("epoch-cache", 0),
        "serving.source.kernel": sources.get("kernel", 0),
        "serving.source.interpreted": sources.get("interpreted", 0),
        "serving.probe.self_ms": self_ms("serving.probe"),
        "serving.read.self_ms": self_ms("serving.read"),
        "serving.lag_mean_epochs": _ratio(lag_total, reads),
        "serving.invalidate.calls": calls("serving.invalidate"),
        "serving.invalidate.self_ms": self_ms("serving.invalidate"),
        "serving.invalidations_per_update": _ratio(invalidated, updates),
        "paths.kernel.calls": calls("paths.kernel"),
        "paths.kernel.self_ms": self_ms("paths.kernel"),
        "paths.rows_scanned_per_call": _ratio(
            window.read_counters.snapshot_rows_scanned, calls("paths.kernel")
        ),
        "paths.compile.self_ms": self_ms("paths.compile"),
        "gsdb.publish.calls": calls("gsdb.publish"),
        "gsdb.publish.self_ms": self_ms("gsdb.publish"),
        "gsdb.snapshot_refreshes": counters.snapshot_refreshes,
        "gsdb.pin.failed": tracer.results["gsdb.pin"]["failed"],
        "gsdb.store_apply.self_ms": self_ms("gsdb.store_apply"),
        "gsdb.condition_eval.calls": calls("gsdb.condition_eval"),
        "gsdb.condition_eval.self_ms": self_ms("gsdb.condition_eval"),
        "gsdb.base_accesses_per_update": _ratio(
            counters.total_base_accesses(), updates
        ),
        "views.apply_batch.self_ms": self_ms("views.apply_batch"),
        "views.screen_replayed.self_ms": self_ms("views.screen_replayed"),
        "views.dispatch.self_ms": self_ms("views.dispatch"),
        "views.maintainer.calls": calls("views.maintainer"),
        "views.maintainer.self_ms": self_ms("views.maintainer"),
        "views.screen_pass_ratio": _ratio(
            calls("views.maintainer"), window.dispatched * window.views
        ),
        "views.chain_cache_hit_ratio": _ratio(counters.chain_cache_hits, chain),
        "driver.generator_lag_p99_ms": measured.generator_lag_p99_ms,
        "driver.tracing_overhead": overhead,
    }
    return {name: (values[name], unit) for name, unit, _, _ in LAYER_METRICS}


def blocking_share(tracer: Tracer) -> tuple[float, dict[str, float]]:
    """Request time (root spans) and each span name's share of it.

    The shares of the library's spans say how much of the time a
    request spent in the system each layer accounts for; the root
    spans' own share is what no layer span covers (the driver, thread
    hand-offs, waiting for the write mutex).
    """
    times = tracer.self_times()
    total = sum(
        end - start
        for _sid, _parent, _req, name, start, end in tracer.spans
        if name in ROOTS
    )
    return total, {
        name: _ratio(secs, total) for name, (_calls, secs) in times.items()
    }
