"""The three workloads: ``serve-hot``, ``serve-cold`` and ``maintain``.

All three use the same seeded layered tree (depth 6, fanout 4, 5,461
objects) and the same steady-state update generator, in bursts of 10.

``serve-hot`` and ``serve-cold`` drive the MVCC front door
(``ViewCatalog.enable_async_serving``) open loop from one event-loop
thread whose default executor runs misses and writes (see
``EXECUTOR_WORKERS``).  Writes are
bursts through ``EpochServer.apply_batch``, which maintains four views
with one-step condition paths before each publication.  Each run has a
discarded warm-up, a *paced* phase at a fixed offered rate well below
capacity (latencies), and a *flood* phase offered above capacity with a
bounded backlog (capacity).  The flood runs in chunks of
``FLOOD_CHUNK`` nominal seconds with a host-speed probe between each
two (see ``calibrate.py``).

``maintain`` is a closed loop: one writer applies each burst through
``ViewCatalog.apply_batch`` and waits for it, after a discarded
warm-up.  No serving tier is attached.  The catalog holds a view whose
condition path runs five levels deep, plus one view per ``l2`` subtree,
so dispatcher screening scales with the view count and Algorithm 1
re-evaluates conditions over deep subtrees.  Its bursts run in
segments of ``SEGMENT_BATCHES`` with a host-speed probe between each
two.

The gated throughputs (``capacity_rps``, ``updates_per_s``) are scaled
to reference host speed by those probes; the unscaled figures and the
latencies are printed beside them, ungated.

The amount of work in a run depends only on the seed and ``--seconds``
(through fixed nominal rates), never on how fast the program is, so the
final state is the same on every run and both sides of a comparison do
the same work.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import ViewCatalog
from repro.gsdb.store import ObjectStore
from repro.instrumentation.counters import CostCounters

from calibrate import probe, scaled
from checks import failing_views, recheck_samples, store_digest
from driver import PhaseResult, Writer, drive, percentile, windowed
from inputs import LABELS, Schedule, SteadyUpdates, TreePlan, make_tree, query_pool
from spans import NoTracer

BURST = 10
#: Worker threads behind the event loop.  Every layer here is Python
#: and the interpreter lock runs one thread at a time, so on a two-core
#: machine a second worker only added lock hand-offs: capacity fell and
#: the run-to-run spread of the latency tails doubled.
EXECUTOR_WORKERS = 1
RETENTION = 20
CACHE_SIZE = 128
WARM_SECONDS = 1.0
#: Warm-up reads of a serving set-up per timed step.
WARM_STEP = 8
#: Share of ``--seconds`` given to the paced phase, whose latencies
#: are not gated; the flood, whose capacity is, gets the rest.
PACED_SHARE = 0.15
FLOOD_OUTSTANDING = 8
#: Reads per window for the paced phase's p99 (ten beyond the p99).
P99_WINDOW = 1000
#: Nominal seconds of flood per chunk.  The flood runs as chunks with a
#: host-speed probe between each two (see ``calibrate.py``); capacity
#: is the flood's completions over the sum of its chunks' scaled
#: seconds.
FLOOD_CHUNK = 0.5
#: Served answers kept for the oracle, per pass (about).
SAMPLES = 250
#: ``maintain`` sizes its run from this nominal writer throughput, and
#: reports throughput as the median over segments of this many batches,
#: each bracketed by host-speed probes.
MAINTAIN_UPDATES_PER_S = 1600.0
SEGMENT_BATCHES = 50


@dataclass(frozen=True)
class ServeConfig:
    pool_size: int
    skew: float
    write_share: float
    policies: tuple[tuple[str, float], ...]
    view_read_share: float
    #: Offered rate of the paced phase (requests/s), well below capacity.
    paced_rate: float
    #: Sizes the flood: ``flood seconds x flood_rate`` requests.
    flood_rate: float
    #: Pool queries read once during set-up.
    warm_queries: int


SERVE = {
    "serve-hot": ServeConfig(
        pool_size=96,
        skew=1.1,
        write_share=0.01,
        policies=(("8", 0.25), ("16", 0.25), ("any", 0.5)),
        view_read_share=0.01,
        paced_rate=1000.0,
        flood_rate=3200.0,
        warm_queries=96,
    ),
    "serve-cold": ServeConfig(
        pool_size=640,
        skew=0.0,
        write_share=0.10,
        policies=(("fresh", 1.0),),
        view_read_share=0.0,
        paced_rate=200.0,
        flood_rate=500.0,
        warm_queries=CACHE_SIZE,
    ),
}


def _no_step() -> None:
    pass


def build_catalog(plan: TreePlan, views: list[str], step=_no_step) -> ViewCatalog:
    """A catalog over *plan* with *views* defined and populated.  A
    set-up calls *step* after each of its steps, so that the caller can
    time the steps one by one (see ``run.py``)."""
    catalog = ViewCatalog()
    plan.populate(catalog.store)
    step()
    for text in views:
        catalog.define(text)
        step()
    return catalog


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _freeze_heap() -> None:
    """Collect, then exempt every live object from later collections
    until ``gc.unfreeze()``: the pre-generated inputs are the
    benchmark's, and must not make the program's collections slower."""
    gc.collect()
    gc.freeze()


def _p99(values: list[float]) -> float:
    return percentile(values, 99)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """What the library counted during the measured phases."""

    sources: dict[str, int]
    lags: dict[int, int]
    counters: CostCounters  # the store's (writer) ledger
    read_counters: CostCounters  # the serving tier's reader ledger
    dispatched: int  # updates the maintenance dispatcher fanned out
    views: int


class _Meter:
    def __init__(self, catalog, core) -> None:
        self._catalog = catalog
        self._core = core
        self._before = self._read()

    def _read(self):
        core = self._core
        report = core.freshness_report() if core is not None else {}
        return (
            report.get("sources", {}),
            report.get("lag_histogram", {}),
            self._catalog.store.counters.snapshot(),
            core.read_counters.snapshot() if core is not None else CostCounters(),
            self._catalog.dispatcher.updates_dispatched,
        )

    def close(self) -> Window:
        b_src, b_lag, b_cnt, b_read, b_disp = self._before
        a_src, a_lag, a_cnt, a_read, a_disp = self._read()
        return Window(
            {k: v - b_src.get(k, 0) for k, v in a_src.items()},
            {k: v - b_lag.get(k, 0) for k, v in a_lag.items()},
            a_cnt.delta_since(b_cnt),
            a_read.delta_since(b_read),
            a_disp - b_disp,
            len(self._catalog.materialized_views),
        )


@dataclass
class Measured:
    """One measured pass over a set-up."""

    #: End-to-end metrics gated by ``BENCHMARK.json``.
    metrics: dict[str, tuple[float, str]]
    #: Latencies, printed but not gated: on a shared two-core host their
    #: run-to-run spread (interpreter-lock hand-offs amplify every
    #: change in host speed) is wider than any bound the gate allows.
    latencies: dict[str, tuple[float, str]]
    #: The figure tracing overhead is judged on (completions/s).
    throughput: float
    attempted: int
    failed: int
    updates: int
    generator_lag_p99_ms: float
    window: Window
    errors: list[str] = field(default_factory=list)
    samples: list = field(default_factory=list)
    seq_bursts: dict[int, int] = field(default_factory=dict)


# -- serve-hot / serve-cold ---------------------------------------------------


def serve_views(plan: TreePlan) -> list[str]:
    """One view per ``l1`` subtree, with a one-step condition path."""
    rest = ".".join(LABELS[1:-1])
    return [
        f"define mview V{i} as: SELECT {entry}.{rest} X "
        f"WHERE X.{LABELS[-1]} > {threshold}"
        for i, (entry, threshold) in enumerate(
            zip(plan.levels[1], (20, 40, 60, 80))
        )
    ]


@dataclass
class ServeInputs:
    plan: TreePlan
    views: list[str]
    pool: list[str]
    warm: list
    paced: list
    flood: list
    bursts: list[list]
    reachable_leaves: int


class Serve:
    """``serve-hot`` or ``serve-cold``, by configuration."""

    legend = (
        "latency_*: reads of the paced phase from their scheduled arrival "
        "(p99: per window of 1000 reads, median over windows); "
        "write_p90_ms: write bursts of the paced phase, likewise; "
        "capacity_rps: flood completions per second, each chunk's seconds "
        "scaled to reference host speed; updates_per_s: writer-thread CPU "
        "seconds per flood burst inside EpochServer.apply_batch, scaled "
        "likewise, median"
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.cfg = SERVE[name]

    def prepare(self, seed: int, seconds: float) -> ServeInputs:
        cfg = self.cfg
        plan = make_tree(seed)
        views = serve_views(plan)
        pool = query_pool(plan, seed, cfg.pool_size)
        schedule = Schedule(
            seed,
            pool=pool,
            extra_reads=[f"SELECT V{i}.? X" for i in range(len(views))],
            extra_share=cfg.view_read_share,
            skew=cfg.skew,
            write_share=cfg.write_share,
            policies=cfg.policies,
        )
        rate = cfg.paced_rate
        paced_seconds = seconds * PACED_SHARE
        warm = schedule.requests(round(WARM_SECONDS * rate), rate)
        paced = schedule.requests(round(paced_seconds * rate), rate)
        flood = schedule.requests(
            round((seconds - paced_seconds) * cfg.flood_rate), None
        )
        updates = SteadyUpdates(plan, seed)
        bursts = [updates.burst(BURST) for _ in range(schedule.writes)]
        return ServeInputs(
            plan, views, pool, warm, paced, flood, bursts,
            updates.reachable_leaves(),
        )

    def setup(self, inputs: ServeInputs, step=_no_step):
        catalog = build_catalog(inputs.plan, inputs.views, step)
        server = catalog.enable_async_serving(
            retention_capacity=RETENTION, cache_size=CACHE_SIZE
        )
        step()
        warm = inputs.pool[: self.cfg.warm_queries]
        for i, text in enumerate(warm, 1):
            server.core.read(text, "any")  # publishes epoch 0, fills the cache
            if i % WARM_STEP == 0 or i == len(warm):
                step()
        return catalog, server

    def measure(self, handle, inputs: ServeInputs, tracer) -> Measured:
        catalog, server = handle
        writer = Writer(server.core, inputs.bursts)
        samples: list = []
        warm_ids = len(inputs.warm)
        sample_every = max(1, (len(inputs.paced) + len(inputs.flood)) // SAMPLES)
        chunk_size = round(FLOOD_CHUNK * self.cfg.flood_rate)

        async def phases():
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(max_workers=EXECUTOR_WORKERS)
            )
            await drive(server, inputs.warm, writer, NoTracer())
            _freeze_heap()
            meter = _Meter(catalog, server.core)
            # The core captured ``catalog.apply_batch`` as a bound
            # method when serving was enabled, so the class-level
            # wrapper never sees serving-tier writes.
            tracer.install(
                bound=[("views.apply_batch", server.core, "_apply_fn")]
            )
            try:
                paced = await drive(
                    server, inputs.paced, writer, tracer,
                    sample_every=sample_every, samples=samples,
                    first_id=warm_ids,
                )
                chunks = []
                first_id = warm_ids + len(inputs.paced)
                before = probe()
                for lo in range(0, len(inputs.flood), chunk_size):
                    chunk = await drive(
                        server, inputs.flood[lo : lo + chunk_size], writer,
                        tracer, sample_every=sample_every, samples=samples,
                        max_outstanding=FLOOD_OUTSTANDING,
                        first_id=first_id + lo,
                    )
                    after = probe()
                    chunks.append((chunk, before, after))
                    before = after
            finally:
                tracer.uninstall()
                gc.unfreeze()
            return paced, chunks, meter.close()

        paced, chunks, window = asyncio.run(phases())
        flood = [chunk for chunk, _, _ in chunks]
        updates = paced.updates + sum(chunk.updates for chunk in flood)
        # Completions per scaled second over all chunks, and the scaled
        # CPU seconds of each burst inside EpochServer.apply_batch.
        completed = sum(chunk.completed for chunk in flood)
        batches = []
        for chunk, before, after in chunks:
            batches += [scaled(b, before, after) for b in chunk.batch_seconds]
        capacity = completed / sum(
            scaled(chunk.wall, before, after) for chunk, before, after in chunks
        )
        metrics = {
            "capacity_rps": (capacity, "1/s"),
            # Per burst, then the median: a burst that waited out a
            # stall elsewhere does not drag the figure.
            "updates_per_s": (BURST / statistics.median(batches), "1/s"),
        }
        latencies = {
            "capacity_rps_unscaled": (
                completed / sum(chunk.wall for chunk in flood), "1/s"
            ),
            "latency_p50_ms": (_ms(statistics.median(paced.read_latencies)), "ms"),
            # The p99 of each window of reads, median over the windows:
            # one stall does not decide the run.
            "latency_p99_ms": (
                _ms(windowed(paced.read_latencies, P99_WINDOW, _p99)), "ms"
            ),
            "write_p90_ms": (_ms(percentile(paced.write_latencies, 90)), "ms"),
        }
        attempted = failed = 0
        for phase in (paced, *flood):
            attempted += phase.attempted
            # Exceptions, policy violations, and requests that never
            # completed.
            failed += phase.violations + phase.attempted - phase.completed
        return Measured(
            metrics=metrics,
            latencies=latencies,
            throughput=capacity,
            attempted=attempted,
            failed=failed,
            updates=updates,
            generator_lag_p99_ms=_ms(percentile(paced.dispatch_lateness, 99)),
            window=window,
            errors=[e for phase in (paced, *flood) for e in phase.errors],
            samples=samples,
            seq_bursts=writer.seq_bursts,
        )

    def check(self, handle, inputs: ServeInputs, measured: Measured):
        """Oracle re-check on a replica, view audit, and the final
        state against the replica.  Returns ``(failures, notes,
        digest)``."""
        catalog, _server = handle
        replica = build_catalog(inputs.plan, inputs.views)
        checked, mismatches = recheck_samples(
            replica, inputs.bursts, measured.samples, measured.seq_bursts
        )
        bad_views = failing_views(catalog)
        digest = store_digest(catalog.store)
        replica_ok = digest == store_digest(replica.store)
        notes = [
            f"oracle: {checked} sampled answers re-checked on a replica, "
            f"{mismatches} mismatched",
            f"views: {len(catalog.materialized_views)} checked, "
            f"inconsistent: {bad_views or 'none'}",
            f"final state: {digest[:16]}, replica "
            f"{'matches' if replica_ok else 'DIFFERS'}",
        ]
        failures = mismatches + len(bad_views) + (0 if replica_ok else 1)
        return failures, notes, digest


# -- maintain -----------------------------------------------------------------


def maintain_views(plan: TreePlan) -> list[str]:
    deep = ".".join(LABELS[1:])
    views = [
        f"define mview DEEP as: SELECT {plan.root}.{LABELS[0]} X "
        f"WHERE X.{deep} > 97"
    ]
    tail = ".".join(LABELS[3:])
    views += [
        f"define mview SUB{i} as: SELECT {entry}.{LABELS[2]} X "
        f"WHERE X.{tail} > {90 + i % 10}"
        for i, entry in enumerate(plan.levels[2])
    ]
    return views


@dataclass
class MaintainInputs:
    plan: TreePlan
    views: list[str]
    warm: list[list]
    bursts: list[list]
    reachable_leaves: int


class Maintain:
    name = "maintain"
    legend = (
        "latency_* and write_p90_ms: ViewCatalog.apply_batch per burst; "
        "capacity_rps and updates_per_s: bursts and updates per second, "
        "segments of 50 bursts scaled to reference host speed, median"
    )

    def prepare(self, seed: int, seconds: float) -> MaintainInputs:
        plan = make_tree(seed)
        updates = SteadyUpdates(plan, seed)
        per_second = MAINTAIN_UPDATES_PER_S / BURST
        warm = [
            updates.burst(BURST)
            for _ in range(round(WARM_SECONDS * per_second))
        ]
        bursts = [
            updates.burst(BURST) for _ in range(round(seconds * per_second))
        ]
        return MaintainInputs(
            plan, maintain_views(plan), warm, bursts,
            updates.reachable_leaves(),
        )

    def setup(self, inputs: MaintainInputs, step=_no_step):
        return build_catalog(inputs.plan, inputs.views, step)

    def measure(self, catalog, inputs: MaintainInputs, tracer) -> Measured:
        for burst in inputs.warm:
            catalog.apply_batch(burst)
        _freeze_heap()
        result = PhaseResult()
        meter = _Meter(catalog, None)
        clock = time.perf_counter
        # Seconds per batch of each segment, scaled (see calibrate.py)
        # and as measured.
        segments: list[float] = []
        raw: list[float] = []
        tracer.install()
        try:
            before = probe()
            for first in range(0, len(inputs.bursts), SEGMENT_BATCHES):
                segment = inputs.bursts[first : first + SEGMENT_BATCHES]
                began = clock()
                for rid, burst in enumerate(segment, first):
                    result.attempted += 1
                    started = clock()
                    try:
                        with tracer.request(rid, "driver.batch"):
                            catalog.apply_batch(burst)
                    except Exception as exc:  # a failed batch, not a failed run
                        result.failed(exc)
                        continue
                    result.batch_seconds.append(clock() - started)
                    result.updates += len(burst)
                spent = clock() - began
                after = probe()
                segments.append(scaled(spent, before, after) / len(segment))
                raw.append(spent / len(segment))
                before = after
        finally:
            tracer.uninstall()
            gc.unfreeze()
        window = meter.close()
        batches = result.batch_seconds
        per_batch = statistics.median(segments)
        metrics = {
            # A request on this workload is one burst, so capacity_rps
            # is updates_per_s / BURST by construction; BENCHMARK.json
            # asks every workload for every metric.
            "capacity_rps": (1.0 / per_batch, "1/s"),
            "updates_per_s": (BURST / per_batch, "1/s"),
        }
        latencies = {
            "updates_per_s_unscaled": (BURST / statistics.median(raw), "1/s"),
            "latency_p50_ms": (_ms(statistics.median(batches)), "ms"),
            "latency_p99_ms": (_ms(percentile(batches, 99)), "ms"),
            "write_p90_ms": (_ms(percentile(batches, 90)), "ms"),
        }
        return Measured(
            metrics=metrics,
            latencies=latencies,
            throughput=1.0 / per_batch,
            attempted=result.attempted,
            failed=result.exceptions,
            updates=result.updates,
            generator_lag_p99_ms=0.0,  # closed loop: nothing is scheduled
            window=window,
            errors=result.errors,
        )

    def check(self, catalog, inputs: MaintainInputs, measured: Measured):
        """View audit, plus the base objects against a plain replay of
        every burst.  Returns ``(failures, notes, digest)``."""
        replica = ObjectStore()
        inputs.plan.populate(replica)
        for burst in inputs.warm + inputs.bursts:
            replica.apply_all(burst)
        base = [oid for oid, _label, _value in inputs.plan.objects]
        base_ok = store_digest(catalog.store, base) == store_digest(replica, base)
        bad_views = failing_views(catalog)
        digest = store_digest(catalog.store)
        notes = [
            f"views: {len(catalog.materialized_views)} checked, "
            f"inconsistent: {bad_views or 'none'}",
            f"final state: {digest[:16]}, base objects against a plain "
            f"replay: {'match' if base_ok else 'DIFFER'}",
        ]
        return len(bad_views) + (0 if base_ok else 1), notes, digest


WORKLOADS = {
    "serve-hot": Serve("serve-hot"),
    "serve-cold": Serve("serve-cold"),
    "maintain": Maintain(),
}
