"""The open-loop request driver for the serving workloads.

Each request is dispatched at its scheduled instant as its own asyncio
task, whether or not earlier requests have finished (independent
users), and its latency is timed from that scheduled instant, so a
stall shows in the requests queued behind it.  The driver records how
late it dispatched each request, and counts every exception and every
answer staler than its policy allowed as a failed request instead of
aborting the run.  Staleness is worked out from the driver's own
records, not taken from the answer: the bursts applied when the read
was dispatched, minus the bursts the answer's publication reflects.

A flood phase (requests all due at once) keeps at most
``max_outstanding`` requests in flight: the server always has a
backlog, so completions per second measure its capacity, while memory
stays bounded.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro.serving.mvcc import FreshnessPolicy


@dataclass
class PhaseResult:
    """Outcome of one driven phase."""

    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    #: CPU seconds the writer thread spent inside
    #: ``EpochServer.apply_batch`` per burst.
    batch_seconds: list[float] = field(default_factory=list)
    dispatch_lateness: list[float] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    exceptions: int = 0
    violations: int = 0
    updates: int = 0
    wall: float = 0.0
    #: Tracebacks of the first few exceptions.
    errors: list[str] = field(default_factory=list)

    def failed(self, exc: BaseException) -> None:
        self.exceptions += 1
        if len(self.errors) < 3:
            self.errors.append("".join(traceback.format_exception(exc)))


@dataclass
class Sample:
    """A served answer kept for the oracle re-check."""

    query: str
    seq: int
    oids: frozenset


class Writer:
    """Applies the run's pre-generated bursts in order through
    ``EpochServer.apply_batch`` and remembers which publication each
    burst produced, so sampled answers can be matched to a replayed
    state."""

    def __init__(self, core, bursts: list[list]) -> None:
        self.core = core
        self.bursts = bursts
        self.applied = 0
        #: publication seq -> number of bursts applied at that state.
        self.seq_bursts: dict[int, int] = {}
        latest = core.retention.latest()
        if latest is not None:
            self.seq_bursts[latest.seq] = 0

    def write(self) -> tuple[int, float]:
        """Apply the next burst (on a worker thread); returns the
        update count and the CPU seconds the writer thread spent
        applying it: wall time would add the waits for the interpreter
        lock while the event loop answers reads, which depend on the
        switch interval rather than on the write path."""
        core = self.core
        with core.write_mutex:
            burst = self.bursts[self.applied]
            began = time.thread_time()
            core.apply_batch(burst)
            spent = time.thread_time() - began
            self.applied += 1
            self.seq_bursts[core.retention.latest().seq] = self.applied
        return len(burst), spent


async def drive(
    server,
    requests,
    writer: Writer,
    tracer,
    *,
    sample_every: int = 0,
    samples: list | None = None,
    max_outstanding: int | None = None,
    first_id: int = 0,
) -> PhaseResult:
    """Replay *requests* open loop against *server*."""
    loop = asyncio.get_running_loop()
    result = PhaseResult()
    tasks: set[asyncio.Task] = set()
    gate = (
        asyncio.Semaphore(max_outstanding) if max_outstanding else None
    )

    #: ``(bursts applied at dispatch, answer seq, allowed lag)`` per
    #: read with a bounded policy, judged once every write has finished.
    freshness: list[tuple[int, int, int]] = []

    async def do_read(rid: int, request, due: float, applied: int) -> None:
        try:
            with tracer.request(rid, "driver.read"):
                answer = await server.read(request.query, request.policy)
        except Exception as exc:  # a failed request, not a failed run
            result.failed(exc)
            return
        finally:
            if gate is not None:
                gate.release()
        now = loop.time()
        result.read_latencies.append(now - due)
        result.completed += 1
        allowed = FreshnessPolicy.parse(request.policy).max_lag_epochs
        if allowed is not None:
            freshness.append((applied, answer.seq, allowed))
        if samples is not None and sample_every and rid % sample_every == 0:
            samples.append(
                Sample(request.query, answer.seq, answer.oids)
            )

    async def do_write(rid: int, due: float) -> None:
        try:
            with tracer.request(rid, "driver.write"):
                count, spent = await asyncio.to_thread(writer.write)
        except Exception as exc:
            result.failed(exc)
            return
        finally:
            if gate is not None:
                gate.release()
        now = loop.time()
        result.write_latencies.append(now - due)
        result.batch_seconds.append(spent)
        result.updates += count
        result.completed += 1

    start = loop.time()
    for offset, request in enumerate(requests):
        if gate is not None:
            await gate.acquire()
            due = loop.time()
        else:
            due = start + request.at
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.dispatch_lateness.append(max(0.0, loop.time() - due))
        rid = first_id + offset
        result.attempted += 1
        if request.kind == "read":
            task = loop.create_task(
                do_read(rid, request, due, writer.applied)
            )
        else:
            task = loop.create_task(do_write(rid, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    while tasks:
        await asyncio.gather(*list(tasks))
    result.wall = loop.time() - start
    # Every burst one publication: a read may lag by as many bursts as
    # its policy allows, counted from the state when it was dispatched.
    # An answer from a publication no burst produced is a violation too.
    for applied, seq, allowed in freshness:
        reflected = writer.seq_bursts.get(seq)
        if reflected is None or applied - reflected > allowed:
            result.violations += 1
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def windowed(values: list[float], size: int, stat) -> float:
    """*stat* of each consecutive window of *size* values, median over
    the windows (*stat* of all values when there is no full window)."""
    windows = [
        values[i : i + size] for i in range(0, len(values) - size + 1, size)
    ]
    if not windows:
        return stat(values)
    return statistics.median(stat(window) for window in windows)
