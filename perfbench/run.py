"""The repository benchmark: one seeded command per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``serve-hot``, ``serve-cold`` and
``maintain``.  The inputs come from ``--seed`` alone; ``--seconds``
sets how much work a run measures.

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing.  With ``--trace 1`` it measures the workload twice on fresh
set-ups with the same inputs, each with half the work: once untraced
and once with spans around every layer boundary.  It reports the
per-layer metrics of the traced pass and the tracing overhead (the
untraced pass's throughput over the traced one's, minus one), and
writes the spans to ``.perfbench-out/trace-<workload>.jsonl.gz``.

The benchmark runs on one core (see ``_pin_to_one_core``), and its
timed figures are scaled to reference host speed by a probe loop of
its own (see ``calibrate.py``).  ``setup_s`` is the median
of ``SETUPS`` set-ups, each timed step by step between probes.

Every pass checks its answers (see ``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed check also makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

from calibrate import probe, scaled

HERE = Path(__file__).resolve().parent
#: Set-ups per run, half before the measured pass and half after it:
#: ``setup_s`` is their median, taken from both ends of the run so that
#: one slow stretch of the host does not decide it.
SETUPS = 8
OUT_DIR = ".perfbench-out"


def _import_library(root: Path) -> None:
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(
            f"perfbench: no library sources at {source}/repro; "
            "run from the root of a checkout"
        )
    sys.path[:0] = [str(source), str(HERE)]


def _pin_to_one_core() -> None:
    """Run every thread of the benchmark on one core.

    The interpreter lock lets one thread run at a time, so the serving
    workloads' event loop and executor worker never use two cores at
    once; but when they ran on both, the work moved between cores whose
    speeds drift apart on a shared host, and the host-speed probe (run
    on the loop's core) could not follow it.  Across ten-seed runs of
    the serving throughputs, the median spread (IQR over median) was
    0.071 unpinned and 0.056 pinned.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _SetupClock:
    """Times a set-up step by step, each step bracketed by host-speed
    probes (see ``calibrate.py``): the host's speed drifts within one
    set-up, so one pair of probes around all of it is not enough."""

    def __init__(self) -> None:
        self.scaled = self.wall = 0.0
        self._before = probe()
        self._began = time.perf_counter()

    def step(self) -> None:
        spent = time.perf_counter() - self._began
        after = probe()
        self.scaled += scaled(spent, self._before, after)
        self.wall += spent
        self._before = after
        self._began = time.perf_counter()


def _timed_setup(workload, inputs):
    """One set-up: its seconds scaled to reference host speed, its
    wall seconds, and what it built."""
    gc.collect()
    clock = _SetupClock()
    handle = workload.setup(inputs, clock.step)
    clock.step()
    return clock.scaled, clock.wall, handle


def _checked_pass(workload, handle, inputs, tracer, ledger, key):
    measured = workload.measure(handle, inputs, tracer)
    failures, notes, digest = workload.check(handle, inputs, measured)
    if not ledger.check(key, digest):
        failures += 1
        notes.append("final state DIFFERS from an earlier run of this seed")
    for error in measured.errors:
        print(error, file=sys.stderr)
    return measured, failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_library(root)
    _pin_to_one_core()
    from checks import DigestLedger
    from layers import LAYER_METRICS, blocking_share, layer_metrics
    from spans import NoTracer, Tracer
    from workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seconds = args.seconds / 2 if args.trace else args.seconds
    ledger = DigestLedger(root / OUT_DIR / "digests.json")
    key = f"{args.workload}:{args.seed}:{seconds:g}"
    inputs = workload.prepare(args.seed, seconds)

    if not args.trace:
        times = []
        for _ in range(SETUPS // 2):
            handle = None  # free the previous set-up first
            *spent, handle = _timed_setup(workload, inputs)
            times.append(spent)
        measured, failures, notes = _checked_pass(
            workload, handle, inputs, NoTracer(), ledger, key
        )
        handle = None
        times += [
            _timed_setup(workload, inputs)[:2]
            for _ in range(SETUPS - SETUPS // 2)
        ]
        attempted, failed = measured.attempted, measured.failed + failures
        measured.latencies["setup_s_unscaled"] = (
            statistics.median(wall for _, wall in times), "s"
        )
        metrics = {"setup_s": (statistics.median(s for s, _ in times), "s"),
                   **measured.metrics,
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
    else:
        plain, failures_a, _ = _checked_pass(
            workload, workload.setup(inputs), inputs, NoTracer(), ledger, key
        )
        gc.collect()
        tracer = Tracer()
        traced, failures_b, notes = _checked_pass(
            workload, workload.setup(inputs), inputs, tracer, ledger, key
        )
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed + failures_a + failures_b
        overhead = plain.throughput / traced.throughput - 1.0
        metrics = layer_metrics(tracer, traced, overhead)
        total, shares = blocking_share(tracer)
        notes.append(
            f"request time {total:.3f} s over {len(tracer.spans)} spans; "
            "self-time share by span:"
        )
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            notes.append(f"  {name:<24} {share:7.1%}")
        tracer.dump(root / OUT_DIR / f"trace-{args.workload}.jsonl.gz")

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if not args.trace:
        print(f"  ({workload.legend})")
    print(f"  generator: {inputs.reachable_leaves} of "
          f"{len(inputs.plan.levels[-1])} leaves reachable after the last burst")
    for note in notes:
        print(f"  {note}")
    moves = {name: text for name, _, _, text in LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        line = f"  {name:<32} {value:14.4f} {unit:<6}"
        if args.trace:
            line += f"  should move: {moves[name]}"
        print(line.rstrip())
    if not args.trace:
        for name, (value, unit) in measured.latencies.items():
            print(f"  {name:<32} {value:14.4f} {unit:<6}  (printed, not gated)")
    print(f"  {'error_rate':<32} {failed / max(attempted, 1):14.6f} "
          f"({failed} of {attempted} attempted)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
