"""Host-speed calibration for the timed figures.

On a shared virtual machine the speed of a core drifts by up to 2x
within seconds, as other tenants share its hardware.  The drift is
not steal time: process CPU time stretches
with it just as wall time does, so a wall-clock figure from one run
says as much about the neighbours as about the program.

The benchmark therefore times a fixed loop of its own (:func:`probe`),
which no change to the library can alter, right before and right after
each timed stretch of work, and scales the stretch's seconds by
``REFERENCE_S / probe seconds``.  The result is what the stretch would
have taken on a host that runs the probe in ``REFERENCE_S``: a slower
program still reads slower, a slower host does not.  The unscaled
figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one :func:`probe` loop takes on the reference host.  On a
#: 2-vCPU x86-64 cloud VM under CPython 3.11 it read 5-10 ms.  Only the
#: ratio matters for comparisons; this constant keeps the scaled
#: figures near real seconds.
REFERENCE_S = 0.010
#: Loops per probe; the probe is their median.
REPEATS = 3


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: str, weight: int) -> None:
        self.key = key
        self.weight = weight


def _loop() -> int:
    """The interpreter work the program itself is made of: string
    keys, dictionary and set updates, small objects, attribute reads,
    calls and sorting."""
    counts: dict[str, int] = {}
    seen: set[int] = set()
    items: list[_Item] = []
    for i in range(8000):
        key = f"n{i % 613}"
        counts[key] = counts.get(key, 0) + 1
        seen.add(i * 7 % 1021)
        items.append(_Item(key, i % 97))
        if len(items) > 256:
            items.sort(key=lambda item: item.weight)
            del items[:128]
    return len(counts) + len(seen) + len(items)


def probe() -> float:
    """Seconds the calibration loop takes now (median of
    ``REPEATS``)."""
    clock = time.perf_counter
    spent = []
    for _ in range(REPEATS):
        began = clock()
        _loop()
        spent.append(clock() - began)
    return statistics.median(spent)


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* of work bracketed by probes *before* and *after*,
    at reference host speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
