"""Correctness checks that run in every benchmark run.

* :func:`store_digest` fingerprints a store, so the final state can be
  compared with a replica and with earlier runs of the same seed
  (:class:`DigestLedger`).
* :func:`recheck_samples` replays the run's bursts on a replica catalog
  without a serving tier and re-evaluates each sampled answer with the
  interpreted :class:`~repro.query.evaluator.QueryEvaluator` at the
  state the answer claimed to reflect.
* :func:`failing_views` runs ``ViewCatalog.check_all()``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def store_digest(store, oids=None) -> str:
    """SHA-256 over ``(oid, label, value)`` of *oids* (default: every
    object), set values as sorted child lists."""
    digest = hashlib.sha256()
    for oid in sorted(store.oids() if oids is None else oids):
        obj = store.peek(oid)
        if obj is None:
            digest.update(f"{oid}|-\n".encode())
            continue
        value = sorted(obj.children()) if obj.is_set else obj.value
        digest.update(f"{oid}|{obj.label}|{value!r}\n".encode())
    return digest.hexdigest()


def failing_views(catalog) -> list[str]:
    return sorted(
        name for name, report in catalog.check_all().items() if not report.ok
    )


def recheck_samples(replica, bursts, samples, seq_bursts) -> tuple[int, int]:
    """Replay *bursts* on *replica* in order, checking each sample at
    the state its publication ``seq`` stood for.  Returns
    ``(checked, mismatches)``; a sample whose ``seq`` no recorded burst
    produced counts as a mismatch.  Leaves *replica* with every burst
    applied."""
    by_state: dict[int, list] = {}
    mismatches = 0
    for sample in samples:
        state = seq_bursts.get(sample.seq)
        if state is None:
            mismatches += 1
            continue
        by_state.setdefault(state, []).append(sample)
    evaluate = replica.evaluator.evaluate_oids
    applied = 0
    for state in sorted(by_state):
        while applied < state:
            replica.apply_batch(bursts[applied])
            applied += 1
        for sample in by_state[state]:
            if frozenset(evaluate(sample.query)) != sample.oids:
                mismatches += 1
    for burst in bursts[applied:]:
        replica.apply_batch(burst)
    return len(samples), mismatches


class DigestLedger:
    """Final-state digests of earlier runs, kept in the checkout so
    that a run can check it ends where every earlier run of the same
    workload, seed and length ended."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def check(self, key: str, digest: str) -> bool:
        """Record *digest* under *key*; False when an earlier run
        recorded a different one."""
        try:
            known = json.loads(self.path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            known = {}
        previous = known.get(key)
        if previous is not None:
            return previous == digest
        known[key] = digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        pending = self.path.with_suffix(".tmp")
        pending.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(pending, self.path)
        return True
