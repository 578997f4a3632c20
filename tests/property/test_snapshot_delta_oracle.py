"""Differential oracle: delta-maintained columnar snapshot ≡ a rebuild.

Random catalogs carry every kind of view that edits its own objects in
the store — materialized (plain, and swizzled with timestamp
annotations), partial, clustered, virtual and aggregate — with the
columnar snapshot enabled.  Random insert / delete / modify steps and
batches drive membership in and out of the views, so delegates are
created, removed, re-created under their semantic OIDs, relinked and
rewritten.  After every step the live snapshot must equal a snapshot
built from scratch on a copy of the store, row for row: each live
OID's label, value and sorted child OIDs.  Epochs frozen along the way
must keep reading exactly what they read when frozen, whatever the
live snapshot does afterwards (the copy-on-write overlay).

Hypothesis is derandomized; every generator is a deterministic
function of the drawn seed, so failures replay.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb import ObjectStore
from repro.gsdb.columnar import ColumnarSnapshot
from repro.gsdb.traversal import descendants
from repro.gsdb.updates import Delete, Insert, Modify
from repro.views import (
    SimpleViewMaintainer,
    SwizzleMode,
    ViewCatalog,
    ViewCluster,
    ViewDefinition,
)
from repro.views.recompute import compute_view_members
from tests.property.support import common_settings

COMMON = common_settings(60)

LABELS = ("a", "b", "c")
#: OID prefixes of view-owned objects (never picked as base targets).
VIEW_PREFIXES = ("MV", "SW", "PV", "CL", "CV", "VV", "AG")
#: Atomic values straddle every view threshold, so members flip in and
#: out and delegates are re-created under their semantic OIDs.
VALUES = (20, 40, 60)


def build_catalog(seed: int, threshold: float, kernel: bool):
    """A three-level random tree under root0, plus one view of each kind."""
    rng = random.Random(seed)
    catalog = ViewCatalog()
    store = catalog.store
    store.add_set("root0", "root")
    counter = iter(range(10**6))
    frontier = ["root0"]
    for fanout in ((5, 7), (2, 4), (1, 3)):
        next_frontier = []
        for parent in frontier:
            for _ in range(rng.randint(*fanout)):
                oid = f"n{next(counter)}"
                label = rng.choice(LABELS)
                if parent != "root0" and rng.random() < 0.5:
                    store.add_atomic(oid, label, rng.choice(VALUES))
                else:
                    store.add_set(oid, label)
                    next_frontier.append(oid)
                store.insert_edge(parent, oid)
        frontier = next_frontier
    catalog.define("define mview MV as: SELECT root0.a X WHERE X.c > 30")
    # Wildcard members nest inside each other, so swizzling rewrites
    # delegate-to-delegate edges as members come and go.
    catalog.define(
        "define mview SW as: SELECT root0.* X WHERE X.b < 50",
        swizzle=SwizzleMode.EAGER,
        annotate_timestamps=True,
    )
    catalog.define_partial("define mview PV as: SELECT root0.b X", depth=2)
    catalog.define("define view VV as: SELECT root0.c X")
    catalog.define_aggregate("AG", "MV", "sum")
    cluster = ViewCluster("CL", store)
    catalog.parent_index.ignore_view("CL")
    for text in (
        "define mview CV1 as: SELECT root0.b X WHERE X.a > 30",
        "define mview CV2 as: SELECT root0.b X WHERE X.c > 30",
    ):
        member = cluster.add_view(ViewDefinition.parse(text))
        catalog.parent_index.ignore_parent(member.oid)
        member.load_members(compute_view_members(member.definition, store))
        catalog.dispatcher.register(
            SimpleViewMaintainer(
                member, parent_index=catalog.parent_index, subscribe=False
            )
        )
    if kernel:
        manager = catalog.enable_batch_kernel(rebuild_threshold=threshold)
    else:
        manager = catalog.enable_columnar(rebuild_threshold=threshold)
    manager.current()
    return catalog, manager


def base_oids(store, *, sets: bool | None = None) -> list[str]:
    out = []
    for oid in store.oids():
        if oid.startswith(VIEW_PREFIXES):
            continue
        if sets is None or store.peek(oid).is_set == sets:
            out.append(oid)
    return out


def draw_update(store, rng: random.Random, tag: str, batch=()):
    """One tree-preserving basic update, or None when none applies.

    A fresh node is created directly (creation is not a basic update)
    and the returned insert attaches it.  *batch* holds the updates
    drawn so far for the same batch, not yet applied: an update that
    touches an OID one of them touches is not drawn, so the batch
    keeps the base a tree.
    """
    touched = {oid for update in batch for oid in update.directly_affected}
    all_sets = base_oids(store, sets=True)
    sets = [s for s in all_sets if s not in touched]
    op = rng.randrange(4)
    if op == 0 and sets:  # attach a fresh node
        oid = f"fresh{tag}"
        label = rng.choice(LABELS)
        if rng.random() < 0.5:
            store.add_atomic(oid, label, rng.choice(VALUES))
        else:
            store.add_set(oid, label)
        return Insert(rng.choice(sets), oid)
    if op == 1:  # detach a subtree
        parents = [s for s in sets if store.peek(s).children() - touched]
        if not parents:
            return None
        parent = rng.choice(parents)
        children = sorted(store.peek(parent).children() - touched)
        return Delete(parent, rng.choice(children))
    if op == 2:  # move a subtree back under a (cycle-free) new parent
        if any(isinstance(update, Insert) for update in batch):
            return None  # a pending insert could close a cycle
        victims = [
            o for o in base_oids(store) if o != "root0" and o not in touched
        ]
        if not victims:
            return None
        victim = rng.choice(victims)
        below = descendants(store, victim) | {victim}
        holders = [s for s in all_sets if victim in store.peek(s).children()]
        targets = [s for s in sets if s not in below and s not in holders]
        if holders or not targets:
            return None
        return Insert(rng.choice(targets), victim)
    atoms = [o for o in base_oids(store, sets=False) if o not in touched]
    if op == 0 or not atoms:
        return None
    oid = rng.choice(atoms)
    return Modify(oid, store.peek(oid).atomic_value(), rng.choice(VALUES))


def image(view) -> dict:
    """Every live OID's (label, atomic value, sorted child OIDs)."""
    out = {}
    for row in range(view.nrows):
        oid = view.oid(row)
        if view.row(oid) == row:
            children = sorted(view.oid(c) for c in view.gather([row]))
            out[oid] = (view.label(row), view.atomic_value(row), children)
    return out


def rebuilt_image(store) -> dict:
    """The image of a snapshot built from scratch on a copy of *store*."""
    copy = ObjectStore(check_references=False)
    for oid in store.oids():
        copy.add_object(store.peek(oid).copy())
    return image(ColumnarSnapshot(copy).refresh())


@settings(derandomize=True, **COMMON)
@given(
    seed=st.integers(0, 10**6),
    threshold=st.sampled_from((0.25, 4.0)),
    kernel=st.booleans(),
)
def test_delta_snapshot_equals_rebuild(seed, threshold, kernel):
    catalog, manager = build_catalog(seed, threshold, kernel)
    store = catalog.store
    rng = random.Random(seed + 1)
    frozen: list[tuple[object, dict]] = []
    for step in range(20):
        if rng.random() < 0.3:
            updates = []
            for i in range(rng.randint(2, 4)):
                update = draw_update(store, rng, f"{step}_{i}", updates)
                if update is not None:
                    updates.append(update)
            catalog.apply_batch(updates)
        else:
            update = draw_update(store, rng, str(step))
            if update is not None:
                store.apply(update)
        catalog.virtual_views["VV"].refresh()
        snap = manager.current()
        assert snap.is_fresh()
        assert image(snap) == rebuilt_image(store), f"step {step}"
        if step % 4 == 0:
            view = manager.freeze()
            frozen.append((view, image(view)))
        for view, seen in frozen:
            assert image(view) == seen, f"frozen epoch {view.epoch} moved"
    for name in catalog.materialized_views:
        assert catalog.check(name).ok, name
