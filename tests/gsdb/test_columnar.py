"""Unit tests for the epoch-versioned columnar snapshot."""

import pytest

from repro.gsdb import ObjectStore, ShardedStore
from repro.gsdb.columnar import (
    ColumnarSnapshot,
    ShardedColumnarSnapshot,
    enable_columnar,
)
from repro.views import MaterializedView, ViewDefinition
from repro.workloads import person_db


def small_store() -> ObjectStore:
    store = ObjectStore()
    store.add_atomic("a1", "age", 45)
    store.add_atomic("a2", "age", 30)
    store.add_set("p1", "professor", ["a1"])
    store.add_set("p2", "professor", ["a2"])
    store.add_set("root", "root", ["p1", "p2"])
    return store


def large_store() -> ObjectStore:
    """small_store plus filler atoms, so that a handful of events stays
    under the rebuild threshold and delta replay handles them."""
    store = small_store()
    for i in range(40):
        store.add_atomic(f"f{i:02d}", "filler", i)
    return store


def image(view) -> dict:
    """Every live OID's (label, atomic value, sorted child OIDs)."""
    out = {}
    for row in range(view.nrows):
        oid = view.oid(row)
        if view.row(oid) == row:
            children = sorted(view.oid(c) for c in view.gather([row]))
            out[oid] = (view.label(row), view.atomic_value(row), children)
    return out


def fresh_image(store) -> dict:
    """The image of a snapshot built from scratch on a copy of *store*."""
    copy = ObjectStore(check_references=False)
    for oid in store.oids():
        copy.add_object(store.peek(oid).copy())
    return image(ColumnarSnapshot(copy).refresh())


class TestBuild:
    def test_rows_in_sorted_oid_order(self):
        store = small_store()
        snap = enable_columnar(store).current()
        assert snap.oid_of == sorted(store.oids())
        assert all(snap.row(oid) == i for i, oid in enumerate(snap.oid_of))
        assert snap.nrows == 5

    def test_label_names_sorted(self):
        snap = enable_columnar(small_store()).current()
        assert snap.label_names() == ["age", "professor", "root"]

    def test_gather_per_label(self):
        store = small_store()
        snap = enable_columnar(store).current()
        root = snap.row("root")
        children = snap.gather([root], "professor")
        assert sorted(snap.oid(r) for r in children) == ["p1", "p2"]
        assert snap.gather([root], "age") == []

    def test_gather_all_labels(self):
        store = small_store()
        snap = enable_columnar(store).current()
        rows = snap.gather([snap.row("p1"), snap.row("p2")], None)
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a2"]

    def test_atomic_rows_have_no_children(self):
        snap = enable_columnar(small_store()).current()
        assert snap.gather([snap.row("a1")], None) == []

    def test_build_charges_refresh_and_rows(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        assert store.counters.snapshot_refreshes == 1
        assert store.counters.snapshot_rows_scanned >= 5

    def test_rebuild_threshold_validation(self):
        with pytest.raises(ValueError):
            ColumnarSnapshot(ObjectStore(), rebuild_threshold=0)


class TestFreshness:
    def test_fresh_after_refresh(self):
        store = small_store()
        manager = enable_columnar(store)
        snap = manager.current()
        assert snap.is_fresh()
        assert manager.current() is snap
        assert store.counters.snapshot_refreshes == 1  # no re-refresh

    def test_update_staleness_and_delta_refresh(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("p1", "a2")
        assert not manager.is_fresh()
        snap = manager.current()
        assert snap.is_fresh()
        assert snap.delta_refreshes == 1
        rows = snap.gather([snap.row("p1")], "age")
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a2"]

    def test_auto_refresh_off_serves_none_when_stale(self):
        store = small_store()
        manager = enable_columnar(store, auto_refresh=False)
        manager.refresh()
        assert manager.current() is not None
        store.insert_edge("p1", "a2")
        assert manager.current() is None  # stale: fall back, never serve
        manager.refresh()
        assert manager.current() is not None

    def test_disable_serves_none(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        manager.disable()
        assert manager.current() is None
        manager.enable()
        assert manager.current() is not None

    def test_epoch_bumps_only_on_change(self):
        store = small_store()
        manager = enable_columnar(store)
        snap = manager.current()
        epoch = snap.epoch
        manager.current()
        assert snap.epoch == epoch
        store.modify_value("a1", 46)
        manager.current()
        assert snap.epoch == epoch + 1


class TestDeltaReplay:
    def test_delete_edge(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.delete_edge("root", "p2")
        snap = manager.current()
        rows = snap.gather([snap.row("root")], "professor")
        assert [snap.oid(r) for r in rows] == ["p1"]

    def test_modify_is_structural_noop(self):
        store = small_store()
        manager = enable_columnar(store)
        before = manager.current().gather([0, 1, 2, 3, 4], None)
        store.modify_value("a1", 46)
        after = manager.current().gather([0, 1, 2, 3, 4], None)
        assert sorted(before) == sorted(after)

    def test_creation_appends_row(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.add_atomic("a3", "age", 20)
        store.insert_edge("p1", "a3")
        snap = manager.current()
        assert snap.row("a3") is not None
        rows = snap.gather([snap.row("p1")], "age")
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a3"]

    def test_created_set_object_with_children(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.add_set("p3", "professor", ["a1", "a2"])
        store.insert_edge("root", "p3")
        snap = manager.current()
        rows = snap.gather([snap.row("p3")], "age")
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a2"]

    def test_removal_tombstones_row(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.delete_edge("p2", "a2")
        store.remove_object("a2")
        snap = manager.current()
        assert snap.row("a2") is None
        assert snap.gather([snap.row("p2")], None) == []

    def test_dangling_edge_hidden_until_child_exists(self):
        store = ObjectStore(check_references=False)
        store.add_set("root", "root")
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("root", "ghost")  # child does not exist yet
        snap = manager.current()
        assert snap.gather([snap.row("root")], None) == []
        store.add_atomic("ghost", "age", 1)
        snap = manager.current()
        rows = snap.gather([snap.row("root")], "age")
        assert [snap.oid(r) for r in rows] == ["ghost"]

    def test_pending_edge_deleted_before_resolution(self):
        store = ObjectStore(check_references=False)
        store.add_set("root", "root")
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("root", "ghost")
        store.delete_edge("root", "ghost")
        store.add_atomic("ghost", "age", 1)
        snap = manager.current()
        assert snap.gather([snap.row("root")], None) == []

    def test_recreated_oid_revives_row(self):
        store = large_store()
        manager = enable_columnar(store)
        manager.current()
        rebuilds = manager.full_rebuilds
        row = manager.row("a2")
        store.delete_edge("p2", "a2")
        store.remove_object("a2")
        store.add_atomic("a2", "age", 99)
        store.insert_edge("p2", "a2")
        snap = manager.current()
        assert snap.is_fresh()
        assert snap.full_rebuilds == rebuilds
        assert snap.row("a2") == row  # revived in place
        assert snap.atomic_value(row) == 99
        rows = snap.gather([snap.row("p2")], "age")
        assert [snap.oid(r) for r in rows] == ["a2"]
        assert image(snap) == fresh_image(store)

    def test_recreated_oid_new_label_rebuilds(self):
        store = large_store()
        manager = enable_columnar(store)
        manager.current()
        rebuilds = manager.full_rebuilds
        store.delete_edge("p2", "a2")
        store.remove_object("a2")
        store.add_atomic("a2", "name", "Ann")
        store.insert_edge("p2", "a2")
        snap = manager.current()
        assert snap.is_fresh()
        assert snap.full_rebuilds == rebuilds + 1
        assert snap.gather([snap.row("p2")], "age") == []
        rows = snap.gather([snap.row("p2")], "name")
        assert [snap.oid(r) for r in rows] == ["a2"]
        assert image(snap) == fresh_image(store)

    def test_revived_set_row_drops_old_pending_edges(self):
        store = large_store()
        store.check_references = False
        store.add_set("s", "set", ["ghost"])  # ghost never existed
        manager = enable_columnar(store)
        manager.current()
        store.remove_object("s")
        store.add_set("s", "set", ["a1"])
        store.add_atomic("ghost", "age", 1)
        snap = manager.current()
        rows = snap.gather([snap.row("s")], None)
        assert [snap.oid(r) for r in rows] == ["a1"]
        assert image(snap) == fresh_image(store)

    def test_large_delta_triggers_rebuild(self):
        store = small_store()
        manager = enable_columnar(store, rebuild_threshold=0.25)
        manager.current()
        rebuilds = manager.full_rebuilds
        for _ in range(3):  # 6 updates > 0.25 * 5 rows
            store.insert_edge("p1", "a2")
            store.delete_edge("p1", "a2")
        manager.current()
        assert manager.full_rebuilds == rebuilds + 1

    def test_describe_mentions_state(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        assert "fresh" in manager.describe()
        store.modify_value("a1", 46)
        assert "stale" in manager.describe()


def sharded_pair(shards: int = 4):
    """The same objects in a sharded store and a plain reference."""
    sharded, plain = ShardedStore(shards), ObjectStore()
    for store in (sharded, plain):
        for i in range(12):
            store.add_atomic(f"a{i}", "age", i)
        for i in range(6):
            store.add_set(f"p{i}", "professor", [f"a{2 * i}", f"a{2 * i + 1}"])
        store.add_set("root", "root", [f"p{i}" for i in range(6)])
    return sharded, plain


class TestViewSurgery:
    def test_relink_reaches_snapshot_as_delta(self):
        store = large_store()
        manager = enable_columnar(store)
        manager.current()
        rebuilds = manager.full_rebuilds
        store.relink(store.peek("p1"), "a2", True)
        assert not manager.is_fresh()
        snap = manager.current()
        assert snap.full_rebuilds == rebuilds
        rows = snap.gather([snap.row("p1")], "age")
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a2"]
        store.relink(store.peek("p1"), "a1", False)
        snap = manager.current()
        rows = snap.gather([snap.row("p1")], "age")
        assert [snap.oid(r) for r in rows] == ["a2"]
        assert image(snap) == fresh_image(store)

    def test_relink_without_listeners_edits_the_value(self):
        store = small_store()
        store.relink(store.peek("p1"), "a2", True)
        assert store.peek("p1").children() == {"a1", "a2"}
        store.relink(store.peek("p1"), "a1", False)
        assert store.peek("p1").children() == {"a2"}
        assert len(store.log) == 0  # not a basic update

    def test_rewrote_reimages_set_and_atomic_rows(self):
        store = large_store()
        manager = enable_columnar(store)
        manager.current()
        rebuilds = manager.full_rebuilds
        store.peek("p1").value = {"a2", "p2"}
        store.rewrote("p1")
        store.peek("a1").value = 7
        store.rewrote("a1")
        assert not manager.is_fresh()
        snap = manager.current()
        assert snap.full_rebuilds == rebuilds
        rows = snap.gather([snap.row("p1")], None)
        assert sorted(snap.oid(r) for r in rows) == ["a2", "p2"]
        assert snap.atomic_value(snap.row("a1")) == 7
        assert image(snap) == fresh_image(store)

    def test_rewrite_of_removed_object_is_skipped(self):
        store = large_store()
        manager = enable_columnar(store)
        manager.current()
        store.rewrote("a1")
        store.delete_edge("p1", "a1")
        store.remove_object("a1")
        snap = manager.current()
        assert snap.row("a1") is None
        assert image(snap) == fresh_image(store)

    def test_sharded_surgery_reaches_the_parent_shard(self):
        store = ShardedStore(shards=2)
        for oid, label, value in (("a1", "age", 45), ("a2", "age", 30)):
            store.add_atomic(oid, label, value)
        store.add_set("p1", "professor", [])
        manager = enable_columnar(store)
        manager.current()
        store.relink(store.peek("p1"), "a1", True)
        store.relink(store.peek("p1"), "a2", True)
        k = store.shard_of("p1")
        local = manager.shard_snapshots()[k]
        assert not local.is_fresh()
        view = manager.current()
        rows = view.gather([view.row("p1")], "age")
        # Edges to a child on another shard stay outside the stitched
        # snapshot (the border index only records logged edges).
        assert sorted(view.oid(r) for r in rows) == sorted(
            oid for oid in ("a1", "a2") if store.shard_of(oid) == k
        )


    @pytest.mark.parametrize("annotate", [False, True])
    def test_manual_delegate_edits_reach_snapshot(self, annotate):
        store = person_db(tree=True)
        view = MaterializedView(
            ViewDefinition.parse("define mview MVJ as: SELECT ROOT.professor X"),
            store,
            annotate_timestamps=annotate,
        )
        view.load_members(["P1", "P3"])  # P3 is a child of P1
        manager = enable_columnar(store, rebuild_threshold=10.0)
        manager.current()
        for edit in (
            view.swizzle_all,
            lambda: view.refresh("P1"),
            view.strip_base_references,
            view.unswizzle_all,
            view.strip_all_references,
            lambda: view.v_delete("P3"),
            lambda: view.v_insert("P3"),
        ):
            edit()
            snap = manager.current()
            assert image(snap) == fresh_image(store)
        assert manager.full_rebuilds == 1  # every edit replayed as delta


class TestCopyOnWriteFreeze:
    def test_freeze_shares_the_overlay_until_the_next_write(self):
        store = large_store()
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("p1", "a2")
        frozen = manager.freeze()
        assert frozen._patched is manager._patched
        store.delete_edge("p1", "a1")
        manager.current()
        assert frozen._patched is not manager._patched
        p1 = manager.row("p1")
        assert frozen._patched[p1] is not manager._patched[p1]

    def test_frozen_epoch_reads_unchanged_after_refreshes(self):
        store = large_store()
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("p1", "a2")
        store.modify_value("a1", 50)
        frozen = manager.freeze()
        before = image(frozen)
        assert before == fresh_image(store)
        store.delete_edge("p1", "a1")
        store.insert_edge("p2", "a1")
        store.delete_edge("p1", "a2")
        store.remove_object("a2")
        store.add_atomic("a2", "age", 31)
        store.relink(store.peek("p1"), "a2", True)
        store.modify_value("a1", 51)
        snap = manager.current()
        assert manager.full_rebuilds == 1  # all of it was delta replay
        assert image(frozen) == before
        assert image(snap) == fresh_image(store)


class TestSharded:
    def test_stitched_view_sees_border_edges(self):
        sharded, plain = sharded_pair()
        view = enable_columnar(sharded).current()
        ref = enable_columnar(plain).current()
        root_children = sorted(
            view.oid(r) for r in view.gather([view.row("root")], "professor")
        )
        assert root_children == sorted(
            ref.oid(r) for r in ref.gather([ref.row("root")], "professor")
        )

    def test_unstitched_facade_never_serves(self):
        sharded, _plain = sharded_pair()
        manager = enable_columnar(sharded, stitch_borders=False)
        assert manager.current() is None

    def test_view_cached_until_epoch_moves(self):
        sharded, _plain = sharded_pair()
        manager = enable_columnar(sharded)
        view1 = manager.current()
        view2 = manager.current()
        assert view1 is view2
        sharded.insert_edge("p0", "a5")
        view3 = manager.current()
        assert view3 is not view1
        kids = sorted(
            view3.oid(r) for r in view3.gather([view3.row("p0")], "age")
        )
        assert kids == ["a0", "a1", "a5"]

    def test_cross_shard_removal_invalidates_view(self):
        sharded, _plain = sharded_pair()
        manager = enable_columnar(sharded)
        view = manager.current()
        sharded.delete_edge("p2", "a4")
        sharded.remove_object("a4")
        fresh = manager.current()
        assert fresh is not view
        assert fresh.row("a4") is None
        kids = [fresh.oid(r) for r in fresh.gather([fresh.row("p2")], "age")]
        assert kids == ["a5"]

    def test_border_probe_charged_per_border_parent(self):
        sharded, _plain = sharded_pair()
        manager = enable_columnar(sharded)
        view = manager.current()
        before = sharded.counters.border_probes
        view.gather([view.row("root")], "professor")
        after = sharded.counters.border_probes
        assert after - before in (0, 1)  # 1 iff root has cross-shard kids

    def test_global_row_oid_roundtrip(self):
        sharded, _plain = sharded_pair()
        view = enable_columnar(sharded).current()
        for oid in sharded.oids():
            row = view.row(oid)
            assert row is not None
            assert view.oid(row) == oid

    def test_facade_type(self):
        sharded, _plain = sharded_pair()
        assert isinstance(enable_columnar(sharded), ShardedColumnarSnapshot)
