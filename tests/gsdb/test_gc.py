"""Tests for garbage collection (paper Section 4.1's deferred piece)."""

import pytest

from repro.gsdb import ObjectStore
from repro.gsdb.gc import catalog_roots, collect_garbage, reachable_from
from repro.gsdb.updates import Modify
from repro.views import ViewCatalog
from repro.workloads import person_db, register_person_database


class TestReachability:
    def test_reachable_from_root(self, person_tree_store):
        alive = reachable_from(person_tree_store, ["ROOT"])
        assert alive == set(person_tree_store.oids())

    def test_detached_subtree_unreachable(self, person_tree_store):
        person_tree_store.delete_edge("ROOT", "P1")
        alive = reachable_from(person_tree_store, ["ROOT"])
        assert "P1" not in alive
        assert "A1" not in alive  # whole subtree
        assert "P2" in alive

    def test_missing_roots_tolerated(self, person_tree_store):
        assert reachable_from(person_tree_store, ["nope"]) == set()


class TestCollect:
    def test_paper_delete_then_collect(self, person_tree_store):
        s = person_tree_store
        s.delete_edge("ROOT", "P1")
        collected = collect_garbage(s, ["ROOT"])
        assert collected == {"P1", "N1", "A1", "S1", "P3", "N3", "A3", "M3"}
        assert "P1" not in s
        assert "P2" in s

    def test_dry_run_removes_nothing(self, person_tree_store):
        s = person_tree_store
        s.delete_edge("ROOT", "P1")
        collected = collect_garbage(s, ["ROOT"], dry_run=True)
        assert "P1" in collected
        assert "P1" in s

    def test_shared_object_survives_one_unlink(self, person_store):
        # Paper's DAG: P3 under both ROOT and P1 — one delete keeps it.
        s = person_store
        s.delete_edge("ROOT", "P3")
        collected = collect_garbage(s, ["ROOT"])
        assert collected == set()
        assert "P3" in s

    def test_nothing_to_collect(self, person_tree_store):
        assert collect_garbage(person_tree_store, ["ROOT"]) == set()

    def test_database_objects_keep_members_alive(self, person_tree_store):
        s = person_tree_store
        s.add_set("KEEP", "database", ["P1"])
        s.delete_edge("ROOT", "P1")
        collected = collect_garbage(s, ["ROOT", "KEEP"])
        # P1's subtree stays: the database still references P1.
        assert "P1" not in collected
        assert "A1" not in collected


class TestCatalogRoots:
    def test_views_and_databases_protected(self):
        catalog = ViewCatalog()
        person_db(catalog.store, tree=True)
        register_person_database(catalog)
        view = catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        catalog.store.delete_edge("ROOT", "P1")
        # P1 left the view too, so only PERSON membership keeps it alive.
        roots = catalog_roots(catalog)
        assert {"PERSON", "YP"} <= roots
        collected = collect_garbage(catalog.store, roots)
        assert collected == set()  # PERSON references everything

        # Drop the PERSON membership edges: now the subtree can go.
        for oid in ("P1", "N1", "A1", "S1", "P3", "N3", "A3", "M3"):
            catalog.registry.remove_member("PERSON", oid)
        collected = collect_garbage(catalog.store, catalog_roots(catalog))
        assert "P1" in collected
        assert "YP" not in collected  # the view object itself survives
        assert catalog.check("YP").ok


class TestColumnarMark:
    def test_view_delegate_joining_by_batch_survives(self):
        # A delegate created by maintenance is linked under its view
        # object outside the update log; the columnar mark must still
        # see that edge, or GC would collect a live delegate.
        catalog = ViewCatalog()
        person_db(catalog.store, tree=True)
        register_person_database(catalog)
        catalog.define(
            "define mview V as: SELECT ROOT.professor X WHERE X.age > 50"
        )
        catalog.enable_columnar().current()
        catalog.apply_batch([Modify("A1", 45, 60)])
        assert catalog.materialized_views["V"].contains("P1")
        roots = catalog_roots(catalog)
        collected = collect_garbage(catalog.store, roots, dry_run=True)
        assert "V.P1" not in collected
        catalog.store.columnar.disable()
        assert collect_garbage(catalog.store, roots, dry_run=True) == collected
