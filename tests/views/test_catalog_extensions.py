"""Tests for the catalog façade over the extension view types."""

import pytest

from repro.errors import ViewError
from repro.gsdb import ObjectStore
from repro.gsdb.updates import Delete, Insert, Modify
from repro.views import AggregateKind
from repro.views.aggregate import AggregateView


class TestDefinePartial:
    def test_depth2_through_catalog(self, person_catalog):
        view = person_catalog.define_partial(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45",
            depth=2,
        )
        assert view.members() == {"P1"}
        assert view.delegate("A1").value == 45
        person_catalog.store.modify_value("A1", 44)
        assert view.delegate("A1").value == 44
        assert view.check_fragments() == []

    def test_membership_maintained(self, person_catalog):
        view = person_catalog.define_partial(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45",
            depth=2,
        )
        person_catalog.store.add_atomic("A2", "age", 40)
        person_catalog.store.insert_edge("P2", "A2")
        assert view.members() == {"P1", "P2"}
        assert "A2" in view.copied_oids()

    def test_external_store(self, person_catalog):
        local = ObjectStore()
        view = person_catalog.define_partial(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45",
            depth=2,
            view_store=local,
        )
        assert "PV.A1" in local
        assert "PV.A1" not in person_catalog.store

    def test_duplicate_name_rejected(self, person_catalog):
        person_catalog.define(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        with pytest.raises(ViewError):
            person_catalog.define_partial(
                "define mview PV as: SELECT ROOT.professor X "
                "WHERE X.age <= 45"
            )


class TestDefineAggregate:
    def test_aggregate_over_catalog_view(self, person_catalog):
        person_catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        agg = person_catalog.define_aggregate(
            "YPSUM", "YP", AggregateKind.SUM
        )
        assert agg.current_value() == 45
        person_catalog.store.add_atomic("A2", "age", 30)
        person_catalog.store.insert_edge("P2", "A2")
        assert agg.current_value() == 75
        assert agg.check()

    def test_fresh_after_apply_batch(self, person_catalog):
        """A batch reaches the aggregate only after its view has been
        maintained, so it matches a recomputation after every batch."""
        catalog = person_catalog
        view = catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        kinds = (AggregateKind.COUNT, AggregateKind.SUM, AggregateKind.MIN)
        aggregates = [
            catalog.define_aggregate(f"YP_{kind.value}", "YP", kind)
            for kind in kinds
        ]
        store = catalog.store
        store.add_atomic("A2", "age", 30)
        store.add_atomic("A5", "age", 44)
        store.add_set("P5", "professor", ["A5"])
        batches = [
            # P2 and P5 join, P1 leaves on its modified age.
            [Insert("P2", "A2"), Insert("ROOT", "P5"), Modify("A1", 45, 50)],
            # P2 leaves, P5's contribution changes, P1 rejoins.
            [Delete("P2", "A2"), Modify("A5", 44, 41), Modify("A1", 50, 42)],
            # Net-zero edge flip plus a folded modify chain.
            [Delete("ROOT", "P5"), Insert("ROOT", "P5"),
             Modify("A5", 41, 43), Modify("A5", 43, 39)],
        ]
        for n, batch in enumerate(batches):
            catalog.apply_batch(batch)
            assert catalog.check("YP").ok
            for kind, aggregate in zip(kinds, aggregates):
                fresh = AggregateView(f"check{n}_{kind.value}", view, kind)
                assert aggregate.current_value() == fresh.current_value()
        assert [a.current_value() for a in aggregates] == [2, 81.0, 39.0]

    def test_unknown_base_view(self, person_catalog):
        with pytest.raises(ViewError):
            person_catalog.define_aggregate(
                "X", "nope", AggregateKind.COUNT
            )


class TestDefineMultipath:
    def test_union_through_catalog(self, person_catalog):
        view = person_catalog.define_multipath(
            "U",
            [
                "define mview U as: SELECT ROOT.professor X "
                "WHERE X.age <= 45",
                "define mview U as: SELECT ROOT.secretary X "
                "WHERE X.age <= 45",
            ],
        )
        assert view.members() == {"P1", "P4"}
        person_catalog.store.delete_edge("ROOT", "P4")
        assert view.members() == {"P1"}
        assert view.check()

    def test_registered_for_queries(self, person_catalog):
        person_catalog.define_multipath(
            "U",
            ["define mview U as: SELECT ROOT.professor X "
             "WHERE X.age <= 45"],
        )
        # The shared view object is a registered scope.
        assert person_catalog.query_oids("SELECT U.? X WITHIN U") == {
            "U.P1"
        }
