"""Virtual views (paper Section 3.1).

A virtual view is "the result of a query": an object ``<V, view, set,
value(V)>`` whose value is the defining query's answer.  Virtual views
are not stored copies — each evaluation reflects the current base state
— but the view *object* can be registered as a database so follow-on
queries can use it as an entry point or scope (``ANS INT VJ``), exactly
as the paper's Examples 3 and 3.3–3.4 do.
"""

from __future__ import annotations

from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.views.definition import ViewDefinition
from repro.views.recompute import compute_view_members

#: Label of virtual view objects (Example 3 uses ``view``).
VIRTUAL_VIEW_LABEL = "view"


class VirtualView:
    """A named virtual view over a base store.

    The view object is created in the base store (virtual views have no
    separate storage) and registered in the registry under the view's
    name.  :meth:`refresh` re-evaluates the definition; queries that use
    the view should refresh first (or use a
    :class:`~repro.views.catalog.ViewCatalog`, which refreshes
    automatically).
    """

    def __init__(
        self,
        definition: ViewDefinition,
        registry: DatabaseRegistry,
        *,
        auto_refresh: bool = True,
    ) -> None:
        self.definition = definition
        self.registry = registry
        self.store: ObjectStore = registry.store
        self.view_object = Object.set_object(
            definition.name, VIRTUAL_VIEW_LABEL
        )
        previous = self.store.check_references
        self.store.check_references = False
        try:
            self.store.add_object(self.view_object)
        finally:
            self.store.check_references = previous
        registry.register(definition.name, definition.name)
        if auto_refresh:
            self.refresh()

    @property
    def oid(self) -> str:
        return self.definition.name

    def refresh(self) -> set[str]:
        """Re-evaluate the definition and update ``value(V)``.

        Returns the new member set.
        """
        members = compute_view_members(
            self.definition, self.store, registry=self.registry
        )
        if members != self.view_object.value:
            self.view_object.value = set(members)
            self.store.rewrote(self.oid)
        return members

    def members(self) -> set[str]:
        """Current ``value(V)`` (as of the last refresh)."""
        return set(self.view_object.children())

    def contains(self, oid: str) -> bool:
        return oid in self.view_object.children()

    def __len__(self) -> int:
        return len(self.view_object.children())

    def __repr__(self) -> str:
        return f"VirtualView({self.oid!r}, members={len(self)})"
