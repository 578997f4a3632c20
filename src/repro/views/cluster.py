"""View clusters: several views sharing one delegate per base object.

Paper Section 3.2 (end): "if a remote site defines several views that
share common objects, it may end up with multiple delegates for the
same base object.  The notion of a *view cluster* avoids this, by
making all views in a cluster share delegates."

A :class:`ViewCluster` owns a pool of reference-counted shared
delegates with OIDs ``<cluster>.<base>``; each
:class:`ClusterMemberView` is a view object whose value points into the
shared pool.  Member views expose the same surface as
:class:`~repro.views.materialized.MaterializedView` (``v_insert``,
``v_delete``, ``refresh``, ``contains``, ``members``, ...), so the
ordinary maintainers drive them unchanged (duck typing).

Swizzling and timestamping are not supported on clustered views — a
shared delegate cannot be swizzled per-view.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ViewError
from repro.gsdb.object import Object
from repro.gsdb.oid import delegate_oid
from repro.gsdb.store import ObjectStore
from repro.views.definition import ViewDefinition
from repro.views.materialized import VIEW_LABEL

#: Label of the cluster's bookkeeping object.
CLUSTER_LABEL = "view_cluster"


class ViewCluster:
    """A pool of shared, reference-counted delegates."""

    def __init__(
        self,
        cluster_oid: str,
        base_store: ObjectStore,
        view_store: ObjectStore | None = None,
    ) -> None:
        self.oid = cluster_oid
        self.base_store = base_store
        self.view_store = view_store if view_store is not None else base_store
        self._refcounts: dict[str, int] = {}
        self.views: dict[str, "ClusterMemberView"] = {}
        self.cluster_object = Object.set_object(cluster_oid, CLUSTER_LABEL)
        previous = self.view_store.check_references
        self.view_store.check_references = False
        try:
            self.view_store.add_object(self.cluster_object)
        finally:
            self.view_store.check_references = previous

    # -- delegate pool ------------------------------------------------------

    def delegate_oid(self, base_oid: str) -> str:
        return delegate_oid(self.oid, base_oid)

    def refcount(self, base_oid: str) -> int:
        return self._refcounts.get(base_oid, 0)

    def acquire(self, base_oid: str) -> str:
        """Take a reference on *base_oid*'s shared delegate, creating it
        on the first reference.  Returns the delegate OID."""
        doid = self.delegate_oid(base_oid)
        count = self._refcounts.get(base_oid, 0)
        if count == 0:
            base = self.base_store.get(base_oid)
            previous = self.view_store.check_references
            self.view_store.check_references = False
            try:
                if doid in self.view_store:
                    self.view_store.remove_object(doid)
                self.view_store.add_object(base.copy(oid=doid))
            finally:
                self.view_store.check_references = previous
            self.view_store.relink(self.cluster_object, doid, True)
            self.view_store.counters.delegates_inserted += 1
        self._refcounts[base_oid] = count + 1
        return doid

    def release(self, base_oid: str) -> None:
        """Drop a reference; the delegate is collected at zero."""
        count = self._refcounts.get(base_oid, 0)
        if count <= 0:
            raise ViewError(
                f"release of unreferenced delegate for {base_oid!r}"
            )
        if count == 1:
            del self._refcounts[base_oid]
            doid = self.delegate_oid(base_oid)
            self.view_store.relink(self.cluster_object, doid, False)
            if doid in self.view_store:
                self.view_store.remove_object(doid)
            self.view_store.counters.delegates_deleted += 1
        else:
            self._refcounts[base_oid] = count - 1

    def refresh_delegate(self, base_oid: str) -> None:
        if self._refcounts.get(base_oid, 0) == 0:
            return
        base = self.base_store.get(base_oid)
        delegate = self.view_store.get_optional(self.delegate_oid(base_oid))
        if delegate is None:  # pragma: no cover - defensive
            raise ViewError(f"missing shared delegate for {base_oid!r}")
        delegate.value = (
            set(base.children()) if base.is_set else base.atomic_value()
        )
        delegate.label = base.label
        delegate.type = base.type
        self.view_store.rewrote(delegate.oid)
        self.view_store.counters.delegates_refreshed += 1

    def shared_delegates(self) -> set[str]:
        return set(self.cluster_object.children())

    def add_view(self, definition: ViewDefinition) -> "ClusterMemberView":
        """Create a member view in this cluster."""
        if definition.name in self.views:
            raise ViewError(f"view {definition.name!r} already in cluster")
        view = ClusterMemberView(definition, self)
        self.views[definition.name] = view
        return view


class ClusterMemberView:
    """One view inside a cluster — MaterializedView-compatible surface."""

    def __init__(self, definition: ViewDefinition, cluster: ViewCluster) -> None:
        self.definition = definition
        self.cluster = cluster
        self.base_store = cluster.base_store
        self.view_store = cluster.view_store
        self._members: set[str] = set()
        self.view_object = Object.set_object(definition.name, VIEW_LABEL)
        previous = self.view_store.check_references
        self.view_store.check_references = False
        try:
            self.view_store.add_object(self.view_object)
        finally:
            self.view_store.check_references = previous

    @property
    def oid(self) -> str:
        return self.definition.name

    def delegate_oid(self, base_oid: str) -> str:
        """Clustered views share the cluster's delegate namespace."""
        return self.cluster.delegate_oid(base_oid)

    def members(self) -> set[str]:
        return set(self._members)

    def contains(self, base_oid: str) -> bool:
        return base_oid in self._members

    def members_in(self, oids: Iterable[str]) -> list[str]:
        return sorted(self._members.intersection(oids))

    def delegates(self) -> set[str]:
        return set(self.view_object.children())

    def delegate(self, base_oid: str) -> Object | None:
        if base_oid not in self._members:
            return None
        return self.view_store.get_optional(self.delegate_oid(base_oid))

    def __len__(self) -> int:
        return len(self._members)

    # -- MaterializedView-compatible mutators --------------------------------

    def v_insert(self, base_oid: str) -> bool:
        if base_oid in self._members:
            self.refresh(base_oid)
            return False
        doid = self.cluster.acquire(base_oid)
        self._members.add(base_oid)
        self.view_store.relink(self.view_object, doid, True)
        return True

    def v_delete(self, base_oid: str) -> bool:
        if base_oid not in self._members:
            return False
        self._members.discard(base_oid)
        self.view_store.relink(
            self.view_object, self.delegate_oid(base_oid), False
        )
        self.cluster.release(base_oid)
        return True

    def refresh(self, base_oid: str) -> bool:
        if base_oid not in self._members:
            return False
        self.cluster.refresh_delegate(base_oid)
        return True

    def clear(self) -> None:
        for base_oid in sorted(self._members):
            self.v_delete(base_oid)

    def load_members(self, base_oids) -> None:
        for base_oid in sorted(base_oids):
            self.v_insert(base_oid)

    # -- consistency-checker hooks --------------------------------------------

    def expected_delegate_value(self, base_oid: str) -> object:
        base = self.base_store.get(base_oid)
        if base.is_set:
            return set(base.children())
        return base.atomic_value()

    def annotation_oids(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return (
            f"ClusterMemberView({self.oid!r}, cluster={self.cluster.oid!r}, "
            f"members={len(self._members)})"
        )
