"""The object store: holds OEM objects and applies basic updates.

An :class:`ObjectStore` is the physical home of a collection of objects.
Databases and views (paper Sections 2 and 3) are *objects in* a store,
not stores themselves: a GSDB is a set object whose value lists the OIDs
of the database's members, so one store can hold many databases, views,
and free-standing objects.

The store is the single mutation point.  All changes go through
:meth:`apply` (or the convenience wrappers :meth:`insert_edge`,
:meth:`delete_edge`, :meth:`modify_value`), which validates the update,
applies it, appends it to the update log, and notifies listeners.
Indexes (:mod:`repro.gsdb.indexes`) and source monitors
(:mod:`repro.warehouse.monitor`) are listeners.

Cost accounting: every object lookup charges ``object_reads`` on the
store's :class:`~repro.instrumentation.counters.CostCounters`, scans
charge ``object_scans``, and writes charge ``object_writes``.  Pass a
shared counters instance to meter several stores together.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.errors import (
    DuplicateObjectError,
    InvalidUpdateError,
    TypeMismatchError,
    UnknownObjectError,
)
from repro.gsdb.object import AtomicValue, Object
from repro.gsdb.updates import (
    Delete,
    Insert,
    Modify,
    Update,
    UpdateListener,
    UpdateLog,
)


class ObjectStore:
    """A mutable collection of OEM objects with logged updates.

    Args:
        counters: optional shared cost counters; a private instance is
            created when omitted.
        check_references: when True (default), ``insert`` requires the
            child object to already exist in the store.  Sources that
            ship partially-built subtrees can disable this.
    """

    def __init__(
        self,
        counters: "CostCounters | None" = None,
        *,
        check_references: bool = True,
    ) -> None:
        from repro.instrumentation.counters import CostCounters

        self._objects: dict[str, Object] = {}
        #: Cached sorted OID list for oids()/scan(); rebuilt lazily
        #: after add_object/remove_object instead of on every call.
        self._sorted_oids: list[str] | None = None
        self._listeners: list[UpdateListener] = []
        self._creation_listeners: list[Callable[[Object], None]] = []
        self._removal_listeners: list[Callable[[Object], None]] = []
        self._relink_listeners: list[Callable[[str, str, bool], None]] = []
        self._rewrite_listeners: list[Callable[[str], None]] = []
        self.log = UpdateLog()
        self.counters = counters if counters is not None else CostCounters()
        self.check_references = check_references

    # -- population --------------------------------------------------------

    def add_object(self, obj: Object) -> Object:
        """Register a new object.

        Creating an object is not one of the paper's basic updates (an
        unreferenced object affects no query, Section 4.1), so this does
        not go through the update log; it does notify creation
        listeners so indexes can register edges of pre-built set
        objects.

        Raises:
            DuplicateObjectError: if the OID is already present.
        """
        if obj.oid in self._objects:
            raise DuplicateObjectError(obj.oid)
        self._objects[obj.oid] = obj
        self._sorted_oids = None
        self.counters.object_writes += 1
        for listener in self._creation_listeners:
            listener(obj)
        return obj

    def add_atomic(
        self, oid: str, label: str, value: AtomicValue, type: str | None = None
    ) -> Object:
        """Create and register an atomic object."""
        return self.add_object(Object.atomic(oid, label, value, type))

    def add_set(
        self, oid: str, label: str, children: Iterable[str] = ()
    ) -> Object:
        """Create and register a set object.

        Children must already exist when ``check_references`` is on.
        """
        children = list(children)
        if self.check_references:
            for child in children:
                if child not in self._objects:
                    raise UnknownObjectError(child)
        return self.add_object(Object.set_object(oid, label, children))

    def remove_object(self, oid: str) -> Object:
        """Unregister an object (garbage collection; not a basic update).

        The caller is responsible for having removed incoming edges
        first; :mod:`repro.gsdb.validation` will flag dangling OIDs
        otherwise.
        """
        try:
            obj = self._objects.pop(oid)
        except KeyError:
            raise UnknownObjectError(oid) from None
        self._sorted_oids = None
        self.counters.object_writes += 1
        for listener in self._removal_listeners:
            listener(obj)
        return obj

    # -- lookup -------------------------------------------------------------

    def get(self, oid: str) -> Object:
        """Return the object with *oid*, charging one read.

        Raises:
            UnknownObjectError: if absent.
        """
        self.counters.object_reads += 1
        try:
            return self._objects[oid]
        except KeyError:
            raise UnknownObjectError(oid) from None

    def get_optional(self, oid: str) -> Object | None:
        """Return the object with *oid*, or None, charging one read."""
        self.counters.object_reads += 1
        return self._objects.get(oid)

    def peek(self, oid: str) -> Object | None:
        """Uncharged lookup for internal bookkeeping (index upkeep),
        so metadata maintenance does not skew base-access metrics."""
        return self._objects.get(oid)

    def __contains__(self, oid: str) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def _sorted_order(self) -> list[str]:
        """The sorted OID list, re-sorted only after membership changed.

        Callers iterate the returned list directly; because
        ``add_object``/``remove_object`` *replace* the cache (set it to
        None) rather than mutating the list, in-flight iterators keep
        the snapshot they started with — same semantics as the old
        sort-per-call implementation.
        """
        if self._sorted_oids is None:
            self._sorted_oids = sorted(self._objects)
        return self._sorted_oids

    def oids(self) -> Iterator[str]:
        """Iterate all OIDs in sorted (deterministic) order."""
        return iter(self._sorted_order())

    def scan(self) -> Iterator[Object]:
        """Iterate all objects in sorted OID order, charging scans.

        This models the expensive full-database pass the paper contrasts
        with index-assisted access (Section 4.4).
        """
        for oid in self._sorted_order():
            self.counters.object_scans += 1
            yield self._objects[oid]

    def label(self, oid: str) -> str:
        """Shorthand for ``label(O)`` from the paper."""
        return self.get(oid).label

    def value(self, oid: str):
        """Shorthand for ``value(O)`` from the paper."""
        obj = self.get(oid)
        return set(obj.value) if obj.is_set else obj.value

    # -- listeners ----------------------------------------------------------

    def subscribe(self, listener: UpdateListener) -> None:
        """Register a callback invoked after each applied update."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: UpdateListener) -> None:
        self._listeners.remove(listener)

    def subscribe_creations(self, listener: Callable[[Object], None]) -> None:
        """Register a callback invoked after each ``add_object``."""
        self._creation_listeners.append(listener)

    def subscribe_removals(self, listener: Callable[[Object], None]) -> None:
        """Register a callback invoked after each ``remove_object``.

        Creations and removals bypass the update log (they are not basic
        updates, Section 4.1), so derived structures that track store
        membership — e.g. the columnar snapshot — need this hook to stay
        sound; log position alone cannot witness them.
        """
        self._removal_listeners.append(listener)

    def subscribe_relinks(
        self, listener: Callable[[str, str, bool], None]
    ) -> None:
        """Register ``listener(parent, child, linked)``, invoked after
        each :meth:`relink`, in order with creations and removals."""
        self._relink_listeners.append(listener)

    def subscribe_rewrites(self, listener: Callable[[str], None]) -> None:
        """Register ``listener(oid)``, invoked by :meth:`rewrote`."""
        self._rewrite_listeners.append(listener)

    # -- view surgery (outside the update log) --------------------------------

    def relink(self, parent: Object, child: str, linked: bool) -> None:
        """Add (*linked*) or drop *child* in set object *parent*'s value.

        The edge edits a view makes to its own objects (``V_insert`` /
        ``V_delete`` of Section 4.3, swizzling, annotation) are not
        basic updates on the base data, so they bypass the update log
        and its listeners, as creations do; relink listeners see them
        instead, in order.  *parent* is the object itself (views hold
        their view objects), so the edit is O(1) with no lookup.
        """
        if linked:
            parent.children().add(child)
        else:
            parent.children().discard(child)
        if self._relink_listeners:
            for listener in self._relink_listeners:
                listener(parent.oid, child, linked)

    def rewrote(self, oid: str) -> None:
        """Announce that the caller replaced *oid*'s value wholesale
        (a delegate refresh, a virtual view's re-evaluation, an
        aggregate's publication): derived images re-read it."""
        if self._rewrite_listeners:
            for listener in self._rewrite_listeners:
                listener(oid)

    # -- basic updates (paper Section 4.1) -----------------------------------

    def apply(self, update: Update) -> None:
        """Validate and apply a basic update, then log and notify.

        Raises:
            InvalidUpdateError: when the update does not apply (missing
                objects, wrong object kind, absent/duplicate edge, or a
                ``modify`` whose old value disagrees with the store).
        """
        if isinstance(update, Insert):
            self._apply_insert(update)
        elif isinstance(update, Delete):
            self._apply_delete(update)
        elif isinstance(update, Modify):
            self._apply_modify(update)
        else:  # pragma: no cover - defensive
            raise InvalidUpdateError(f"unknown update type: {update!r}")
        self.log.append(update)
        for listener in self._listeners:
            listener(update)

    def apply_all(self, updates: Iterable[Update]) -> int:
        """Apply a sequence of updates; return how many were applied."""
        count = 0
        for update in updates:
            self.apply(update)
            count += 1
        return count

    def insert_edge(self, parent: str, child: str) -> Insert:
        """Apply and return ``insert(parent, child)``."""
        update = Insert(parent, child)
        self.apply(update)
        return update

    def delete_edge(self, parent: str, child: str) -> Delete:
        """Apply and return ``delete(parent, child)``."""
        update = Delete(parent, child)
        self.apply(update)
        return update

    def modify_value(self, oid: str, new_value: AtomicValue) -> Modify:
        """Apply and return ``modify(oid, current, new_value)``."""
        obj = self.get(oid)
        if obj.is_set:
            raise InvalidUpdateError(
                f"modify target {oid!r} is a set object"
            )
        update = Modify(oid, obj.atomic_value(), new_value)
        self.apply(update)
        return update

    # -- internal update application -----------------------------------------

    def _require(self, oid: str) -> Object:
        try:
            return self._objects[oid]
        except KeyError:
            raise InvalidUpdateError(f"unknown object: {oid!r}") from None

    def _apply_insert(self, update: Insert) -> None:
        parent = self._require(update.parent)
        if not parent.is_set:
            raise InvalidUpdateError(
                f"insert parent {update.parent!r} is not a set object"
            )
        if self.check_references and update.child not in self._objects:
            raise InvalidUpdateError(
                f"insert child {update.child!r} does not exist"
            )
        if update.child in parent.children():
            raise InvalidUpdateError(
                f"edge {update.parent!r} -> {update.child!r} already exists"
            )
        parent.children().add(update.child)
        self.counters.object_writes += 1

    def _apply_delete(self, update: Delete) -> None:
        parent = self._require(update.parent)
        if not parent.is_set:
            raise InvalidUpdateError(
                f"delete parent {update.parent!r} is not a set object"
            )
        if update.child not in parent.children():
            raise InvalidUpdateError(
                f"edge {update.parent!r} -> {update.child!r} does not exist"
            )
        parent.children().discard(update.child)
        self.counters.object_writes += 1

    def _apply_modify(self, update: Modify) -> None:
        obj = self._require(update.oid)
        if obj.is_set:
            raise InvalidUpdateError(
                f"modify target {update.oid!r} is a set object"
            )
        if obj.value != update.old_value:
            raise InvalidUpdateError(
                f"modify({update.oid!r}): expected old value "
                f"{update.old_value!r}, store has {obj.value!r}"
            )
        obj.value = update.new_value
        self.counters.object_writes += 1

    # -- bulk helpers ---------------------------------------------------------

    def add_tree(
        self, spec: "TreeSpec", *, parent: str | None = None
    ) -> str:
        """Register a nested tree of objects given as plain tuples.

        ``spec`` is ``(oid, label, value)`` where *value* is either an
        atomic Python value or a list of child specs.  Returns the root
        OID.  Children are added before parents so reference checking
        passes.  If *parent* is given, an ``insert`` edge from it to the
        new root is applied through the normal update path.
        """
        oid, label, value = spec
        if isinstance(value, list):
            child_oids = [self.add_tree(child) for child in value]
            self.add_set(oid, label, child_oids)
        else:
            self.add_atomic(oid, label, value)
        if parent is not None:
            self.insert_edge(parent, oid)
        return oid

    def copy_into(self, other: "ObjectStore", oids: Iterable[str]) -> None:
        """Copy the given objects (by value) into *other* store."""
        for oid in oids:
            other.add_object(self.get(oid).copy())


#: Nested tuple shape accepted by :meth:`ObjectStore.add_tree`.
TreeSpec = tuple[str, str, object]
