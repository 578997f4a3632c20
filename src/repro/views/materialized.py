"""Materialized views: delegates, semantic OIDs, swizzling, and edits.

Paper Section 3.2.  A materialized view stores a *delegate* — a real
object with the same label, type and value — for every base object in
the view, under the semantic OID ``<view>.<base>`` (Figure 3).  The
materialized view is itself an ordinary GSDB object
``<MV, mview, set, value(MV)>`` whose value holds the delegate OIDs, so
it can be queried, scoped, and used to define further views.

Three optional behaviours from the paper are implemented:

* **Swizzling** — rewriting base OIDs inside delegate values to the
  OIDs of their delegates when those exist in the same view.  Useful
  when the view lives at a remote site or is queried ``WITHIN MV``.
* **Reference stripping** — after swizzling, removing remaining base
  OIDs so queries through the view can never "lead access" back to base
  data (the access-control edit discussed in Section 3.2).
* **Timestamp annotation** — attaching a ``timestamp`` subobject to each
  delegate recording when it was inserted or refreshed, an auxiliary-
  information edit the paper suggests.  Annotations use OIDs under the
  view prefix and are ignored by the consistency checker.
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro.errors import ViewError
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.object import Object
from repro.gsdb.oid import delegate_oid
from repro.gsdb.store import ObjectStore
from repro.views.definition import ViewDefinition

#: Label of the view object itself (paper Figure 3 shows ``<MVJ, view>``).
VIEW_LABEL = "mview"
#: Label of timestamp annotation objects.
TIMESTAMP_LABEL = "timestamp"


class SwizzleMode(enum.Enum):
    """When edge swizzling happens."""

    NONE = "none"  # delegate values keep base OIDs (paper's default)
    EAGER = "eager"  # values are swizzled on insert/refresh


class MaterializedView:
    """The stored copy of a view, with its delegate bookkeeping.

    Args:
        definition: the view definition (used for identity/reporting;
            evaluation is the maintainers' job).
        base_store: where the original objects live.
        view_store: where delegates live — may be the same store
            (centralized case, Section 4) or a separate one (warehouse,
            Section 5).
        registry: optional registry of the *view* store in which to
            register the view under its name, enabling queries like
            ``SELECT MVJ.professor.student WITHIN MVJ``.
        swizzle: edge-swizzling mode.
        annotate_timestamps: attach ``timestamp`` subobjects to
            delegates on insert/refresh (logical clock).
    """

    def __init__(
        self,
        definition: ViewDefinition,
        base_store: ObjectStore,
        view_store: ObjectStore | None = None,
        *,
        registry: DatabaseRegistry | None = None,
        swizzle: SwizzleMode = SwizzleMode.NONE,
        annotate_timestamps: bool = False,
    ) -> None:
        self.definition = definition
        self.base_store = base_store
        self.view_store = view_store if view_store is not None else base_store
        self.swizzle = swizzle
        self.annotate_timestamps = annotate_timestamps
        self._clock = 0
        self._members: set[str] = set()  # base OIDs currently in the view

        self.view_object = Object.set_object(definition.name, VIEW_LABEL)
        previous = self.view_store.check_references
        self.view_store.check_references = False
        try:
            self.view_store.add_object(self.view_object)
        finally:
            self.view_store.check_references = previous
        if registry is not None:
            registry.register(definition.name, definition.name)

    # -- identity ------------------------------------------------------------

    @property
    def oid(self) -> str:
        """The view object's OID (= the view's name)."""
        return self.definition.name

    def delegate_oid(self, base_oid: str) -> str:
        """Semantic OID of *base_oid*'s delegate (``MVJ.P1``)."""
        return delegate_oid(self.oid, base_oid)

    def timestamp_oid(self, base_oid: str) -> str:
        """OID of the timestamp annotation of a delegate."""
        return delegate_oid(self.oid, f"__ts__.{base_oid}")

    # -- membership ------------------------------------------------------------

    def members(self) -> set[str]:
        """Base OIDs whose delegates are currently in the view."""
        return set(self._members)

    def contains(self, base_oid: str) -> bool:
        return base_oid in self._members

    def members_in(self, oids: Iterable[str]) -> list[str]:
        """The members among *oids*, sorted: one set intersection
        instead of a :meth:`contains` probe per OID."""
        return sorted(self._members.intersection(oids))

    def delegates(self) -> set[str]:
        """OIDs of all delegate objects (the view object's value)."""
        return set(self.view_object.children())

    def delegate(self, base_oid: str) -> Object | None:
        """The delegate object for *base_oid*, or None."""
        if base_oid not in self._members:
            return None
        return self.view_store.get_optional(self.delegate_oid(base_oid))

    def __len__(self) -> int:
        return len(self._members)

    # -- V_insert / V_delete (paper Section 4.3 definitions) --------------------

    def v_insert(self, base_oid: str) -> bool:
        """The paper's ``V_insert(MV, MV.Y)``.

        Creates the delegate of *base_oid* (copying label, type, value)
        and adds it to the view object's value.  Per the paper, an
        insert of an existing child "will be ignored" — but we refresh
        the stored value so delegates stay true copies (a documented
        extension; see DESIGN.md).  Returns True when a new delegate was
        created.
        """
        if base_oid in self._members:
            self.refresh(base_oid)
            return False
        base = self.base_store.get(base_oid)
        doid = self.delegate_oid(base_oid)
        copy = base.copy(oid=doid)
        previous = self.view_store.check_references
        self.view_store.check_references = False
        try:
            if doid in self.view_store:
                self.view_store.remove_object(doid)  # stale leftover
            self.view_store.add_object(copy)
        finally:
            self.view_store.check_references = previous
        self._members.add(base_oid)
        self.view_store.relink(self.view_object, doid, True)
        self.view_store.counters.delegates_inserted += 1
        if self.swizzle is SwizzleMode.EAGER:
            self._swizzle_delegate(base_oid)
            self._reswizzle_referrers(base_oid)
        if self.annotate_timestamps:
            self._stamp(base_oid)
        return True

    def v_delete(self, base_oid: str) -> bool:
        """The paper's ``V_delete(MV, MV.Y)``.

        Removes the delegate from the view object's value and garbage
        collects the delegate object.  "If VN2 is not a child of VN1,
        then nothing happens" — returns False in that case.
        """
        if base_oid not in self._members:
            return False
        doid = self.delegate_oid(base_oid)
        self._members.discard(base_oid)
        self.view_store.relink(self.view_object, doid, False)
        if doid in self.view_store:
            self.view_store.remove_object(doid)
        ts_oid = self.timestamp_oid(base_oid)
        if ts_oid in self.view_store:
            self.view_store.remove_object(ts_oid)
        self.view_store.counters.delegates_deleted += 1
        if self.swizzle is SwizzleMode.EAGER:
            self._unswizzle_referrers(base_oid)
        return True

    def refresh(self, base_oid: str) -> bool:
        """Re-copy the base object's current value into its delegate.

        Needed when a member's value changed but its membership did not
        (e.g. ``modify`` on an atomic member, or ``insert``/``delete``
        on a set member's children).  Returns False for non-members.
        """
        if base_oid not in self._members:
            return False
        base = self.base_store.get(base_oid)
        doid = self.delegate_oid(base_oid)
        delegate = self.view_store.get_optional(doid)
        if delegate is None:  # pragma: no cover - defensive
            raise ViewError(f"missing delegate object {doid!r}")
        if base.is_set:
            delegate.value = set(base.children())
        else:
            delegate.value = base.atomic_value()
        delegate.label = base.label
        delegate.type = base.type
        self.view_store.rewrote(doid)
        self.view_store.counters.delegates_refreshed += 1
        if self.swizzle is SwizzleMode.EAGER:
            self._swizzle_delegate(base_oid)
        if self.annotate_timestamps:
            self._stamp(base_oid)
        return True

    def clear(self) -> None:
        """Remove every delegate (used before full recomputation)."""
        for base_oid in sorted(self._members):
            self.v_delete(base_oid)

    # -- swizzling (paper Section 3.2) ---------------------------------------------

    def swizzle_all(self) -> int:
        """Swizzle every delegate's value; returns edges rewritten.

        After this call the view keeps swizzling eagerly so maintenance
        preserves the property.
        """
        self.swizzle = SwizzleMode.EAGER
        rewritten = 0
        for base_oid in sorted(self._members):
            rewritten += self._swizzle_delegate(base_oid)
        return rewritten

    def unswizzle_all(self) -> int:
        """Rewrite delegate-OID references back to base OIDs."""
        self.swizzle = SwizzleMode.NONE
        rewritten = 0
        prefix = self.oid + "."
        for base_oid in sorted(self._members):
            delegate = self.delegate(base_oid)
            if delegate is None or not delegate.is_set:
                continue
            swizzled = sorted(
                c for c in delegate.children() if c.startswith(prefix)
            )
            for child in swizzled:
                self._retarget(delegate, child, child[len(prefix):])
                rewritten += 1
        return rewritten

    def strip_base_references(self) -> int:
        """The access-control edit: drop un-swizzled base OIDs from
        delegate values so the view cannot lead back to base data.

        Only meaningful after :meth:`swizzle_all`.  Returns the number
        of references removed.  Note: after stripping, delegate values
        no longer equal their originals — the view is *edited* and the
        consistency checker must be told (paper Section 3.2 warns about
        exactly this).
        """
        removed = 0
        prefix = self.oid + "."
        for base_oid in sorted(self._members):
            delegate = self.delegate(base_oid)
            if delegate is None or not delegate.is_set:
                continue
            base_refs = sorted(
                c for c in delegate.children() if not c.startswith(prefix)
            )
            for ref in base_refs:
                self.view_store.relink(delegate, ref, False)
                removed += 1
        return removed

    def strip_all_references(self) -> int:
        """The fully-hidden edge policy: empty every delegate's value.

        Together with :meth:`swizzle_all` + :meth:`strip_base_references`
        (edges visible among members only) and the default (all edges
        visible, as copied), this answers the paper's first Section 6
        open issue — "views whose edges (relationships) can be
        explicitly shown or hidden" — as a spectrum of manual edits:

        ========================  =========================================
        policy                    how
        ========================  =========================================
        show all edges            default delegate values (copies)
        show member edges only    ``swizzle_all(); strip_base_references()``
        hide all edges            ``strip_all_references()``
        ========================  =========================================

        Like every manual edit, hidden-edge views no longer pass value
        checking (use ``check_consistency(..., check_values=False)``).
        Returns the number of references removed.
        """
        removed = 0
        for base_oid in sorted(self._members):
            delegate = self.delegate(base_oid)
            if delegate is None or not delegate.is_set:
                continue
            removed += len(delegate.children())
            delegate.children().clear()
            self.view_store.rewrote(delegate.oid)
        return removed

    def _swizzle_delegate(self, base_oid: str) -> int:
        delegate = self.delegate(base_oid)
        if delegate is None or not delegate.is_set:
            return 0
        rewritten = 0
        ts_oid = self.timestamp_oid(base_oid)
        for child in sorted(delegate.children()):
            if child == ts_oid or child.startswith(self.oid + "."):
                continue
            if child in self._members:
                self._retarget(delegate, child, self.delegate_oid(child))
                rewritten += 1
        return rewritten

    def _retarget(self, delegate: Object, old: str, new: str) -> None:
        """Point *delegate*'s edge to *old* at *new* instead."""
        self.view_store.relink(delegate, old, False)
        self.view_store.relink(delegate, new, True)

    def _reswizzle_referrers(self, new_member: str) -> None:
        """A new member appeared: swizzle references to it elsewhere."""
        for base_oid in sorted(self._members):
            if base_oid == new_member:
                continue
            delegate = self.delegate(base_oid)
            if delegate is None or not delegate.is_set:
                continue
            if new_member in delegate.children():
                self._retarget(
                    delegate, new_member, self.delegate_oid(new_member)
                )

    def _unswizzle_referrers(self, gone_member: str) -> None:
        """A member left: references to its delegate revert to base."""
        gone_doid = self.delegate_oid(gone_member)
        for base_oid in sorted(self._members):
            delegate = self.delegate(base_oid)
            if delegate is None or not delegate.is_set:
                continue
            if gone_doid in delegate.children():
                self._retarget(delegate, gone_doid, gone_member)

    # -- timestamp annotation ----------------------------------------------------------

    def _stamp(self, base_oid: str) -> None:
        delegate = self.delegate(base_oid)
        if delegate is None or not delegate.is_set:
            return  # the paper suggests stamping set objects
        self._clock += 1
        ts_oid = self.timestamp_oid(base_oid)
        existing = self.view_store.get_optional(ts_oid)
        if existing is not None:
            existing.value = self._clock
            self.view_store.rewrote(ts_oid)
        else:
            previous = self.view_store.check_references
            self.view_store.check_references = False
            try:
                self.view_store.add_atomic(ts_oid, TIMESTAMP_LABEL, self._clock)
            finally:
                self.view_store.check_references = previous
        self.view_store.relink(delegate, ts_oid, True)

    def annotation_oids(self) -> set[str]:
        """All annotation OIDs (ignored by consistency checking)."""
        return {
            self.timestamp_oid(base_oid)
            for base_oid in self._members
            if self.timestamp_oid(base_oid) in self.view_store
        }

    # -- misc --------------------------------------------------------------------------

    def expected_delegate_value(self, base_oid: str) -> object:
        """What the delegate's value *should* be given the base object,
        the swizzle mode, and annotations — used by the consistency
        checker."""
        base = self.base_store.get(base_oid)
        if not base.is_set:
            return base.atomic_value()
        expected = set(base.children())
        if self.swizzle is SwizzleMode.EAGER:
            expected = {
                self.delegate_oid(c) if c in self._members else c
                for c in expected
            }
        return expected

    def load_members(self, base_oids: Iterable[str]) -> None:
        """Bulk-insert delegates for an initial population."""
        for base_oid in sorted(base_oids):
            self.v_insert(base_oid)

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.oid!r}, members={len(self._members)}, "
            f"swizzle={self.swizzle.value})"
        )
