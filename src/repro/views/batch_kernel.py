"""Set-at-a-time batch maintenance over columnar deltas.

The interpreted write path (:meth:`~repro.views.dispatcher.
MaintenanceDispatcher._dispatch`) walks a coalesced batch update-major:
for every update, every registered view re-asks its screen, and every
screen that needs ``path(ROOT, N1)`` walks the ParentIndex chain — a
per-update, per-view interpreter loop.  This module is the vectorized
twin, in the style of discrimination networks (Rete; the GDN-based IVM
of PAPERS.md): the whole batch is screened against *all* views in one
pass, and root chains come from one CSR sweep per view root over the
PR 5 columnar snapshot instead of per-update upward walks.

Pipeline (:func:`kernel_dispatch`):

1. **Frames** — the batch becomes one or more columnar
   :class:`~repro.gsdb.delta.DeltaFrame` s (per-shard under a
   :class:`~repro.views.parallel.ParallelDispatcher`, global intake
   positions preserved).  Label gates are evaluated as shared bitmasks:
   one ``batch_screens`` charge per distinct (op kind, label signature)
   per frame, however many views share the gate.
2. **Regions** — one :class:`RootRegion` per distinct view root: a
   downward BFS over the snapshot with predecessor tracking.  Chains
   and root paths for the batch's touched OIDs are then reconstructed
   from the predecessor column instead of per-update ParentIndex
   walks.  When every screen on a root tests against a concrete select
   path (all :class:`~repro.views.dispatcher._SimpleScreen`), the BFS
   descends only through the union of those paths' labels — off-path
   subtrees cannot change any verdict (see :class:`RootRegion`), so
   the sweep's cost tracks the views, not the database.  A region that
   reaches any row twice is *not a tree*; the whole batch falls back
   to the interpreted dispatcher (charging
   ``batch_kernel_fallbacks``), which reproduces the interpreted
   semantics exactly, multi-parent errors included.
3. **Screens** — per (frame, view) verdicts replicating
   :class:`~repro.views.dispatcher._SimpleScreen` /
   :class:`~repro.views.dispatcher._ExtendedScreen` decision-for-
   decision (contains first, then the label mask, then the batched-
   delete gate, then the region path/chain test).  All verdicts are
   computed *before* any apply — the same precompute the parallel
   dispatcher's screening phase runs — so ``view.contains`` reads the
   pre-batch extent.  Against the serial interpreted dispatcher (which
   interleaves screening with apply) a membership-refresh verdict can
   conservatively differ where an earlier update in the same batch
   changed a view's membership; such differences never change an
   extent, because the refresh they gate re-reads the same frozen
   final base (the PR 4 parallel-dispatch argument, verbatim).
4. **Subtrees** — each batched delete needs the deleted child's
   final-state subtree for the maintainers' complete member purge;
   the kernel computes it once per distinct child with
   :func:`~repro.paths.kernel.reachable_on_snapshot` and shares it
   across all views through :meth:`~repro.views.dispatcher.
   PathContext.descendants_of` (the interpreted path walks it once
   per batch on first use).
5. **Apply** — membership deltas apply set-at-a-time *per view*: for
   each view, its relevant updates run through the unchanged
   ``maintainer.handle(update, context)`` in intake order.

Soundness of the view-major apply (DESIGN.md S13): dispatch happens
only after the whole batch is applied, so every handler reads the same
frozen final base state; a maintainer writes only its own view (view
mutations emit no store updates); and each view still sees *its*
relevant updates in intake order.  Screening verdicts are precomputed
against that same final state — the PR 4 parallel dispatcher already
relies on exactly this — so reordering across views cannot change any
verdict, any membership decision, or any final delegate value
(``v_insert`` refreshes existing members to current base values).
View extents are therefore byte-identical to the interpreted
dispatcher's; logical charges are reported in the columnar currency
(``delta_rows_scanned`` / ``snapshot_rows_scanned``) instead of base
accesses — experiment E19 shows both.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.gsdb.delta import DeltaFrame, iter_bits
from repro.gsdb.updates import Update
from repro.paths.kernel import reachable_on_snapshot
from repro.paths.path import Path


class RootRegion:
    """Downward reachability from one view root, with predecessors.

    One BFS per batch per distinct root: every row reachable from
    *root* gets its predecessor row recorded, so ``path(root, oid)`` /
    ``chain(root, oid)`` for any touched OID is a cached upward read of
    the predecessor column (charged ``delta_rows_scanned`` per
    reconstructed chain row) — no ParentIndex walk.

    ``valid`` turns False when some row is reached twice (two in-region
    parents, or a cycle): the region is not a tree and chain
    reconstruction would be ambiguous, so callers must fall back to the
    interpreted dispatcher.

    ``allowed_labels`` restricts the sweep to the labels that can
    appear on some registered select path rooted here: a child whose
    label continues *no* view's path is counted for duplicate detection
    but not descended into, so the region's size tracks the views'
    paths instead of the whole database under the root.  Sound only
    when every screen on this root resolves paths against its full
    select path (:class:`~repro.views.dispatcher._SimpleScreen`): a
    pruned OID answers ``path() is None``, and the interpreted screen
    returns the same False for it — its true path carries the off-path
    label that pruned it, so ``strip_prefix`` (edge) or the exact path
    comparison (modify) must fail.  Reachability screens
    (:class:`~repro.views.dispatcher._ExtendedScreen`) need the whole
    region and must pass ``allowed_labels=None``.  Duplicate detection
    inside a pruned subtree is forgone — tree discipline there is the
    batching precondition already documented on ``coalesce_updates``.
    """

    def __init__(
        self,
        view,
        root: str,
        counters=None,
        allowed_labels: frozenset[str] | None = None,
    ) -> None:
        self.root = root
        self.valid = True
        self.restricted = allowed_labels is not None
        self._view = view
        self._counters = counters
        self._pred: dict[int, int] = {}
        self._paths: dict[str, list[str] | None] = {}
        self._chains: dict[str, list[str] | None] = {}
        root_row = view.row(root)
        self._root_row = root_row
        if root_row is None:
            return  # absent root: every path/chain answers None
        pred = self._pred
        pred[root_row] = -1
        seen = {root_row}
        frontier = [root_row]
        while frontier:
            next_frontier: list[int] = []
            for row in frontier:
                # Per-row gather keeps the parent association the flat
                # frontier sweep would lose; charges are identical.
                for child in view.gather([row], None):
                    if child in seen:
                        self.valid = False
                        return
                    seen.add(child)
                    if (
                        allowed_labels is not None
                        and view.label(child) not in allowed_labels
                    ):
                        continue  # off every select path rooted here
                    pred[child] = row
                    next_frontier.append(child)
            frontier = next_frontier

    def _reconstruct(self, oid: str) -> None:
        row = self._view.row(oid)
        if row is None or row not in self._pred:
            self._paths[oid] = None
            self._chains[oid] = None
            return
        rows: list[int] = []
        while row != -1:
            rows.append(row)
            row = self._pred[row]
        rows.reverse()  # root ... oid
        if self._counters is not None:
            self._counters.delta_rows_scanned += len(rows)
        view = self._view
        self._chains[oid] = [view.oid(r) for r in rows]
        # path_between semantics: target's label in, root's label out.
        self._paths[oid] = [view.label(r) for r in rows[1:]]

    def path(self, oid: str) -> list[str] | None:
        """``path(root, oid)`` labels, or None when unreachable."""
        if oid not in self._paths:
            self._reconstruct(oid)
        return self._paths[oid]

    def chain(self, oid: str) -> list[str] | None:
        """``[root, ..., oid]`` OIDs, or None when unreachable."""
        if oid not in self._chains:
            self._reconstruct(oid)
        return self._chains[oid]


# ---------------------------------------------------------------------------
# vectorized screens (verdict-identical to the interpreted ones)
# ---------------------------------------------------------------------------


def _screen_simple(
    frame: DeltaFrame, screen, region: RootRegion, verdicts, j: int
) -> None:
    """Frame-at-a-time :class:`_SimpleScreen` — same decisions, shared
    label masks, region paths instead of ParentIndex walks."""
    m = screen.m
    view = m.view
    full = m.full_path
    counters = frame.counters
    positions = frame.positions
    anchors = frame.anchors
    if frame.edge_mask:
        candidates = frame.mask_for("edge", frozenset(screen._full_labels))
        delete_mask = frame.delete_mask
        for i in iter_bits(frame.edge_mask):
            pos = positions[i]
            if view.contains(anchors[i]):
                verdicts[(pos, j)] = True  # member value refresh
            elif not (candidates >> i) & 1:
                verdicts[(pos, j)] = False  # label gate
            elif (delete_mask >> i) & 1:
                verdicts[(pos, j)] = True  # batched delete: gate only
            else:
                if counters is not None:
                    counters.delta_rows_scanned += 1
                prefix = region.path(anchors[i])
                verdicts[(pos, j)] = prefix is not None and (
                    full.strip_prefix(
                        Path(tuple(prefix) + (frame.gate_labels[i],))
                    )
                    is not None
                )
    if not frame.modify_mask:
        return
    if not m.has_condition:
        for i in iter_bits(frame.modify_mask):
            verdicts[(positions[i], j)] = view.contains(anchors[i])
        return
    if not full:
        root = m.root
        for i in iter_bits(frame.modify_mask):
            oid = anchors[i]
            verdicts[(positions[i], j)] = view.contains(oid) or oid == root
        return
    candidates = frame.mask_for("modify", frozenset((full.labels[-1],)))
    for i in iter_bits(frame.modify_mask):
        pos = positions[i]
        oid = anchors[i]
        if view.contains(oid):
            verdicts[(pos, j)] = True
        elif not (candidates >> i) & 1:
            verdicts[(pos, j)] = False
        else:
            if counters is not None:
                counters.delta_rows_scanned += 1
            path = region.path(oid)
            verdicts[(pos, j)] = path is not None and full == tuple(path)


def _screen_extended(
    frame: DeltaFrame, screen, region: RootRegion, verdicts, j: int
) -> None:
    """Frame-at-a-time :class:`_ExtendedScreen` twin."""
    m = screen.m
    view = m.view
    counters = frame.counters
    positions = frame.positions
    anchors = frame.anchors
    if frame.edge_mask:
        gate = screen._edge_labels
        candidates = frame.mask_for(
            "edge", None if gate is None else frozenset(gate)
        )
        delete_mask = frame.delete_mask
        for i in iter_bits(frame.edge_mask):
            pos = positions[i]
            if view.contains(anchors[i]):
                verdicts[(pos, j)] = True
            elif not (candidates >> i) & 1:
                verdicts[(pos, j)] = False
            elif (delete_mask >> i) & 1:
                verdicts[(pos, j)] = True  # batched delete: gate only
            else:
                if counters is not None:
                    counters.delta_rows_scanned += 1
                verdicts[(pos, j)] = region.chain(anchors[i]) is not None
    if not frame.modify_mask:
        return
    if m.condition is None:
        for i in iter_bits(frame.modify_mask):
            verdicts[(positions[i], j)] = view.contains(anchors[i])
        return
    gate = screen._witness_labels
    candidates = frame.mask_for(
        "modify", None if gate is None else frozenset(gate)
    )
    for i in iter_bits(frame.modify_mask):
        pos = positions[i]
        oid = anchors[i]
        if view.contains(oid):
            verdicts[(pos, j)] = True
        elif not (candidates >> i) & 1:
            verdicts[(pos, j)] = False
        else:
            if counters is not None:
                counters.delta_rows_scanned += 1
            verdicts[(pos, j)] = region.chain(oid) is not None


# ---------------------------------------------------------------------------
# the kernel dispatch
# ---------------------------------------------------------------------------


def kernel_dispatch(dispatcher, updates: Sequence[Update], snapshot) -> bool:
    """Screen, region-sweep, and apply *updates* set-at-a-time.

    Returns True when the batch was fully dispatched, False when the
    kernel declined (unsupported screen kind, or a non-tree region) —
    the caller then runs the interpreted dispatcher, and
    ``batch_kernel_fallbacks`` is charged here.  *snapshot* must be a
    fresh snapshot view of ``dispatcher.store`` (the caller guarantees
    it via ``manager.current()``).
    """
    from repro.views.dispatcher import (
        PathContext,
        _ExtendedScreen,
        _SimpleScreen,
    )

    store = dispatcher.store
    counters = store.counters
    entries = dispatcher._entries
    screened = [
        (j, entry)
        for j, entry in enumerate(entries)
        if entry.screen is not None
    ]
    for _j, entry in screened:
        if not isinstance(entry.screen, (_SimpleScreen, _ExtendedScreen)):
            counters.batch_kernel_fallbacks += 1
            return False  # pragma: no cover - no third screen kind exists
    walls = dispatcher.kernel_phase_seconds
    # Phase 1: columnar frames (per shard under a parallel dispatcher).
    began = time.perf_counter()
    frames = dispatcher._kernel_frames(updates)
    walls["screen"] += time.perf_counter() - began
    # Phase 2: one region sweep per distinct view root, restricted to
    # the union of select-path labels when every screen on the root is
    # a _SimpleScreen (an _ExtendedScreen's reachability verdicts need
    # the whole region — None there disables the restriction).
    began = time.perf_counter()
    allowed: dict[str, set[str] | None] = {}
    for _j, entry in screened:
        root = entry.screen.m.root
        if isinstance(entry.screen, _SimpleScreen):
            labels = allowed.get(root, set())
            if labels is not None:
                allowed[root] = labels | entry.screen._full_labels
        else:
            allowed[root] = None
    regions: dict[str, RootRegion] = {}
    for root in sorted(allowed):
        labels = allowed[root]
        region = RootRegion(
            snapshot,
            root,
            counters,
            allowed_labels=None if labels is None else frozenset(labels),
        )
        if not region.valid:
            counters.batch_kernel_fallbacks += 1
            walls["region"] += time.perf_counter() - began
            return False
        regions[root] = region
    walls["region"] += time.perf_counter() - began
    # Phase 3: set-at-a-time screens, verdicts keyed by global position.
    began = time.perf_counter()
    verdicts: dict[tuple[int, int], bool] = {}
    for frame in frames:
        for j, entry in screened:
            screen = entry.screen
            region = regions[screen.m.root]
            if isinstance(screen, _SimpleScreen):
                _screen_simple(frame, screen, region, verdicts, j)
            else:
                _screen_extended(frame, screen, region, verdicts, j)
    walls["screen"] += time.perf_counter() - began
    # Phase 4: shared final-state subtrees for the batched-delete purge
    # — once per distinct deleted child, reused by every view.
    began = time.perf_counter()
    unscreened_ctx = any(
        entry.screen is None and entry.supports_context for entry in entries
    )
    subtrees: dict[str, set[str]] = {}
    for frame in frames:
        for i in iter_bits(frame.delete_mask):
            child = frame.updates[i].child
            if child in subtrees:
                continue
            pos = frame.positions[i]
            if unscreened_ctx or any(
                verdicts[(pos, j)] for j, _entry in screened
            ):
                reach = reachable_on_snapshot(snapshot, [child])
                reach.discard(child)
                subtrees[child] = reach
    walls["region"] += time.perf_counter() - began
    # Phase 5: view-major apply in intake order, through the unchanged
    # maintainer handlers, with region memos grafted into the context.
    began = time.perf_counter()
    context = PathContext(store, dispatcher.parent_index, batched=True)
    context._subtrees.update(subtrees)
    for root, region in regions.items():
        # A restricted region's None means "off every select path",
        # not "unreachable": graft only its positive memos, and let
        # maintainers that ask about pruned OIDs fall back to the
        # context's ParentIndex walk.
        for oid, path in region._paths.items():
            if path is not None or not region.restricted:
                context._paths[(root, oid)] = path
        for oid, chain in region._chains.items():
            if chain is not None or not region.restricted:
                context._chains[(root, oid)] = chain
    dispatcher.updates_dispatched += len(updates)
    for j, entry in enumerate(entries):
        maintainer = entry.maintainer
        if entry.screen is not None:
            for pos, update in enumerate(updates):
                if not verdicts[(pos, j)]:
                    counters.updates_screened += 1
                    continue
                maintainer.handle(update, context)
        elif entry.supports_context:
            for update in updates:
                maintainer.handle(update, context)
        else:
            for update in updates:
                maintainer.handle(update)
    walls["apply"] += time.perf_counter() - began
    dispatcher.batch_kernel_batches += 1
    return True


__all__ = ["RootRegion", "kernel_dispatch"]
