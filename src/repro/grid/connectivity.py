"""Incremental per-net connectivity index for :class:`RoutingGrid`.

Profiling after the flat-array kernel work (PR 3) showed the router's wall
time dominated not by search but by its own bookkeeping — above all the
``connected_component`` BFS flood that every routing attempt, cascade
check and improvement step re-ran from scratch over a net's whole copper.
This module replaces those floods with an index that is maintained
*incrementally* by the grid's mutations and answers connectivity queries
in near-constant time on the hot path.

Design
------
The index is a **union-find over flat node ids** (``idx = (layer * H + y)
* W + x``), union-by-rank and — deliberately — *no path compression*:
every structural write is a single ``parent``/``rank`` cell assignment,
which makes the whole structure journalable through the grid's existing
``begin_txn``/``commit_txn``/``rollback_txn`` machinery.  Each write
inside a transaction appends an undo record to the same journal as the
occupancy writes, so rolling back a failed weak-modification attempt
restores the index bit-for-bit along with the copper.

* **Additions are incremental, one call per path.**  A committed path is
  one connected walk, so ``commit_path``/``reserve_pin`` report the whole
  walk at once (:meth:`ConnectivityIndex.note_path_added`): the net's
  earlier components the walk reaches — its own already-owned nodes and
  the owned neighbours of its fresh ones — are linked by rank, and every
  cell that just went ``FREE -> net`` hangs directly off the resulting
  root.  One parent write per fresh cell, unions only where the walk
  meets other copper of its net, and component trees stay shallow.  A
  new via joins two nodes of the same walk and needs nothing more.
* **Removals invalidate.**  A union-find cannot split, so freeing any
  node or via of a net marks the net *dirty*; the next query re-floods
  only that net's copper (O(net size), not O(grid)), rebuilding
  ``parent``/``rank`` from the grid's ground truth.  Between removals —
  the common case while the router lays copper — queries never flood.
* **Queries are cached.**  ``component_nodes`` groups a clean net's nodes
  by root once and caches the flat lists until the net changes, so the
  router's repeated "give me the source component" calls are dictionary
  hits.

Invariant (checked by ``tests/test_grid_connectivity.py`` differentially
against the BFS oracle, including under fault-injected rollback storms):
for every net not marked dirty, two owned nodes share a union-find root
iff they are connected through the net's copper exactly as
:meth:`RoutingGrid.connected_component` would report.  Dirty nets hold no
promise until the next query re-floods them.

The re-flood derives adjacency from the occupancy/via arrays themselves
(filtering the per-net usage keys through the current owner), so
:func:`RoutingGrid.refresh_connectivity` + queries re-derive connectivity
from the copper alone — which is what lets the independent verifier use
the index without trusting incremental history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.grid.path import GridNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grid.routing_grid import RoutingGrid

# Journal entry tags, continuing the numbering in ``routing_grid``.
_J_UF = 5     # (tag, idx, old_parent, old_rank)
_J_DIRTY = 6  # (tag, net_id, was_dirty)


class ConnectivityIndex:
    """Rollback-capable union-find over a grid's flat node ids.

    Owned by exactly one :class:`RoutingGrid`; the grid calls the
    ``note_*`` hooks from its mutation methods and forwards
    ``component_nodes``/``same_component`` queries here.  All undo records
    go into the grid's open journal, if any.
    """

    __slots__ = ("_grid", "_parent", "_rank", "_dirty", "_cache")

    def __init__(self, grid: "RoutingGrid") -> None:
        self._grid = grid
        size = 2 * grid.height * grid.width
        self._parent: List[int] = list(range(size))
        self._rank: List[int] = [0] * size
        #: Nets whose structure is stale (a removal may have split them).
        self._dirty: Set[int] = set()
        #: Per-net ``{root: [GridNode, ...]}`` component lists; entries are
        #: dropped on any mutation touching the net.
        self._cache: Dict[int, Dict[int, List[GridNode]]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, idx: int) -> int:
        """Root of ``idx``'s tree (no path compression, by design)."""
        parent = self._parent
        while parent[idx] != idx:
            idx = parent[idx]
        return idx

    def same_component(self, net_id: int, a: int, b: int) -> bool:
        """Whether flat nodes ``a`` and ``b`` share ``net_id`` copper.

        Callers must have checked that both nodes are owned by ``net_id``.
        """
        if net_id in self._dirty:
            self._reflood(net_id)
        return self.find(a) == self.find(b)

    def component_nodes(self, net_id: int, seed: int) -> List[GridNode]:
        """Cached flat list of the component containing flat node ``seed``.

        The returned list is shared with the cache — callers must treat it
        as read-only.  ``seed`` must be owned by ``net_id``.
        """
        if net_id in self._dirty:
            self._reflood(net_id)
        groups = self._cache.get(net_id)
        if groups is None:
            groups = self._gather(net_id)
            self._cache[net_id] = groups
        return groups.get(self.find(seed), [])

    def is_dirty(self, net_id: int) -> bool:
        """True when ``net_id`` awaits a re-flood (exposed for tests)."""
        return net_id in self._dirty

    # ------------------------------------------------------------------
    # Mutation hooks (called by RoutingGrid)
    # ------------------------------------------------------------------
    def note_path_added(
        self, net_id: int, fresh: List[int], touch: List[int]
    ) -> None:
        """A committed walk claimed the ``fresh`` flat ids for ``net_id``.

        ``touch`` lists the net's earlier copper the walk reaches: its own
        already-owned nodes (an existing via of the net is crossed only
        through them) and the owned wire neighbours of its fresh nodes.
        A committed path
        is one connected walk, so the touched components are linked and
        every fresh node hangs directly off the resulting root — one
        parent write per fresh node, and unions only where the walk meets
        other copper of its net.  A new via joins two nodes of the walk
        and needs nothing more.
        """
        self._cache.pop(net_id, None)
        if net_id in self._dirty:
            return  # the pending re-flood will pick the walk up
        journal = self._grid._journal
        parent, rank = self._parent, self._rank
        root = -1
        for idx in touch:
            while parent[idx] != idx:
                idx = parent[idx]
            if root < 0:
                root = idx
            elif idx != root:
                root = self._link(root, idx, journal)
        if not fresh:
            return
        if root < 0:
            root = fresh[0]
            fresh = fresh[1:]
            if journal is not None:
                journal.append((_J_UF, root, parent[root], rank[root]))
            parent[root] = root
            rank[root] = 1 if fresh else 0
        elif rank[root] == 0:
            if journal is not None:
                journal.append((_J_UF, root, root, 0))
            rank[root] = 1
        for idx in fresh:
            if journal is not None:
                journal.append((_J_UF, idx, parent[idx], rank[idx]))
            parent[idx] = root
            rank[idx] = 0

    def note_removed(self, net_id: int) -> None:
        """A node or via of ``net_id`` was freed: the component may split."""
        self._cache.pop(net_id, None)
        if net_id in self._dirty:
            return
        journal = self._grid._journal
        if journal is not None:
            journal.append((_J_DIRTY, net_id, False))
        self._dirty.add(net_id)

    # ------------------------------------------------------------------
    # Journal integration (called by RoutingGrid.rollback_txn)
    # ------------------------------------------------------------------
    def undo_uf(self, idx: int, old_parent: int, old_rank: int) -> None:
        """Undo one journaled parent/rank write."""
        self._parent[idx] = old_parent
        self._rank[idx] = old_rank

    def undo_dirty(self, net_id: int, was_dirty: bool) -> None:
        """Undo one journaled dirty-flag transition."""
        if was_dirty:
            self._dirty.add(net_id)
        else:
            self._dirty.discard(net_id)

    def drop_caches(self) -> None:
        """Forget every cached component list (rollback/restore path)."""
        self._cache.clear()

    def invalidate_all(self) -> None:
        """Mark every net with copper dirty; next queries re-derive from
        the occupancy/via arrays alone (restore/unpickle/verifier path)."""
        self._dirty = {
            net for net, usage in self._grid._usage.items() if usage
        }
        self._cache.clear()

    def invalidate(self, net_id: int) -> None:
        """Mark one net dirty (force its next query to re-flood)."""
        self._dirty.add(net_id)
        self._cache.pop(net_id, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _union(self, a: int, b: int, journal) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._link(ra, rb, journal)

    def _link(self, ra: int, rb: int, journal) -> int:
        """Union two distinct roots by rank; returns the surviving root."""
        parent, rank = self._parent, self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        if journal is not None:
            journal.append((_J_UF, rb, parent[rb], rank[rb]))
        parent[rb] = ra
        if rank[ra] == rank[rb]:
            if journal is not None:
                journal.append((_J_UF, ra, parent[ra], rank[ra]))
            rank[ra] += 1
        return ra

    def _reflood(self, net_id: int) -> None:
        """Rebuild ``net_id``'s structure from the grid's ground truth.

        Touches only the net's own nodes: O(net copper), not O(grid).
        Candidate nodes come from the per-net usage table but are filtered
        through the occupancy array, so the rebuilt structure reflects the
        copper itself.
        """
        grid = self._grid
        journal = grid._journal
        occ = grid._occ_flat
        via = grid._via_view
        height, width = grid.height, grid.width
        plane = height * width
        parent, rank = self._parent, self._rank
        nodes: List[Tuple[GridNode, int]] = []
        for node in grid._usage.get(net_id, ()):
            idx = (node.layer * height + node.y) * width + node.x
            if occ[idx] == net_id:
                nodes.append((node, idx))
        for _, idx in nodes:
            if journal is not None:
                journal.append((_J_UF, idx, parent[idx], rank[idx]))
            parent[idx] = idx
            rank[idx] = 0
        union = self._union
        for node, idx in nodes:
            x, y = node.x, node.y
            if x + 1 < width and occ[idx + 1] == net_id:
                union(idx, idx + 1, journal)
            if y + 1 < height and occ[idx + width] == net_id:
                union(idx, idx + width, journal)
            if (
                idx < plane
                and int(via[y * width + x]) == net_id
                and occ[idx + plane] == net_id
            ):
                union(idx, idx + plane, journal)
        if journal is not None:
            journal.append((_J_DIRTY, net_id, True))
        self._dirty.discard(net_id)
        self._cache.pop(net_id, None)

    def _gather(self, net_id: int) -> Dict[int, List[GridNode]]:
        """Group the net's owned nodes by component root."""
        grid = self._grid
        occ = grid._occ_flat
        height, width = grid.height, grid.width
        find = self.find
        groups: Dict[int, List[GridNode]] = {}
        for node in grid._usage.get(net_id, ()):
            idx = (node.layer * height + node.y) * width + node.x
            if occ[idx] != net_id:
                continue
            root = find(idx)
            bucket = groups.get(root)
            if bucket is None:
                groups[root] = bucket = [node]
            else:
                bucket.append(node)
        return groups
