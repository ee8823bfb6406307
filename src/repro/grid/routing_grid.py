"""Occupancy bookkeeping for the two-layer routing fabric.

The grid is the single source of truth about who owns which copper.  Every
router in the library — Mighty, the channel baselines, the naive maze
switchbox router — commits its result through :meth:`RoutingGrid.commit_path`
so that one verifier and one metrics module can judge them all.

Rip-up support is the delicate part: two connections of the *same* net may
legitimately share cells (a later connection is allowed to run along copper
laid by an earlier one), so the grid keeps a per-net reference count for
every node and via.  Ripping one connection only frees cells whose count
drops to zero.

Two representations are kept in lock-step:

* numpy arrays (``occupancy()``/``pin_map()``/``via_map()``) for the bulk
  consumers — the verifier, metrics, rendering, region masking;
* flat Python lists (``occ_flat()``/``pin_flat()``) for the search kernels,
  whose per-cell reads are several times faster on plain lists than on
  numpy scalars.

Claims are path-granular: :meth:`RoutingGrid.commit_path` (and
:meth:`~RoutingGrid.remove_path`, :meth:`~RoutingGrid.reserve_pin`) make
one validation pass over the walk — bounds, collisions, vias, and the
net's earlier copper it reaches — then one mutation loop, and hand the
connectivity index the whole walk in one call.

Undo comes in two granularities.  :meth:`clone`/:meth:`restore` snapshot
the whole grid — O(area), used sparingly for the router's coarse
best-state bookmark.  :meth:`begin_txn`/:meth:`commit_txn`/
:meth:`rollback_txn` journal only the cells a transaction actually touches,
so undoing one failed modification attempt costs O(path length), which is
what keeps the rip-up inner loop cheap.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.geometry.point import Point
from repro.geometry.region import RectilinearRegion
from repro.grid.connectivity import _J_DIRTY, _J_UF, ConnectivityIndex
from repro.grid.layers import Layer
from repro.grid.path import _LAYER_OF, GridNode, GridPath

FREE = 0
OBSTACLE = -1

# Journal entry tags (first tuple element of every journal record).
# Tags 5 and 6 (union-find and dirty-flag undo records) are defined by
# ``repro.grid.connectivity`` and handled in :meth:`rollback_txn`.
_J_OCC = 0   # (tag, flat_index, old_owner)
_J_VIA = 1   # (tag, flat_index, old_owner)
_J_PIN = 2   # (tag, flat_index, old_owner)
_J_USE = 3   # (tag, net_id, node, old_count)
_J_VUSE = 4  # (tag, net_id, cell, old_count)


class GridError(RuntimeError):
    """Raised when a commit/rip request is inconsistent with the grid."""


def _copy_usage(table: Dict[int, Dict]) -> Dict[int, Dict]:
    """Cheap deep copy of a usage table (plain dict copies, C speed).

    Empty per-net tables — common after heavy rip-up — are dropped
    entirely instead of copied.
    """
    return defaultdict(
        dict, {net: usage.copy() for net, usage in table.items() if usage}
    )


class RoutingGrid:
    """A ``width x height`` two-layer routing grid.

    Parameters
    ----------
    width, height:
        Grid extents; cells are addressed ``0 <= x < width``,
        ``0 <= y < height``.
    region:
        Optional rectilinear routable region.  Cells outside it become
        obstacles on both layers.  The region's bounding box must fit within
        the grid and use non-negative coordinates.
    """

    def __init__(
        self,
        width: int,
        height: int,
        region: Optional[RectilinearRegion] = None,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"grid extents must be positive, got {width}x{height}")
        self.width = width
        self.height = height
        self._occ = np.full((2, height, width), FREE, dtype=np.int32)
        self._via = np.full((height, width), FREE, dtype=np.int32)
        self._pin = np.full((2, height, width), FREE, dtype=np.int32)
        # Per-net reference counts, ``{node: count}`` and ``{cell: count}``.
        # Plain dicts: ``Counter``'s Python-level ``__missing__`` showed up
        # in the claim loops' profile.  Key order is insertion order, and
        # the connectivity index lists components in that order.
        self._usage: Dict[int, Dict[GridNode, int]] = defaultdict(dict)
        self._via_usage: Dict[int, Dict[Point, int]] = defaultdict(dict)
        self._journal: Optional[list] = None
        self._journal_peak = 0
        if region is not None:
            bbox = region.bbox
            if bbox.x0 < 0 or bbox.y0 < 0 or bbox.x1 > width or bbox.y1 > height:
                raise ValueError(
                    f"region bbox {bbox} does not fit a {width}x{height} grid"
                )
            blocked = ~np.pad(
                region.mask(),
                (
                    (bbox.y0, height - bbox.y1),
                    (bbox.x0, width - bbox.x1),
                ),
                constant_values=False,
            )
            self._occ[:, blocked] = OBSTACLE
        self._rebuild_flat_mirrors()
        self._connectivity = ConnectivityIndex(self)

    def _rebuild_flat_mirrors(self) -> None:
        """Resync the list mirrors and flat views with the numpy arrays."""
        self._occ_view = self._occ.reshape(-1)
        self._pin_view = self._pin.reshape(-1)
        self._via_view = self._via.reshape(-1)
        self._occ_flat: List[int] = self._occ_view.tolist()
        self._pin_flat: List[int] = self._pin_view.tolist()
        self._buffer_addresses: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Pickling (process-pool workers ship grids across processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the derived views/mirrors/index; they are rebuilt on load.

        Naive pickling would serialise ``_occ_view`` as an *independent*
        array, silently breaking the aliasing that keeps the flat mirrors
        in lock-step with the numpy arrays.  The cached buffer addresses
        go too: in the process that loads the state they would point into
        another process's memory.
        """
        if self._journal is not None:
            raise GridError("cannot pickle a grid with an open transaction")
        state = self.__dict__.copy()
        for derived in (
            "_occ_view",
            "_pin_view",
            "_via_view",
            "_occ_flat",
            "_pin_flat",
            "_buffer_addresses",
            "_connectivity",
        ):
            state.pop(derived, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_flat_mirrors()
        self._connectivity = ConnectivityIndex(self)
        self._connectivity.invalidate_all()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def in_bounds(self, x: int, y: int) -> bool:
        """True when ``(x, y)`` addresses a cell of the grid."""
        return 0 <= x < self.width and 0 <= y < self.height

    def owner(self, node: Tuple[int, int, int]) -> int:
        """Net id occupying ``node`` (``FREE`` or ``OBSTACLE`` otherwise)."""
        x, y, layer = node
        if not self.in_bounds(x, y):
            return OBSTACLE
        return self._occ_flat[(layer * self.height + y) * self.width + x]

    def via_owner(self, x: int, y: int) -> int:
        """Net id of the via at ``(x, y)``, or ``FREE`` (also off-grid)."""
        if not self.in_bounds(x, y):
            return FREE
        return int(self._via_view[y * self.width + x])

    def pin_owner(self, node: Tuple[int, int, int]) -> int:
        """Net id whose pin sits at ``node``, or ``FREE``."""
        x, y, layer = node
        if not self.in_bounds(x, y):
            return FREE
        return self._pin_flat[(layer * self.height + y) * self.width + x]

    def is_free(self, node: Tuple[int, int, int]) -> bool:
        """True when ``node`` is unoccupied and not an obstacle."""
        return self.owner(node) == FREE

    def is_obstacle(self, node: Tuple[int, int, int]) -> bool:
        """True when ``node`` is a hard obstacle (or out of bounds)."""
        return self.owner(node) == OBSTACLE

    def net_nodes(self, net_id: int) -> List[GridNode]:
        """All nodes currently owned by ``net_id`` (pins included)."""
        return sorted(self._usage.get(net_id, ()))

    def net_vias(self, net_id: int) -> List[Point]:
        """All via cells currently owned by ``net_id``."""
        return sorted(self._via_usage.get(net_id, ()))

    def net_ids(self) -> List[int]:
        """Ids of nets that currently own at least one node."""
        return sorted(n for n, usage in self._usage.items() if usage)

    def occupancy(self) -> np.ndarray:
        """Read-only occupancy array of shape ``(2, height, width)``.

        Exposed for the bulk consumers (verifier, metrics, rendering);
        treat as immutable.  The search kernels use :meth:`occ_flat`.
        """
        view = self._occ.view()
        view.flags.writeable = False
        return view

    def pin_map(self) -> np.ndarray:
        """Read-only pin-ownership array of shape ``(2, height, width)``."""
        view = self._pin.view()
        view.flags.writeable = False
        return view

    def via_map(self) -> np.ndarray:
        """Read-only via-ownership array of shape ``(height, width)``."""
        view = self._via.view()
        view.flags.writeable = False
        return view

    def occ_flat(self) -> List[int]:
        """Flat occupancy mirror, C-order ``(layer, y, x)``.

        The search kernels' hot view: a plain Python list whose per-cell
        reads avoid numpy scalar boxing.  Callers MUST treat it as
        read-only; it is kept in lock-step with :meth:`occupancy` by every
        grid mutation.
        """
        return self._occ_flat

    def pin_flat(self) -> List[int]:
        """Flat pin-ownership mirror, C-order ``(layer, y, x)``; read-only."""
        return self._pin_flat

    def occ_array(self) -> np.ndarray:
        """Read-only *flat* int32 occupancy view, C-order ``(layer, y, x)``.

        The typed twin of :meth:`occ_flat` for the vector/compiled search
        kernels: contiguous, dtype-stable, indexed by the same flat node
        ids, and always in lock-step with the grid (it aliases the backing
        store rather than copying it).
        """
        view = self._occ.reshape(-1)
        view.flags.writeable = False
        return view

    def buffer_addresses(self) -> Tuple[int, int]:
        """Data addresses of the flat occupancy and pin buffers.

        For the compiled search kernel, which reads both in place.  The
        pair is looked up once and cached: the buffers are only ever
        written in place, and a grid that gets new ones (built, cloned,
        unpickled) starts without a cache.
        """
        addresses = self._buffer_addresses
        if addresses is None:
            addresses = self._buffer_addresses = (
                self._occ_view.ctypes.data,
                self._pin_view.ctypes.data,
            )
        return addresses

    # ------------------------------------------------------------------
    # Change journal (transactions)
    # ------------------------------------------------------------------
    def begin_txn(self) -> None:
        """Start recording changes for a cheap :meth:`rollback_txn`.

        Transactions do not nest: the single caller that needs undo (the
        router's all-or-nothing weak modification) is not reentrant, and
        refusing nesting catches leaked transactions early.
        """
        if self._journal is not None:
            raise GridError("transaction already open (no nesting)")
        self._journal = []

    def commit_txn(self) -> None:
        """Keep every change since :meth:`begin_txn`; drop the journal."""
        if self._journal is None:
            raise GridError("no open transaction to commit")
        self._journal_peak = max(self._journal_peak, len(self._journal))
        self._journal = None

    def rollback_txn(self) -> None:
        """Undo every change since :meth:`begin_txn`, newest first.

        Cost is proportional to the number of journaled cell touches —
        O(path length) per undone attempt — not to the grid area.
        """
        journal = self._journal
        if journal is None:
            raise GridError("no open transaction to roll back")
        self._journal_peak = max(self._journal_peak, len(journal))
        self._journal = None  # undo writes below must not be re-journaled
        occ_view, occ_flat = self._occ_view, self._occ_flat
        pin_view, pin_flat = self._pin_view, self._pin_flat
        via_view = self._via_view
        connectivity = self._connectivity
        connectivity.drop_caches()
        for entry in reversed(journal):
            tag = entry[0]
            if tag == _J_OCC:
                _, index, old = entry
                occ_view[index] = old
                occ_flat[index] = old
            elif tag == _J_USE:
                _, net_id, key, old = entry
                usage = self._usage[net_id]
                if old:
                    usage[key] = old
                else:
                    usage.pop(key, None)
            elif tag == _J_UF:
                _, index, old_parent, old_rank = entry
                connectivity.undo_uf(index, old_parent, old_rank)
            elif tag == _J_DIRTY:
                _, net_id, was_dirty = entry
                connectivity.undo_dirty(net_id, was_dirty)
            elif tag == _J_VIA:
                _, index, old = entry
                via_view[index] = old
            elif tag == _J_VUSE:
                _, net_id, key, old = entry
                usage = self._via_usage[net_id]
                if old:
                    usage[key] = old
                else:
                    usage.pop(key, None)
            else:  # _J_PIN
                _, index, old = entry
                pin_view[index] = old
                pin_flat[index] = old

    @property
    def in_txn(self) -> bool:
        """True while a transaction is open."""
        return self._journal is not None

    @property
    def journal_depth(self) -> int:
        """Entries recorded by the currently open transaction (0 if none)."""
        return len(self._journal) if self._journal is not None else 0

    @property
    def journal_peak_depth(self) -> int:
        """Largest journal any transaction on this grid ever reached."""
        return self._journal_peak

    def reset_journal_peak(self) -> None:
        """Forget earlier transactions' peak (a grid changing hands)."""
        self._journal_peak = 0

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _flat_index(self, node: Tuple[int, int, int]) -> int:
        """Flat C-order id of ``(x, y, layer)``.

        The per-node loops of :meth:`_claim` and :meth:`remove_path`
        compute the same id inline: a method call per node made
        commit + rip + rollback about 9% slower (docs/PERFORMANCE.md §7).
        """
        x, y, layer = node
        return (layer * self.height + y) * self.width + x

    def set_obstacle(
        self, x: int, y: int, layer: Optional[Layer] = None
    ) -> None:
        """Turn a cell (on one layer, or both when ``layer is None``) into a
        hard obstacle.  The cell must currently be free."""
        layers: Iterable[int] = (0, 1) if layer is None else (int(layer),)
        for l in layers:
            index = (l * self.height + y) * self.width + x
            current = self._occ_flat[index]
            if current not in (FREE, OBSTACLE):
                raise GridError(
                    f"cannot place obstacle over net {current} at ({x},{y},{l})"
                )
            if self._journal is not None:
                self._journal.append((_J_OCC, index, current))
            self._occ_view[index] = OBSTACLE
            self._occ_flat[index] = OBSTACLE

    def reserve_pin(self, net_id: int, node: Tuple[int, int, int]) -> None:
        """Permanently claim ``node`` for ``net_id`` as a pin.

        Pin nodes are never freed by rip-up, and the maze searcher treats
        other nets' pins as impassable even during weak/strong modification
        (pins cannot be pushed aside).
        """
        self._check_net_id(net_id)
        x, y, layer = node
        current = self.owner(node)
        if current not in (FREE, net_id):
            raise GridError(
                f"pin of net {net_id} collides with {current} at {tuple(node)}"
            )
        member = _LAYER_OF.get(layer)
        if member is None:
            member = Layer(layer)
        index = self._flat_index(node)
        if self._journal is not None:
            self._journal.append((_J_PIN, index, self._pin_flat[index]))
        self._pin_view[index] = net_id
        self._pin_flat[index] = net_id
        self._claim(net_id, (tuple.__new__(GridNode, (x, y, member)),))

    def commit_path(self, net_id: int, path: GridPath) -> None:
        """Claim every node and via of ``path`` for ``net_id``.

        Every node must be free or already owned by ``net_id``; every via
        cell must be via-free or already a via of ``net_id``.  The check is
        performed in full before any mutation, so a failed commit leaves the
        grid untouched.
        """
        self._check_net_id(net_id)
        self._claim(net_id, path.nodes)

    def _claim(self, net_id: int, nodes: Sequence[GridNode]) -> None:
        """Claim one legal walk of ``nodes`` (and its layer changes).

        One validation pass — bounds, collisions, vias, and the net's
        existing copper the walk reaches — then one mutation loop, then
        one connectivity call for the whole walk.  An off-grid node raises
        :class:`GridError` in the validation pass: its flat index would
        wrap onto a real cell (or past the end of the plane).
        """
        height, width = self.height, self.width
        plane = height * width
        occ = self._occ_flat
        via_view = self._via_view
        # A dirty net is re-flooded on its next query, so its contacts
        # need not be collected.
        scan = not self._connectivity.is_dirty(net_id)
        indices: List[int] = []
        touch: List[int] = []  # the net's earlier copper the walk reaches
        via_cells: List[Tuple[int, int, int]] = []
        prev_layer = None
        for node in nodes:
            x, y, layer = node
            if not (0 <= x < width and 0 <= y < height):
                raise GridError(
                    f"net {net_id} path leaves the {width}x{height} grid "
                    f"at {tuple(node)}"
                )
            cell = y * width + x
            index = layer * plane + cell
            current = occ[index]
            if current == FREE:
                # A free node has no via of its net above or below it (a
                # via's cell is owned on both layers), so only its four
                # wire neighbours can be earlier copper.
                if scan:
                    if x + 1 < width and occ[index + 1] == net_id:
                        touch.append(index + 1)
                    if x and occ[index - 1] == net_id:
                        touch.append(index - 1)
                    if y + 1 < height and occ[index + width] == net_id:
                        touch.append(index + width)
                    if y and occ[index - width] == net_id:
                        touch.append(index - width)
            elif current == net_id:
                touch.append(index)
            else:
                raise GridError(
                    f"net {net_id} collides with {current} at {tuple(node)}"
                )
            if prev_layer is not None and layer is not prev_layer:
                via_cells.append((cell, x, y))
            prev_layer = layer
            indices.append(index)
        for cell, x, y in via_cells:
            current = int(via_view[cell])
            if current != FREE and current != net_id:
                raise GridError(
                    f"via of net {net_id} collides with {current} at {(x, y)}"
                )

        journal = self._journal
        occ_view = self._occ_view
        usage = self._usage[net_id]
        fresh: List[int] = []
        for index, node in zip(indices, nodes):
            if occ[index] == FREE:
                if journal is not None:
                    journal.append((_J_OCC, index, FREE))
                occ[index] = net_id
                occ_view[index] = net_id
                fresh.append(index)
            count = usage.get(node, 0)
            if journal is not None:
                journal.append((_J_USE, net_id, node, count))
            usage[node] = count + 1
        new_via = False
        if via_cells:
            via_usage = self._via_usage[net_id]
            for cell, x, y in via_cells:
                key = tuple.__new__(Point, (x, y))
                count = via_usage.get(key, 0)
                if journal is not None:
                    journal.append((_J_VUSE, net_id, key, count))
                via_usage[key] = count + 1
                if via_view[cell] == FREE:
                    if journal is not None:
                        journal.append((_J_VIA, cell, FREE))
                    via_view[cell] = net_id
                    new_via = True
        if fresh or new_via:
            self._connectivity.note_path_added(net_id, fresh, touch)

    def remove_path(self, net_id: int, path: GridPath) -> None:
        """Release ``path``'s claim; frees cells whose count drops to zero.

        Pin nodes keep their standing pin reference and therefore survive.
        Like :meth:`commit_path`, the whole request is checked before any
        write, so a refused rip leaves the grid untouched.
        """
        height, width = self.height, self.width
        usage = self._usage[net_id]
        via_usage = self._via_usage[net_id]
        nodes = path.nodes
        via_keys: List[Point] = []
        prev_layer = None
        for node in nodes:
            x, y, layer = node
            if not (0 <= x < width and 0 <= y < height):
                raise GridError(
                    f"net {net_id} path leaves the {width}x{height} grid "
                    f"at {tuple(node)}"
                )
            if usage.get(node, 0) <= 0:
                raise GridError(
                    f"net {net_id} does not own {tuple(node)}; cannot rip"
                )
            if prev_layer is not None and layer is not prev_layer:
                key = tuple.__new__(Point, (x, y))
                if via_usage.get(key, 0) <= 0:
                    raise GridError(
                        f"net {net_id} does not own via at {(x, y)}; "
                        "cannot rip"
                    )
                via_keys.append(key)
            prev_layer = layer

        journal = self._journal
        occ, occ_view = self._occ_flat, self._occ_view
        freed = False
        for node in nodes:
            count = usage.get(node, 0)
            if journal is not None:
                journal.append((_J_USE, net_id, node, count))
            if count != 1:
                usage[node] = count - 1
                continue
            del usage[node]
            x, y, layer = node
            index = (layer * height + y) * width + x
            if journal is not None:
                journal.append((_J_OCC, index, occ[index]))
            occ[index] = FREE
            occ_view[index] = FREE
            freed = True
        via_view = self._via_view
        for key in via_keys:
            count = via_usage.get(key, 0)
            if journal is not None:
                journal.append((_J_VUSE, net_id, key, count))
            if count != 1:
                via_usage[key] = count - 1
                continue
            del via_usage[key]
            index = key[1] * width + key[0]
            if journal is not None:
                journal.append((_J_VIA, index, int(via_view[index])))
            via_view[index] = FREE
            freed = True
        if freed:
            # A union-find cannot split: mark the net for a scoped
            # re-flood on its next connectivity query.
            self._connectivity.note_removed(net_id)

    # ------------------------------------------------------------------
    # Snapshots (the coarse, whole-grid undo; transactions are the cheap one)
    # ------------------------------------------------------------------
    def clone(self) -> "RoutingGrid":
        """Deep copy of the grid, usable as an undo point.

        O(area); the router uses this only for its coarse best-state
        bookmark.  Per-attempt undo goes through the O(path) transaction
        journal instead.
        """
        copy = RoutingGrid.__new__(RoutingGrid)
        copy.width = self.width
        copy.height = self.height
        copy._occ = self._occ.copy()
        copy._via = self._via.copy()
        copy._pin = self._pin.copy()
        copy._occ_view = copy._occ.reshape(-1)
        copy._pin_view = copy._pin.reshape(-1)
        copy._via_view = copy._via.reshape(-1)
        copy._occ_flat = list(self._occ_flat)
        copy._pin_flat = list(self._pin_flat)
        copy._buffer_addresses = None
        copy._usage = _copy_usage(self._usage)
        copy._via_usage = _copy_usage(self._via_usage)
        copy._journal = None
        copy._journal_peak = 0
        # A fresh index marked all-dirty is cheaper than copying the live
        # structure; snapshots are queried rarely (if ever) before mutation.
        copy._connectivity = ConnectivityIndex(copy)
        copy._connectivity.invalidate_all()
        return copy

    def restore(self, snapshot: "RoutingGrid") -> None:
        """Reset this grid to the state captured by :meth:`clone`."""
        if (snapshot.width, snapshot.height) != (self.width, self.height):
            raise GridError("snapshot geometry mismatch")
        if self._journal is not None:
            raise GridError("cannot restore() while a transaction is open")
        self._occ[...] = snapshot._occ
        self._via[...] = snapshot._via
        self._pin[...] = snapshot._pin
        self._occ_flat[:] = snapshot._occ_flat
        self._pin_flat[:] = snapshot._pin_flat
        self._usage = _copy_usage(snapshot._usage)
        self._via_usage = _copy_usage(snapshot._via_usage)
        self._connectivity.invalidate_all()

    # ------------------------------------------------------------------
    # Connectivity (incremental index; BFS oracle kept for reference)
    # ------------------------------------------------------------------
    def same_component(
        self,
        net_id: int,
        a: Tuple[int, int, int],
        b: Tuple[int, int, int],
    ) -> bool:
        """True when ``a`` and ``b`` are both owned by ``net_id`` and
        connected through its copper.

        Answered by the incremental connectivity index: O(log component)
        after at most one scoped re-flood of the net's copper — never a
        whole-grid flood.  Agrees with :meth:`connected_component`
        membership on every honestly-maintained grid (the differential
        tests assert this bit-for-bit).
        """
        ax, ay, _ = a
        bx, by, _ = b
        if not (self.in_bounds(ax, ay) and self.in_bounds(bx, by)):
            return False
        ia = self._flat_index(a)
        ib = self._flat_index(b)
        occ = self._occ_flat
        if occ[ia] != net_id or occ[ib] != net_id:
            return False
        return self._connectivity.same_component(net_id, ia, ib)

    def component_nodes(
        self, net_id: int, seed: Tuple[int, int, int]
    ) -> List[GridNode]:
        """Nodes of the ``net_id`` component containing ``seed``, as a
        cached flat list (empty when ``seed`` is not owned by the net).

        The list is shared with the index's cache: treat it as read-only.
        Use :meth:`connected_component` when a mutable set is wanted.
        """
        x, y, _ = seed
        if not self.in_bounds(x, y):
            return []
        idx = self._flat_index(seed)
        if self._occ_flat[idx] != net_id:
            return []
        return self._connectivity.component_nodes(net_id, idx)

    def refresh_connectivity(self, net_id: Optional[int] = None) -> None:
        """Force the index to re-derive from the occupancy/via arrays.

        With ``net_id`` one net is invalidated, otherwise every net.  The
        independent verifier calls this before its connectivity checks so
        its queries re-flood from the copper itself instead of trusting
        incrementally-maintained state.
        """
        if net_id is None:
            self._connectivity.invalidate_all()
        else:
            self._connectivity.invalidate(net_id)

    @property
    def connectivity_index(self) -> ConnectivityIndex:
        """The live index (exposed for tests and diagnostics)."""
        return self._connectivity

    def connected_component(
        self, net_id: int, seed: Tuple[int, int, int]
    ) -> Set[GridNode]:
        """Nodes of ``net_id`` reachable from ``seed`` through its copper.

        Adjacency is a unit wire step on the same layer, or a layer change at
        a cell where the net owns a via.

        This is the from-scratch BFS reference implementation — O(component)
        per call.  Hot paths (router, improvement pass, verifier) use the
        incremental index via :meth:`same_component`/:meth:`component_nodes`;
        the BFS remains the oracle the differential tests compare against.
        """
        seed_node = GridNode(seed[0], seed[1], Layer(seed[2]))
        if self.owner(seed_node) != net_id:
            return set()
        seen = {seed_node}
        stack = [seed_node]
        while stack:
            node = stack.pop()
            candidates = [
                GridNode(node.x + 1, node.y, node.layer),
                GridNode(node.x - 1, node.y, node.layer),
                GridNode(node.x, node.y + 1, node.layer),
                GridNode(node.x, node.y - 1, node.layer),
            ]
            if (
                self.in_bounds(node.x, node.y)
                and self.via_owner(node.x, node.y) == net_id
            ):
                candidates.append(GridNode(node.x, node.y, node.layer.other))
            for cand in candidates:
                if cand not in seen and self.owner(cand) == net_id:
                    seen.add(cand)
                    stack.append(cand)
        return seen

    @staticmethod
    def _check_net_id(net_id: int) -> None:
        if net_id <= 0:
            raise ValueError(f"net ids must be positive, got {net_id}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nets = len([n for n in self._usage if self._usage[n]])
        return f"RoutingGrid({self.width}x{self.height}, nets={nets})"

    def iter_nodes(self) -> Iterator[GridNode]:
        """Yield every grid node (both layers, row-major)."""
        for layer in (Layer.HORIZONTAL, Layer.VERTICAL):
            for y in range(self.height):
                for x in range(self.width):
                    yield GridNode(x, y, layer)
