"""Differential check of the grid's path-granular claims.

:meth:`RoutingGrid.commit_path`, :meth:`~RoutingGrid.remove_path` and
:meth:`~RoutingGrid.reserve_pin` claim and release a whole walk at once:
one validation pass, one mutation loop, one connectivity call that hangs
every fresh node off one union-find root.  :class:`NodeByNodeGrid` below
keeps the older bookkeeping — every node and via claimed on its own, each
fresh node unioned with its owned neighbours — as a reference that lives
only here.  Random commit / remove / transaction storms drive both grids
with the same requests and compare after every step:

* the occupancy, pin and via planes;
* the per-net usage tables, key order included (component lists follow
  it, and search sources follow the component lists);
* component lists and ``same_component`` (also against the BFS oracle);
* that a refused request leaves both grids untouched;
* that rollback restores occupancy, usage and union-find parent/rank
  bit for bit;
* the journal peak: the path-granular journal never grows past the
  node-by-node one.

The storms include walks that re-enter their own net's copper and walks
that cross existing vias of their net.
"""

import random

import pytest

from repro.grid.connectivity import _J_UF
from repro.grid.layers import Layer
from repro.grid.path import GridNode, GridPath
from repro.grid.routing_grid import (
    _J_OCC,
    _J_PIN,
    _J_USE,
    _J_VIA,
    _J_VUSE,
    FREE,
    GridError,
    RoutingGrid,
)


class NodeByNodeGrid(RoutingGrid):
    """The node-by-node claim bookkeeping, kept as a test reference."""

    def _node_added(self, net_id, idx, x, y, layer):
        index = self._connectivity
        index._cache.pop(net_id, None)
        if net_id in index._dirty:
            return
        journal = self._journal
        parent, rank = index._parent, index._rank
        if journal is not None:
            journal.append((_J_UF, idx, parent[idx], rank[idx]))
        parent[idx] = idx
        rank[idx] = 0
        occ = self._occ_flat
        width, height = self.width, self.height
        for ok, other in (
            (x + 1 < width, idx + 1),
            (x > 0, idx - 1),
            (y + 1 < height, idx + width),
            (y > 0, idx - width),
        ):
            if ok and occ[other] == net_id:
                index._union(idx, other, journal)
        if int(self._via_view[y * width + x]) == net_id:
            plane = width * height
            other = idx + plane if idx < plane else idx - plane
            if occ[other] == net_id:
                index._union(idx, other, journal)

    def _via_added(self, net_id, x, y):
        index = self._connectivity
        index._cache.pop(net_id, None)
        if net_id in index._dirty:
            return
        idx0 = y * self.width + x
        plane = self.width * self.height
        occ = self._occ_flat
        if occ[idx0] == net_id and occ[idx0 + plane] == net_id:
            index._union(idx0, idx0 + plane, self._journal)

    def _index_of(self, node):
        x, y, layer = node
        if not self.in_bounds(x, y):
            raise GridError(f"off-grid {tuple(node)}")
        return (int(layer) * self.height + y) * self.width + x

    def reserve_pin(self, net_id, node):
        x, y, layer = node
        current = self.owner(node)
        if current not in (FREE, net_id):
            raise GridError(f"pin collides with {current}")
        key = GridNode(x, y, Layer(layer))
        index = self._index_of(key)
        usage = self._usage[net_id]
        if self._journal is not None:
            self._journal.append((_J_OCC, index, self._occ_flat[index]))
            self._journal.append((_J_PIN, index, self._pin_flat[index]))
            self._journal.append((_J_USE, net_id, key, usage.get(key, 0)))
        self._occ_view[index] = self._occ_flat[index] = net_id
        self._pin_view[index] = self._pin_flat[index] = net_id
        usage[key] = usage.get(key, 0) + 1
        if current == FREE:
            self._node_added(net_id, index, x, y, int(layer))

    def commit_path(self, net_id, path):
        indexed = [(self._index_of(node), node) for node in path]
        for index, node in indexed:
            if self._occ_flat[index] not in (FREE, net_id):
                raise GridError(f"collision at {tuple(node)}")
        vias = path.via_cells()
        for cell in vias:
            if self.via_owner(cell.x, cell.y) not in (FREE, net_id):
                raise GridError(f"via collision at {tuple(cell)}")
        journal = self._journal
        usage = self._usage[net_id]
        for index, node in indexed:
            if journal is not None:
                journal.append((_J_OCC, index, self._occ_flat[index]))
                journal.append((_J_USE, net_id, node, usage.get(node, 0)))
            was_free = self._occ_flat[index] == FREE
            self._occ_view[index] = self._occ_flat[index] = net_id
            usage[node] = usage.get(node, 0) + 1
            if was_free:
                self._node_added(net_id, index, node.x, node.y, node.layer)
        via_usage = self._via_usage[net_id]
        for cell in vias:
            index = cell.y * self.width + cell.x
            if journal is not None:
                journal.append((_J_VIA, index, int(self._via_view[index])))
                journal.append((_J_VUSE, net_id, cell, via_usage.get(cell, 0)))
            was_free = int(self._via_view[index]) == FREE
            self._via_view[index] = net_id
            via_usage[cell] = via_usage.get(cell, 0) + 1
            if was_free:
                self._via_added(net_id, cell.x, cell.y)

    def remove_path(self, net_id, path):
        usage = self._usage[net_id]
        via_usage = self._via_usage[net_id]
        indexed = [(self._index_of(node), node) for node in path]
        vias = path.via_cells()
        if any(usage.get(node, 0) <= 0 for _, node in indexed) or any(
            via_usage.get(cell, 0) <= 0 for cell in vias
        ):
            raise GridError("not owned; cannot rip")
        journal = self._journal
        freed = False
        for index, node in indexed:
            if journal is not None:
                journal.append((_J_USE, net_id, node, usage[node]))
            usage[node] -= 1
            if usage[node] == 0:
                del usage[node]
                if journal is not None:
                    journal.append((_J_OCC, index, self._occ_flat[index]))
                self._occ_view[index] = self._occ_flat[index] = FREE
                freed = True
        for cell in vias:
            if journal is not None:
                journal.append((_J_VUSE, net_id, cell, via_usage[cell]))
            via_usage[cell] -= 1
            if via_usage[cell] == 0:
                del via_usage[cell]
                index = cell.y * self.width + cell.x
                if journal is not None:
                    journal.append((_J_VIA, index, int(self._via_view[index])))
                self._via_view[index] = FREE
                freed = True
        if freed:
            self._connectivity.note_removed(net_id)


WIDTH, HEIGHT, NETS = 9, 7, 4


def _random_walk(rng, grid, net_id, length):
    """A legal walk that tends to start on, and return to, its net's copper
    and to change layer where its net already has a via."""
    owned = grid.net_nodes(net_id)
    if owned and rng.random() < 0.8:
        node = rng.choice(owned)
        x, y, layer = node.x, node.y, int(node.layer)
    else:
        x, y, layer = rng.randrange(WIDTH), rng.randrange(HEIGHT), 0
    nodes = [(x, y, layer)]
    for _ in range(length):
        via_here = grid.via_owner(x, y) == net_id
        if rng.random() < (0.6 if via_here else 0.15):
            layer = 1 - layer
        else:
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            if not (0 <= x + dx < WIDTH and 0 <= y + dy < HEIGHT):
                continue
            x, y = x + dx, y + dy
        if (x, y, layer) in nodes:
            break  # keep walks simple, as searches return them
        nodes.append((x, y, layer))
    return GridPath(nodes)


def _build(cls, pins):
    grid = cls(WIDTH, HEIGHT)
    grid.set_obstacle(4, 3)
    for net_id, node in pins:
        grid.reserve_pin(net_id, node)
    return grid


def _state(grid, ordered=True):
    """Planes and usage tables; ``ordered`` also pins usage key order
    (a rollback restores counts, re-inserting freed keys at the end)."""
    table = list if ordered else dict
    return (
        grid.occupancy().tolist(),
        grid.pin_map().tolist(),
        grid.via_map().tolist(),
        {n: table(u.items()) for n, u in grid._usage.items() if u},
        {n: table(u.items()) for n, u in grid._via_usage.items() if u},
    )


def _uf_state(grid):
    index = grid.connectivity_index
    return list(index._parent), list(index._rank)


def _assert_same(new, ref, rng):
    assert _state(new) == _state(ref)
    for net_id in range(1, NETS + 1):
        owned = new.net_nodes(net_id)
        for node in owned:
            listed = new.component_nodes(net_id, node)
            assert listed == ref.component_nodes(net_id, node)
            assert set(listed) == new.connected_component(net_id, node)
        for _ in range(6):
            if not owned:
                break
            a, b = rng.choice(owned), rng.choice(owned)
            assert new.same_component(net_id, a, b) == ref.same_component(
                net_id, a, b
            )


def _apply(grid, op, *args):
    try:
        getattr(grid, op)(*args)
    except GridError:
        return "refused"
    return "ok"


@pytest.mark.parametrize("seed", range(12))
def test_claim_storm_matches_node_by_node_reference(seed):
    rng = random.Random(seed)
    pins = []
    taken = {(4, 3, 0), (4, 3, 1)}
    while len(pins) < 3 * NETS:
        node = (rng.randrange(WIDTH), rng.randrange(HEIGHT), rng.randrange(2))
        if node not in taken:
            taken.add(node)
            pins.append((1 + len(pins) % NETS, node))
    new, ref = _build(RoutingGrid, pins), _build(NodeByNodeGrid, pins)
    committed = []  # (net_id, path) held by both grids
    saved = None
    refused = 0
    for step in range(160):
        roll = rng.random()
        if saved is None and roll < 0.12:
            saved = (
                _state(new, ordered=False), _uf_state(new), list(committed)
            )
            new.begin_txn()
            ref.begin_txn()
        elif saved is not None and roll < 0.22:
            if rng.random() < 0.5:
                new.rollback_txn()
                ref.rollback_txn()
                state, uf, committed = saved
                assert _state(new, ordered=False) == state
                assert _uf_state(new) == uf
            else:
                new.commit_txn()
                ref.commit_txn()
            saved = None
        elif committed and roll < 0.45:
            net_id, path = committed.pop(rng.randrange(len(committed)))
            assert _apply(new, "remove_path", net_id, path) == "ok"
            assert _apply(ref, "remove_path", net_id, path) == "ok"
        else:
            net_id = rng.randint(1, NETS)
            path = _random_walk(rng, new, net_id, rng.randint(1, 9))
            before = _state(new)
            outcome = _apply(new, "commit_path", net_id, path)
            assert _apply(ref, "commit_path", net_id, path) == outcome
            if outcome == "ok":
                committed.append((net_id, path))
            else:
                refused += 1
                assert _state(new) == before
        _assert_same(new, ref, rng)
    if saved is not None:
        new.commit_txn()
        ref.commit_txn()
    assert new.journal_peak_depth <= ref.journal_peak_depth
    assert refused > 0  # the storm exercised collisions too


def test_walk_through_own_via_and_copper():
    """A walk re-entering its net's copper and crossing its via joins
    the components it touches, and nothing else."""
    new, ref = RoutingGrid(6, 4), NodeByNodeGrid(6, 4)
    steps = [
        (1, GridPath([(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)])),
        (1, GridPath([(4, 3, 0), (5, 3, 0)])),
        (2, GridPath([(3, 0, 0), (3, 1, 0)])),
        # re-enters net 1 at (1,1,1), crosses its via at (1,0), then runs
        # to the separate (4,3)-(5,3) piece
        (1, GridPath([(1, 1, 1), (1, 0, 1), (1, 0, 0), (2, 0, 0),
                      (2, 1, 0), (2, 2, 0), (3, 2, 0), (4, 2, 0),
                      (4, 3, 0)])),
    ]
    for grid in (new, ref):
        for net_id, path in steps:
            grid.commit_path(net_id, path)
    rng = random.Random(0)
    _assert_same(new, ref, rng)
    assert new.same_component(1, (0, 0, 0), (5, 3, 0))
    assert not new.same_component(2, (3, 0, 0), (1, 0, 0))
    assert new.net_vias(1) == [(1, 0)]
    assert new._via_usage[1][(1, 0)] == 2
