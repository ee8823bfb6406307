"""The compiled kernel's cached buffer addresses follow the buffers.

The ``compiled`` backend reads the grid and the search planes through
data addresses looked up once and cached: the grid's occupancy and pin
buffers on the grid, the planes' buffers in the argument block kept with
the planes.  These tests drive one arena through every way a grid can
come by new buffers — a clone, a restore, a pickled round trip in this
process and through a pool worker started with ``spawn``, a grid of a
different shape — and require every compiled search to match ``pure``
bit for bit.
"""

import multiprocessing
import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.grid import GridError, GridPath, RoutingGrid
from repro.maze import CostModel, find_path, lee_route
from repro.maze import kernels
from repro.maze.arena import SearchArena

pytestmark = pytest.mark.skipif(
    "compiled" not in kernels.available_backends(),
    reason="compiled backend unavailable",
)

COST = CostModel(step_cost=1, wrong_way_penalty=2, via_cost=3,
                 conflict_penalty=20)


def _wired_grid(width, height, seed):
    """A grid with some nets' copper on it (straight runs, no pins)."""
    rng = random.Random(seed)
    grid = RoutingGrid(width, height)
    for net_id in range(1, 6):
        layer = rng.randrange(2)
        if layer == 0:
            y = rng.randrange(height)
            x0 = rng.randrange(width - 3)
            nodes = [(x, y, 0) for x in range(x0, x0 + 3)]
        else:
            x = rng.randrange(width)
            y0 = rng.randrange(height - 3)
            nodes = [(x, y, 1) for y in range(y0, y0 + 3)]
        try:
            grid.commit_path(net_id, GridPath(nodes))
        except GridError:  # crossed an earlier run
            continue
    return grid


def _queries(grid, seed, count=12):
    """Hard, soft (frozen nets, per-net penalties) and Lee queries; the
    last one starts from more sources than the source buffer first
    holds."""
    rng = random.Random(seed)
    free = [
        (x, y, layer)
        for layer in (0, 1)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.is_free((x, y, layer))
    ]
    queries = []
    for i in range(count):
        sources = rng.sample(free, 2)
        targets = rng.sample(free, 3)
        kind = ("hard", "soft", "lee")[i % 3]
        queries.append((kind, 9, sources, targets))
    many = rng.sample(free, min(len(free) - 1, 80))
    rest = [node for node in free if node not in many]
    queries.append(("hard", 9, many, rest[:1]))
    return queries


def _run(grid, queries, arena, kernel):
    out = []
    for kind, net_id, sources, targets in queries:
        if kind == "lee":
            path = lee_route(grid, net_id, sources, targets, arena=arena,
                             kernel=kernel)
            out.append(None if path is None else path.nodes)
            continue
        soft = kind == "soft"
        result = find_path(
            grid, net_id, sources, targets, cost=COST,
            allow_conflicts=soft,
            # ids past the first table size make the net tables grow
            frozen_nets=frozenset({2, 4, 90}) if soft else frozenset(),
            net_penalties={1: 7, 3: 130, 200: 1} if soft else None,
            arena=arena, kernel=kernel,
        )
        out.append((
            None if result.path is None else result.path.nodes,
            result.cost, result.expansions, result.exhausted,
            result.conflict_nodes,
        ))
    return out


def _both_backends(grid, queries, arena):
    return (_run(grid, queries, arena, "compiled"),
            _run(grid, queries, arena, "pure"))


def _worker_searches(grid, queries):
    """Runs in a pool worker: the grid arrives pickled."""
    return _both_backends(grid, queries, SearchArena())


class TestCachedAddressesFollowTheBuffers:
    def test_one_arena_across_clone_restore_pickle_and_shapes(self):
        arena = SearchArena()
        grid = _wired_grid(11, 9, seed=1)
        queries = _queries(grid, seed=2)
        compiled, pure = _both_backends(grid, queries, arena)
        assert compiled == pure

        # A clone has buffers of its own: mutate it so that reading the
        # original's buffers would show.
        snapshot = grid.clone()
        snapshot.commit_path(7, GridPath([(x, 4, 0) for x in range(11)]))
        compiled, pure = _both_backends(
            snapshot, _queries(snapshot, seed=3), arena
        )
        assert compiled == pure

        # restore() writes in place: the cached addresses stay right.
        before = grid.buffer_addresses()
        grid.commit_path(8, GridPath([(5, y, 1) for y in range(9)]))
        compiled, pure = _both_backends(grid, _queries(grid, seed=4), arena)
        assert compiled == pure
        grid.restore(_wired_grid(11, 9, seed=1))
        assert grid.buffer_addresses() == before
        compiled, pure = _both_backends(grid, queries, arena)
        assert compiled == pure

        # An in-process pickled round trip gets fresh buffers.
        copy = pickle.loads(pickle.dumps(grid))
        compiled, pure = _both_backends(copy, queries, arena)
        assert compiled == pure

        # Another shape gets other planes from the same arena, then the
        # first shape's planes serve again.
        other = _wired_grid(7, 13, seed=3)
        other_queries = _queries(other, seed=5)
        compiled, pure = _both_backends(other, other_queries, arena)
        assert compiled == pure
        compiled, pure = _both_backends(grid, queries, arena)
        assert compiled == pure

    def test_pool_worker_searches_an_unpickled_grid(self):
        grid = _wired_grid(11, 9, seed=5)
        queries = _queries(grid, seed=6)
        # Cache the addresses here first: they must not travel along.
        expected, _ = _both_backends(grid, queries, SearchArena())
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            compiled, pure = pool.submit(
                _worker_searches, grid, queries
            ).result(timeout=120)
        assert compiled == pure == expected

    def test_pickled_state_holds_no_address(self):
        grid = _wired_grid(11, 9, seed=7)
        (source, target), = _queries(grid, seed=8, count=1)[0][2:3]
        find_path(grid, 9, [source], [target], kernel="compiled")
        assert grid.buffer_addresses()
        state = grid.__getstate__()
        assert "_buffer_addresses" not in state
        assert not any(
            isinstance(value, tuple)
            and value == grid.buffer_addresses()
            for value in state.values()
        )
        copy = pickle.loads(pickle.dumps(grid))
        assert copy.buffer_addresses() != grid.buffer_addresses()
