"""The stitch pass starts from the merged grid.

``merge_shard_paths`` hands its grid to the stitch router, which
registers the shard copper as pre-routed connections instead of
committing every path a second time on a fresh grid.  These tests pin
that the hand-over changes nothing the router decides — paths, counters
and events match a stitch that re-commits on a fresh grid — and that the
merge's transactions stay out of the stitch's journal peak.
"""

import pytest

from repro.core.decompose import partition_problem, shard_subproblem
from repro.core.router import MightyRouter, route_problem
from repro.core.shard import merge_shard_paths
from repro.grid.path import GridPath
from repro.netlist.generators import deutsch_class_region


def _candidates(problem):
    """Shard copper in pipeline order: shard by shard, net by net."""
    plan = partition_problem(problem, 4)
    assert plan is not None
    candidates = []
    for shard in plan.busy_shards:
        sub = shard_subproblem(problem, plan, shard)
        if sub is None:
            continue
        result = route_problem(sub)
        paths = {}
        for connection in result.connections:
            if connection.routed and connection.path is not None:
                paths.setdefault(connection.net_name, []).append(
                    connection.path
                )
        candidates += [
            (name, paths[name]) for name in shard.net_names if name in paths
        ]
    return candidates


def _trace(result):
    return (
        [
            (c.net_name, c.seq, c.routed,
             tuple(c.path.nodes) if c.path else None)
            for c in result.connections
        ],
        [(e.kind, e.net, e.detail) for e in result.events],
        result.stats.expansions,
        result.stats.searches,
        result.grid.occupancy().tolist(),
    )


@pytest.mark.parametrize("seed", [3, 7])
def test_stitch_on_merged_grid_matches_recommitting(seed):
    problem = deutsch_class_region(seed=seed, n_columns=72, n_nets=64)
    candidates = _candidates(problem)
    pre_routed, dropped, merged = merge_shard_paths(problem, candidates)
    assert pre_routed
    handed = MightyRouter(problem, grid=merged).route(pre_routed=pre_routed)
    fresh = MightyRouter(problem).route(pre_routed=pre_routed)
    assert _trace(handed) == _trace(fresh)
    # Pre-routed connections come last, in sorted net name then path
    # order: ``seq`` follows it, and ``seq`` orders rip-up victims.
    count = sum(len(paths) for paths in pre_routed.values())
    assert [c.net_name for c in handed.connections[-count:]] == [
        name for name in sorted(pre_routed) for _ in pre_routed[name]
    ]
    assert (
        handed.stats.peak_journal_depth == fresh.stats.peak_journal_depth
    )


def test_merge_drops_conflicts_and_resets_the_journal_peak():
    problem = deutsch_class_region(seed=3, n_columns=72, n_nets=64)
    candidates = _candidates(problem)
    pins = {
        tuple(pin.node) for net in problem.nets for pin in net.pins
    }
    name, node = next(
        (name, node)
        for name, paths in candidates
        for path in paths
        for node in path.nodes
        if tuple(node) not in pins
    )
    other = next(n for n, _ in candidates if n != name)
    # One wire cell of ``name`` claimed for ``other`` first: ``name``
    # must come back dropped, whole, with the grid untouched by it.
    stolen = [(other, [GridPath([node])])] + candidates
    pre_routed, dropped, grid = merge_shard_paths(problem, stolen)
    assert name in dropped and name not in pre_routed
    net_id = problem.net_id(name)
    own_pins = {tuple(pin.node) for pin in problem.nets[net_id - 1].pins}
    assert {tuple(n) for n in grid.net_nodes(net_id)} == own_pins
    assert grid.journal_peak_depth == 0 and not grid.in_txn
