"""Per-search split of the search call path: C loop, marshalling, wrapper.

Routes a routebench draw in this process with the ``compiled`` backend
and times three nested layers of every A* search from outside the
program:

* the C entry point (``repro.maze.kernels.compiled._astar``): the C loop;
* the backend's ``astar_search``, minus the C loop: ctypes marshalling;
* ``find_path`` as the router calls it, minus ``astar_search``: the
  wrapper (endpoint validation, path decoding, ``GridPath``).

Run from the root of a checkout::

    PYTHONPATH=src:. python benchmarks/search_call_split.py --workload batch-mixed
    PYTHONPATH=src:. python benchmarks/search_call_split.py --workload region-560

``region-560`` routes its shards in-process (``shard_workers=1``), so
every search is timed here.  Prints microseconds per search for each
layer, from the fastest of ``--passes`` passes over the draw.  Each timer
adds one Python call to the layer that contains it.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro import EngineConfig, RoutingEngine
from repro.core import router
from repro.maze import astar, kernels
from repro.maze.kernels import compiled
from routebench import inputs

perf = time.perf_counter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("batch-mixed", "region-560"),
                        default="batch-mixed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", type=int, default=10,
                        help="batch blocks or regions in the draw")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()

    spent = {"c": 0.0, "kernel": 0.0, "find_path": 0.0, "searches": 0}
    c_loop, backend = compiled._astar, kernels.resolve_kernel("compiled")
    find_path = router.find_path

    def timed_c(address):
        started = perf()
        try:
            return c_loop(address)
        finally:
            spent["c"] += perf() - started

    def timed_kernel(*a, **kw):
        started = perf()
        try:
            return backend.astar_search(*a, **kw)
        finally:
            spent["kernel"] += perf() - started
            spent["searches"] += 1

    def timed_find_path(*a, **kw):
        started = perf()
        try:
            return find_path(*a, **kw)
        finally:
            spent["find_path"] += perf() - started

    traced = dataclasses.replace(backend, astar_search=timed_kernel)
    compiled._astar = timed_c
    astar.resolve_kernel = lambda name=None: traced
    router.find_path = timed_find_path

    if args.workload == "batch-mixed":
        ops, route_kwargs = inputs.batch_draw(args.seed, args.size), {}
    else:
        ops = inputs.region_draw(args.seed, args.size)
        route_kwargs = {"shards": 4, "shard_workers": 1}
    kernels.select_backend("compiled")
    engine = RoutingEngine(EngineConfig())
    best = None
    for _ in range(args.passes):
        spent.update(c=0.0, kernel=0.0, find_path=0.0, searches=0)
        started = perf()
        for op in ops:
            engine.route(op.problem, channel_spec=op.channel_spec,
                         tracks=op.tracks, **route_kwargs)
        wall = perf() - started
        if best is None or wall < best[0]:
            best = (wall, dict(spent))
    wall, spent = best
    n = spent["searches"]
    us = 1e6 / n
    print(f"{args.workload} seed {args.seed}: {n} searches, "
          f"routing wall {wall:.2f} s")
    print(f"  C loop      {spent['c'] * us:7.1f} us/search")
    print(f"  marshalling {(spent['kernel'] - spent['c']) * us:7.1f} us/search")
    print(f"  wrapper     {(spent['find_path'] - spent['kernel']) * us:7.1f}"
          f" us/search")
    print(f"  find_path   {spent['find_path'] * us:7.1f} us/search")


if __name__ == "__main__":
    main()
