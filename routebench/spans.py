"""Spans recorded from outside the program, at its public layer boundaries.

:class:`Tracer` wraps the functions where one layer calls the next
(kernel entry points, the maze search wrappers, ``MightyRouter.route``,
the shard pipeline stages, ``RoutingEngine.route``, the engine's
``verify_result``, the service client and the server's canonicalizer
and cache) and records one span per call: name, start, end, parent span
and the id of the instance or job being served.  Spans stay in memory
and are written out once, at the end of the run.

Forked shard workers inherit the wrappers; :meth:`Tracer.export_child`
ships each worker's spans back through a file in the trace directory,
and the parent merges them when the shard pipeline returns.  Under a
start method that does not fork, no file appears and the shard-internal
spans are reported as unmeasured.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

# Span row layout (lists, so the wrapper can close them in place).
NAME, START, END, PARENT, OP, EXTRA, PID = range(7)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.spans: List[list] = []
        self.op: Optional[str] = None  # instance / job id set by the workload loop
        self.pid = os.getpid()
        self.child_spans_seen = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._child_seq = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        extra: Optional[Callable] = None,
        op_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``extra(result, args, kwargs)`` may return a small JSON-able dict
        stored on the span (counters read from the returned value);
        ``op_of(args, kwargs)`` names the op when the caller's thread does
        not know it (server-side spans).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            op = op_of(args, kwargs) if op_of is not None else tracer.op
            row = [name, perf(), 0.0, stack[-1] if stack else -1, op, None,
                   os.getpid()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = perf()
                stack.pop()
            if extra is not None:
                row[EXTRA] = extra(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Forked shard workers
    # ------------------------------------------------------------------
    def export_child(self, fn: Callable) -> Callable:
        """Wrap a shard work unit so a forked worker ships its spans home."""
        tracer = self

        @functools.wraps(fn)
        def exporting(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return fn(*args, **kwargs)
            tracer._local.stack = []
            base = len(tracer.spans)
            try:
                return fn(*args, **kwargs)
            finally:
                rows = tracer.spans[base:]
                del tracer.spans[base:]
                for row in rows:
                    row[PARENT] = row[PARENT] - base if row[PARENT] >= base else -1
                tracer._child_seq += 1
                path = os.path.join(
                    tracer.trace_dir,
                    f"child-{os.getpid()}-{tracer._child_seq}.json",
                )
                with open(path + ".tmp", "w") as fh:
                    json.dump(rows, fh)
                os.replace(path + ".tmp", path)

        return exporting

    def merge_children(self) -> None:
        """Adopt the spans forked workers exported (parent side)."""
        for entry in sorted(os.listdir(self.trace_dir)):
            if not (entry.startswith("child-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.trace_dir, entry)
            with open(path) as fh:
                rows = json.load(fh)
            os.unlink(path)
            with self._lock:
                base = len(self.spans)
                for row in rows:
                    if row[PARENT] >= 0:
                        row[PARENT] += base
                    self.spans.append(row)
            self.child_spans_seen += len(rows)

    def dump(self, path: str) -> None:
        """Write every span out (called once, after the measured run)."""
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op",
                            "extra", "pid"],
                 "spans": self.spans},
                fh,
            )


# ----------------------------------------------------------------------
# What each layer's span keeps from the value it returned
# ----------------------------------------------------------------------
def _astar_extra(result, args, kwargs) -> Dict:
    _cost, expansions, exhausted, _indices = result
    return {"expansions": int(expansions), "exhausted": int(bool(exhausted))}


def _router_extra(result, args, kwargs) -> Dict:
    stats = result.stats
    return {
        "elapsed_s": stats.elapsed_s,
        "search_s": stats.phase_search_s,
        "claims_s": stats.phase_claims_s,
        "connectivity_s": stats.phase_connectivity_s,
        "victims_s": stats.phase_victims_s,
        "iterations": stats.iterations,
        "weak_mods": stats.weak_modifications,
        "strong_mods": stats.strong_modifications,
        "ripped": stats.ripped_connections,
        "peak_journal_depth": stats.peak_journal_depth,
        "searches": stats.searches,
        "routed": stats.routed_connections,
        "pre_routed": kwargs.get("pre_routed") is not None,
    }


def _pipeline_extra(result, args, kwargs) -> Dict:
    return {"shards": result.stats.shards, "shard_log": result.stats.shard_log}


def _engine_extra(result, args, kwargs) -> Dict:
    return {
        "stages": [rec.get("stage", "") for rec in result.stats.attempt_log],
        "attempt_s": sum(
            float(rec.get("elapsed_s", 0.0))
            for rec in result.stats.attempt_log
        ),
        "status": result.status,
    }


def _problem_op(args, kwargs) -> Optional[str]:
    problem = args[0] if args else kwargs.get("problem")
    return getattr(problem, "name", None)


def _render_op(args, kwargs) -> Optional[str]:
    payload = args[2] if len(args) > 2 else kwargs.get("problem_payload")
    return payload.get("name") if isinstance(payload, dict) else None


def _store_op(args, kwargs) -> Optional[str]:
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    problem = payload.get("problem") if isinstance(payload, dict) else None
    return problem.get("name") if isinstance(problem, dict) else None


def _submit_op(args, kwargs) -> Optional[str]:
    payload = args[1] if len(args) > 1 else kwargs.get("problem_payload")
    return payload.get("name") if isinstance(payload, dict) else None


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures.

    Only module attributes looked up at call time are patched, so the
    program's own code is untouched: uninstalling restores it exactly.
    """
    from repro.channels import yacr_lite
    from repro.core import improve, router, shard
    from repro.engine import supervisor
    from repro.maze import astar, kernels, lee

    wrapped_backends: Dict[str, kernels.KernelBackend] = {}

    def traced_resolver(original):
        def resolve(name=None):
            backend = original(name)
            cached = wrapped_backends.get(backend.name)
            if cached is None:
                cached = wrapped_backends[backend.name] = dataclasses.replace(
                    backend,
                    astar_search=tracer.wrap(
                        "kernels.astar", backend.astar_search, _astar_extra
                    ),
                    lee_search=tracer.wrap("kernels.lee", backend.lee_search),
                )
            return cached

        return resolve

    for module in (astar, lee):
        tracer.patch(module, "resolve_kernel",
                     traced_resolver(module.resolve_kernel))
    for module in (router, improve, yacr_lite):
        tracer.patch(module, "find_path",
                     tracer.wrap("search.find_path", module.find_path))
    tracer.patch(router.MightyRouter, "route",
                 tracer.wrap("router.route", router.MightyRouter.route,
                             _router_extra))
    tracer.patch(shard, "partition_problem",
                 tracer.wrap("shard.partition", shard.partition_problem))
    tracer.patch(shard, "shard_subproblem",
                 tracer.wrap("shard.subproblem", shard.shard_subproblem))
    tracer.patch(shard, "merge_shard_paths",
                 tracer.wrap("shard.merge", shard.merge_shard_paths))
    tracer.patch(shard, "improve_routing",
                 tracer.wrap("shard.polish", shard.improve_routing))
    tracer.patch(shard, "route_problem",
                 tracer.export_child(
                     tracer.wrap("shard.route_problem", shard.route_problem)))
    pipeline = tracer.wrap("shard.pipeline", shard.route_problem_sharded,
                           _pipeline_extra)

    @functools.wraps(shard.route_problem_sharded)
    def pipeline_and_merge(*args, **kwargs):
        try:
            return pipeline(*args, **kwargs)
        finally:
            tracer.merge_children()

    tracer.patch(shard, "route_problem_sharded", pipeline_and_merge)
    tracer.patch(supervisor.RoutingEngine, "route",
                 tracer.wrap("engine.route", supervisor.RoutingEngine.route,
                             _engine_extra))
    tracer.patch(supervisor, "verify_result",
                 tracer.wrap("verify.result", supervisor.verify_result))


def install_server(tracer: Tracer) -> None:
    """Wrap the daemon's canonicalizer and cache (inside the daemon process)."""
    from repro.service import cache, server

    tracer.patch(server, "canonical_form",
                 tracer.wrap("canonical.form", server.canonical_form,
                             op_of=_problem_op))
    tracer.patch(cache.CanonicalCache, "render",
                 tracer.wrap("service.cache_render",
                             cache.CanonicalCache.render, op_of=_render_op))
    tracer.patch(cache.CanonicalCache, "store",
                 tracer.wrap("service.cache_store",
                             cache.CanonicalCache.store, op_of=_store_op))


def install_client(tracer: Tracer) -> None:
    """Wrap the service client's submit (inside the load generator)."""
    from repro.service import client

    tracer.patch(client.ServiceClient, "submit",
                 tracer.wrap("service.submit", client.ServiceClient.submit,
                             op_of=_submit_op))
