"""The sharded pool of warm routing worker processes.

Each worker is a long-lived process running a take-one loop over its own
request queue — the same rebuild-at-the-worker discipline as
``repro bench --workers`` (closures and live grids do not pickle, so
jobs travel as JSON-compatible problem dicts and are rebuilt with
:func:`repro.netlist.io.problem_from_dict` inside the worker).  Warmth
is twofold: the process itself persists (imports, allocator pools and
the maze arenas' neighbor tables stay hot instead of being re-created
per job), and each worker keeps a small LRU of rebuilt
:class:`~repro.netlist.problem.RoutingProblem` objects keyed by a hash
of the **concrete problem payload**, so an exact repeat skips parsing
and validation.  The canonical digest must not be the warm key: it
names a whole isomorphism class, and reusing the first-seen member for
a mirrored/translated/renamed twin would route the wrong instance.

Jobs are **sharded by canonical digest**: isomorphic instances always
land on the same worker, which is what makes the per-worker warm cache
effective and keeps one pathological instance from thrashing every
shard.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import EngineError, ReproError
from repro.parallel import apply_faults, parse_faults

#: Problems kept warm per worker (rebuilt RoutingProblem objects).
WARM_PROBLEMS_PER_WORKER = 32

#: How often a blocked round trip re-checks that its worker is alive,
#: and an idle worker that its daemon is.
LIVENESS_POLL_S = 1.0

#: Environment variable carrying a deterministic worker fault schedule
#: (see :mod:`repro.testing.faults`).  Format: comma-separated
#: ``kind@job[:arg]`` terms — ``die@2:9`` makes each worker ``_exit(9)``
#: when it picks up its 2nd job, ``hang@3:60`` makes it sleep 60 s
#: before executing its 3rd.  Parsed once per worker process at start;
#: garbage terms are ignored.  This is a chaos-test hook, never set in
#: production.
SERVICE_FAULT_ENV = "REPRO_SERVICE_FAULTS"


def _warm_key(problem_payload: object) -> str:
    """Identity of one *concrete* problem payload.

    Distinct from the canonical digest on purpose: the digest names an
    isomorphism class, and two members of the class (which shard
    together) must not share a rebuilt problem object.
    """
    try:
        encoded = json.dumps(
            problem_payload, sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError):
        return ""  # unhashable payload: skip warmth, never mis-serve
    return hashlib.sha256(encoded.encode()).hexdigest()


def _execute_job(job: Dict, warm: "OrderedDict[str, object]") -> Dict:
    """Route one job dict; never raises (errors become envelopes)."""
    from repro.core.serialize import result_to_dict
    from repro.engine import EngineConfig, RoutingEngine
    from repro.netlist.io import FormatError, problem_from_dict
    from repro.netlist.problem import ProblemError

    started = time.perf_counter()
    key = _warm_key(job.get("problem"))
    warm_hit = bool(key) and key in warm
    try:
        if warm_hit:
            problem = warm[key]
            warm.move_to_end(key)
        else:
            try:
                problem = problem_from_dict(job["problem"])
            except (FormatError, ProblemError, KeyError, TypeError) as exc:
                from repro.errors import InputError

                raise InputError(
                    f"malformed problem payload: {exc}"
                ) from None
            if key:
                warm[key] = problem
                while len(warm) > WARM_PROBLEMS_PER_WORKER:
                    warm.popitem(last=False)
        options = job.get("options") or {}
        engine = RoutingEngine(
            EngineConfig(
                deadline_s=options.get("deadline_s"),
                max_attempts=int(options.get("max_attempts", 2)),
                enable_fallback=False,
            )
        )
        # shard_workers=1 always: warm workers are daemonic processes
        # and cannot fork a shard pool; the pipeline's in-process mode
        # keeps the result bit-identical to any worker count anyway.
        result = engine.route(
            problem,
            shards=int(options.get("shards", 1) or 1),
            shard_workers=1,
        )
        payload = result_to_dict(result)
        payload["stats"]["cache_hit"] = False
        return {
            "ok": True,
            "payload": payload,
            "warm_problem": warm_hit,
            "worker_wall_s": time.perf_counter() - started,
        }
    except ReproError as exc:
        return {
            "ok": False,
            "error": exc.to_dict(),
            "warm_problem": warm_hit,
            "worker_wall_s": time.perf_counter() - started,
        }
    except Exception as exc:  # supervised: a worker crash is telemetry
        return {
            "ok": False,
            "error": EngineError(
                f"worker crashed: {type(exc).__name__}: {exc}"
            ).to_dict(),
            "warm_problem": warm_hit,
            "worker_wall_s": time.perf_counter() - started,
        }


def _worker_main(shard: int, requests, responses) -> None:
    """Worker process entry point: drain jobs until the None sentinel.

    A worker whose daemon died without sending the sentinel (SIGKILL)
    notices within one ``LIVENESS_POLL_S`` and exits instead of waiting
    on its request queue forever.
    """
    # Two signals, because neither alone is prompt under every start
    # method.  The parent sentinel pipe reports the daemon's death under
    # fork, spawn and forkserver alike, but under fork a sibling started
    # after us inherits the daemon's end of our pipe and holds it open
    # until that sibling exits.  A parent pid change is immediate under
    # fork and spawn; under forkserver our parent is the fork server,
    # which exits with the daemon.
    parent = multiprocessing.parent_process()
    parent_pid = os.getppid()
    warm: "OrderedDict[str, object]" = OrderedDict()
    faults = parse_faults(os.environ.get(SERVICE_FAULT_ENV, ""))
    jobs_seen = 0
    while True:
        try:
            job = requests.get(timeout=LIVENESS_POLL_S)
        except queue_module.Empty:
            if not parent.is_alive() or os.getppid() != parent_pid:
                # Nobody reads the replies any more; do not let exit
                # wait on flushing them.
                responses.cancel_join_thread()
                break
            continue
        if job is None:
            break
        jobs_seen += 1
        if faults:
            apply_faults(faults, jobs_seen)
        reply = _execute_job(job, warm)
        reply["job_id"] = job.get("job_id")
        reply["shard"] = shard
        responses.put(reply)


class WorkerPool:
    """N warm worker processes, one request/response queue pair each.

    ``run(shard, job)`` is a blocking round trip intended to be called
    from executor threads (the server wraps it in
    ``loop.run_in_executor``).  A per-shard lock serialises access to
    each worker, so the lock-wait *is* the shard's queue: the time spent
    acquiring it is reported as ``queue_wait_s``.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.n_workers = n_workers
        ctx = multiprocessing.get_context()
        self._requests = [ctx.Queue() for _ in range(n_workers)]
        self._responses = [ctx.Queue() for _ in range(n_workers)]
        self._locks = [threading.Lock() for _ in range(n_workers)]
        self._processes = [
            ctx.Process(
                target=_worker_main,
                args=(i, self._requests[i], self._responses[i]),
                daemon=True,
            )
            for i in range(n_workers)
        ]
        for process in self._processes:
            process.start()
        self._closed = False
        # Mutated under shard locks; read lock-free by health telemetry.
        self.counters: Dict[str, int] = {
            "reaped": 0,
            "worker_deaths": 0,
            "respawned": 0,
        }

    def shard_for(self, digest: str) -> int:
        """Stable shard assignment by canonical digest."""
        if not digest:
            return 0
        return int(digest[:8], 16) % self.n_workers

    def run(
        self,
        shard: int,
        job: Dict,
        wall_ceiling_s: Optional[float] = None,
    ) -> Dict:
        """Blocking round trip to one shard; returns the reply envelope.

        The reply always carries ``queue_wait_s`` (time spent behind
        earlier jobs of the same shard) next to the worker's own
        ``worker_wall_s``.  A worker that dies mid-job surfaces as a
        structured :class:`~repro.errors.EngineError` (after the shard
        is respawned) instead of blocking this job — and every later
        job of the shard — forever.

        ``wall_ceiling_s`` is the hung-job reaper: a worker still busy
        past that many seconds (the server passes job deadline + grace)
        is killed and respawned, and this job fails with a structured
        :class:`~repro.errors.EngineError` instead of occupying the
        shard indefinitely.  ``None`` disables reaping (jobs with no
        deadline are allowed to run forever, as documented).
        """
        if not 0 <= shard < self.n_workers:
            raise ValueError(f"no such shard {shard}")
        enqueued = time.perf_counter()
        with self._locks[shard]:
            queue_wait = time.perf_counter() - enqueued
            if self._closed:
                raise EngineError("worker pool is closed")
            self._requests[shard].put(job)
            reply = self._await_reply(shard, wall_ceiling_s)
        reply["queue_wait_s"] = queue_wait
        return reply

    def _await_reply(
        self, shard: int, wall_ceiling_s: Optional[float] = None
    ) -> Dict:
        """Wait on one shard's response queue, watching its liveness.

        Caller holds the shard lock.
        """
        started = time.monotonic()
        while True:
            timeout = LIVENESS_POLL_S
            if wall_ceiling_s is not None:
                remaining = wall_ceiling_s - (time.monotonic() - started)
                if remaining <= 0:
                    # The reply may have landed in the last instant;
                    # prefer it over killing a worker that finished.
                    try:
                        return self._responses[shard].get_nowait()
                    except queue_module.Empty:
                        pass
                    self._reap(shard)
                    raise EngineError(
                        f"worker shard {shard} reaped: job exceeded its "
                        f"wall ceiling",
                        context={
                            "shard": shard,
                            "wall_ceiling_s": wall_ceiling_s,
                            "reaped": True,
                            "respawned": not self._closed,
                        },
                    )
                timeout = min(LIVENESS_POLL_S, remaining)
            try:
                return self._responses[shard].get(timeout=timeout)
            except queue_module.Empty:
                process = self._processes[shard]
                if process.is_alive():
                    continue
                # The worker may have replied in the instant before it
                # died; drain that reply rather than losing it.
                try:
                    return self._responses[shard].get_nowait()
                except queue_module.Empty:
                    pass
                exitcode = process.exitcode
                self.counters["worker_deaths"] += 1
                self._respawn(shard)
                raise EngineError(
                    f"worker shard {shard} died mid-job",
                    context={
                        "shard": shard,
                        "exitcode": exitcode,
                        "respawned": not self._closed,
                    },
                )

    def _reap(self, shard: int) -> None:
        """Kill a wedged worker and replace it.  Caller holds the lock."""
        process = self._processes[shard]
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # ignoring SIGTERM: escalate
                process.kill()
                process.join(1.0)
        self.counters["reaped"] += 1
        self._respawn(shard)

    def _respawn(self, shard: int) -> None:
        """Replace a dead worker with a fresh process and fresh queues.

        Fresh queues, because the old ones may hold the stale job the
        dead worker never answered (or a torn put from its final
        moments).  Caller holds the shard lock.  No-op once closed.
        """
        if self._closed:
            return
        ctx = multiprocessing.get_context()
        self._requests[shard] = ctx.Queue()
        self._responses[shard] = ctx.Queue()
        process = ctx.Process(
            target=_worker_main,
            args=(shard, self._requests[shard], self._responses[shard]),
            daemon=True,
        )
        process.start()
        self._processes[shard] = process
        self.counters["respawned"] += 1

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop every worker: sentinel, join, terminate stragglers."""
        if self._closed:
            return
        self._closed = True
        for queue in self._requests:
            queue.put(None)
        deadline = time.monotonic() + timeout_s
        for process in self._processes:
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(1.0)

    def alive(self) -> List[bool]:
        """Liveness of each shard (health telemetry)."""
        return [process.is_alive() for process in self._processes]


def make_executor(n_slots: int) -> ThreadPoolExecutor:
    """Thread pool sized so shard locks, not threads, do the queueing."""
    return ThreadPoolExecutor(
        max_workers=max(4, n_slots), thread_name_prefix="repro-svc"
    )


def pool_smoke(n_workers: int = 2) -> Optional[str]:
    """Start and stop a pool; returns an error string or None (health)."""
    try:
        pool = WorkerPool(n_workers)
        pool.close()
        return None
    except Exception as exc:  # pragma: no cover - environment-specific
        return f"{type(exc).__name__}: {exc}"
