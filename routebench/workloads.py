"""The three workloads: how each drives the router and checks every answer.

``batch-mixed`` and ``region-560`` are closed loops through
``RoutingEngine.route`` in this process; ``service-mix`` is an open loop
against a ``RoutingService`` daemon process over its Unix socket.  Each
``run_*`` returns per-operation records; timing covers only the call
into the program, and every output is verified afterwards, outside the
timed region.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from routebench import inputs
from routebench.stats import open_loop_timing

perf = time.perf_counter


@dataclass
class Sizes:
    """How much one run does; fixed by ``--seconds`` (and ``--smoke``)."""

    batch_blocks: int
    regions: int
    service_jobs: int
    calibration_ops: int


def sizes_for(seconds: int, smoke: bool, service_rate: float) -> Sizes:
    """Draw sizes for a run of about ``seconds`` of measured work.

    The draw size, not the clock, fixes what a run computes, so the work
    fingerprint of a seed repeats exactly however fast the machine is;
    closed-loop workloads then cycle through their draw until
    ``seconds`` of routing time are measured.  The service schedule
    always holds at least 1000 jobs, so each of its six latency windows
    keeps more than ten jobs beyond its p90.
    """
    if smoke:
        return Sizes(batch_blocks=1, regions=2, service_jobs=40,
                     calibration_ops=4)
    return Sizes(
        batch_blocks=50,
        regions=max(2, 4 * seconds),
        service_jobs=max(1000, round(service_rate * seconds)),
        calibration_ops=20,
    )


# ----------------------------------------------------------------------
# Closed loop through the engine (batch-mixed, region-560)
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    op_id: str
    kind: str
    started: float = 0.0
    latency_s: float = 0.0
    error: str = ""
    status: str = ""
    verified: bool = False
    routed: int = 0
    wire: int = 0
    vias: int = 0
    expansions: int = 0
    searches: int = 0

    @property
    def failed(self) -> bool:
        """Raised, or returned a result that does not verify clean."""
        return bool(self.error) or not self.verified

    @property
    def complete(self) -> bool:
        return self.status == "complete" and self.verified


def check_result(record: OpRecord, result) -> None:
    """Verify one engine result and take its quality counters (untimed)."""
    from repro.analysis.metrics import layout_metrics
    from repro.analysis.verify import verify_result

    # Channel fallbacks may widen the channel; their result carries the
    # problem it actually routed, which is the one to check against.
    problem = result.problem
    record.status = result.status
    record.verified = bool(verify_result(problem, result).ok)
    layout = layout_metrics(problem, result.grid)
    record.wire = layout.wire_cells
    record.vias = layout.via_count
    record.routed = result.stats.routed_connections
    record.expansions = result.stats.expansions
    record.searches = result.stats.searches


def route_one(engine, op: inputs.Op, **route_kwargs) -> OpRecord:
    record = OpRecord(op.op_id, op.kind)
    record.started = started = perf()
    try:
        result = engine.route(
            op.problem, channel_spec=op.channel_spec, tracks=op.tracks,
            **route_kwargs,
        )
    except Exception as exc:  # counted as a failed operation, never fatal
        record.latency_s = perf() - started
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    record.latency_s = perf() - started
    check_result(record, result)
    return record


def make_engine():
    """The engine of the closed-loop workloads: no wall deadline.

    A deadline would make outcomes depend on timing; without one the
    work counters of a seed repeat exactly.
    """
    from repro import EngineConfig, RoutingEngine

    return RoutingEngine(EngineConfig())


def route_kwargs_for(workload: str) -> Dict:
    if workload == "region-560":
        return {"shards": 4, "shard_workers": min(4, os.cpu_count() or 1)}
    return {}


def run_closed(
    workload: str, ops: List[inputs.Op], seconds: float, tracer=None,
    clock=None,
) -> Tuple[List[OpRecord], List[Tuple[int, float, float]], List[str]]:
    """Route the draw, then keep cycling through it until ``seconds`` of
    routing time are measured.

    Returns the first pass's records (the deterministic outcome of the
    draw), ``(op index, latency, start)`` of every call of every pass,
    and the operations whose later passes disagreed with the first: the
    router is deterministic, so a repeat that differs is a defect, not
    noise.  A ``clock`` (:class:`routebench.refclock.RefClock`) takes its
    reference samples between calls.
    """
    engine = make_engine()
    kwargs = route_kwargs_for(workload)
    first: List[OpRecord] = []
    calls: List[Tuple[int, float, float]] = []
    mismatched: List[str] = []
    spent = 0.0
    passes = 0
    while passes == 0 or spent < seconds:
        for index, op in enumerate(ops):
            if passes and spent >= seconds:
                break
            if tracer is not None:
                tracer.op = f"{op.op_id}#{passes}"
            if clock is not None:
                clock.maybe_sample()
            record = route_one(engine, op, **kwargs)
            spent += record.latency_s
            calls.append((index, record.latency_s, record.started))
            if not passes:
                first.append(record)
            elif _outcome(record) != _outcome(first[index]):
                mismatched.append(op.op_id)
        passes += 1
    return first, calls, mismatched


def _outcome(record: OpRecord) -> tuple:
    return (record.error, record.status, record.verified, record.routed,
            record.wire, record.vias, record.expansions, record.searches)


def fingerprint(records: List[OpRecord]) -> Dict[str, int]:
    """Work and quality counters that must repeat exactly for a seed."""
    return {
        "ops": len(records),
        "expansions": sum(r.expansions for r in records),
        "searches": sum(r.searches for r in records),
        "complete": sum(r.complete for r in records),
        "wire": sum(r.wire for r in records),
        "vias": sum(r.vias for r in records),
    }


# ----------------------------------------------------------------------
# Open loop against the daemon (service-mix)
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    index: int
    variant: str
    scheduled: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    error: str = ""
    shed: bool = False
    telemetry: Dict = field(default_factory=dict)
    complete: bool = False
    verified: bool = False
    routed: int = 0
    wire: int = 0
    vias: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.error) or not self.verified


class Daemon:
    """One routing daemon in its own process, with a durable cache directory.

    The daemon is ``RoutingService`` behind its Unix socket, exactly what
    ``repro serve`` runs; a separate process keeps the load generator's
    threads from competing with the server for one interpreter lock.
    """

    def __init__(self, base_dir: str, workers: int, env: Dict[str, str],
                 trace_dir: Optional[str] = None) -> None:
        from repro.service import ServiceClient

        self.base_dir = base_dir
        shutil.rmtree(base_dir, ignore_errors=True)
        os.makedirs(base_dir)
        # A path relative to the working directory keeps the socket name
        # under the Unix-socket length limit wherever the checkout lives.
        self.socket_path = os.path.relpath(os.path.join(base_dir, "d.sock"))
        self.workers = workers
        self.client = ServiceClient(self.socket_path, timeout_s=60.0)
        command = [
            sys.executable, "-m", "routebench.daemon",
            "--socket", self.socket_path,
            "--cache-dir", os.path.join(base_dir, "cache"),
            "--workers", str(workers),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        self._command = command
        self._env = env
        self._proc: Optional[subprocess.Popen] = None

    def start(self, warmup: List[dict]) -> Dict[str, float]:
        """Boot, wait until healthy, then give every worker its first job."""
        from repro.errors import ServiceUnavailable

        started = perf()
        self._proc = subprocess.Popen(self._command, env=self._env,
                                      stdout=subprocess.DEVNULL)
        while True:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self._proc.returncode} during boot")
            try:
                self.client.health()
                break
            except ServiceUnavailable:
                if perf() - started > 60:
                    raise
                time.sleep(0.002)
        healthy = perf()
        seen = set()
        for payload in warmup:
            response = self.client.submit(payload, no_cache=True)
            seen.add(response["job"]["shard"])
            if len(seen) == self.workers:
                break
        else:
            raise RuntimeError("warm-up never reached every worker")
        return {"boot_s": healthy - started, "ready_s": perf() - started}

    def stop(self) -> None:
        """Drain the daemon and wait for it; kill it if it will not go."""
        from repro.errors import ReproError

        if self._proc is not None and self._proc.poll() is None:
            try:
                self.client.shutdown()
            except ReproError:
                self._proc.terminate()
            try:
                self._proc.wait(timeout=90)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
                raise RuntimeError("daemon did not drain within 90 s")
        shutil.rmtree(self.base_dir, ignore_errors=True)


def _send(client, job: inputs.Job, record: JobRecord,
          origin: float, clock=None) -> Optional[dict]:
    from repro.errors import ReproError, ServiceOverloaded

    record.scheduled = origin + job.at_s
    # A reference sample fits in the idle time before the next send.
    if clock is not None and record.scheduled - perf() > 0.005:
        clock.maybe_sample()
    delay = record.scheduled - perf()
    if delay > 0:
        time.sleep(delay)
    record.sent = perf()
    try:
        response = client.submit(job.payload)
    except ServiceOverloaded as exc:
        record.done = perf()
        record.shed = True
        record.error = f"shed: {exc}"
        return None
    except ReproError as exc:
        record.done = perf()
        record.error = f"{type(exc).__name__}: {exc}"
        return None
    record.done = perf()
    record.telemetry = response.get("job", {})
    return response.get("result")


def run_open(daemon: Daemon, schedule: List[inputs.Job], connections: int,
             clock=None):
    """Send ``schedule`` on time from ``connections`` threads.

    Thread ``k`` owns jobs ``k, k + connections, ...``: each connection
    waits for its reply before sending its next job, so a stall shows as
    lateness, which the latency (timed from the scheduled send) counts.
    """
    records = [JobRecord(job.index, job.variant) for job in schedule]
    results: List[Optional[dict]] = [None] * len(schedule)
    origin = perf() + 0.05

    def lane(k: int) -> None:
        for job in schedule[k::connections]:
            results[job.index] = _send(daemon.client, job, records[job.index],
                                       origin, clock)

    threads = [threading.Thread(target=lane, args=(k,))
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, results


def check_service(schedule: List[inputs.Job], records: List[JobRecord],
                  results: List[Optional[dict]]) -> None:
    """Rebuild every served payload and verify it against what was sent."""
    from repro.analysis.metrics import layout_metrics
    from repro.analysis.verify import verify_routing
    from repro.core.serialize import rebuild_grid
    from repro.netlist.io import problem_from_dict

    def shape(payload: dict):
        return (
            payload["width"], payload["height"],
            sorted((n["name"], sorted(map(tuple, n["pins"])))
                   for n in payload["nets"]),
        )

    for job, record, result in zip(schedule, records, results):
        if result is None:
            continue
        if shape(result["problem"]) != shape(job.payload):
            record.error = "served a result for a different problem"
            continue
        problem = problem_from_dict(result["problem"])
        grid = rebuild_grid(result)
        complete = result.get("status") == "complete"
        allowed = () if complete else {
            c["net"] for c in result["connections"] if not c["routed"]
        }
        record.verified = bool(
            verify_routing(problem, grid, allowed_open=allowed).ok
        )
        record.complete = complete and record.verified
        layout = layout_metrics(problem, grid)
        record.wire = layout.wire_cells
        record.vias = layout.via_count
        record.routed = sum(1 for c in result["connections"] if c["routed"])


def service_latencies(records: List[JobRecord]) -> Dict[str, List[float]]:
    return open_loop_timing(
        [r.scheduled for r in records],
        [r.sent for r in records],
        [r.done for r in records],
    )
