"""One benchmark run: draw, drive, verify, and reduce to metrics."""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from routebench import inputs, layers, workloads
from routebench.refclock import RefClock
from routebench.spans import Tracer, install, install_client
from routebench.stats import tail_percentile, windowed_median

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())
SERVICE_BOOTS = 5
#: service-mix latency percentiles are taken per window of consecutive
#: jobs (about 5 s each in a 30 s run) and reduced by their median.
SERVICE_WINDOWS = 6
#: Wall time between reference samples (see refclock): a sample costs
#: about two milliseconds, so this keeps them near 2% of a run.
REF_INTERVAL_S = 0.1

#: Every per-layer metric, in report order; all are emitted on every
#: workload (0 where the workload bypasses the layer).
PER_LAYER = (
    "kernels.calls", "kernels.expansions", "kernels.expansions_per_call",
    "kernels.exhausted", "kernels.self_s", "kernels.wrapper_s",
    "router.search_s", "router.claims_s", "router.connectivity_s",
    "router.victims_s", "router.other_s", "router.iterations",
    "router.weak_mods", "router.strong_mods", "router.ripped",
    "router.peak_journal_depth", "router.useful_search_frac",
    "router.self_s",
    "shard.partition_s", "shard.fanout_s", "shard.slowest_shard_s",
    "shard.imbalance", "shard.merge_s", "shard.stitch_s", "shard.polish_s",
    "shard.remainder_s", "shard.dropped_nets", "shard.fallbacks",
    "shard.self_s",
    "engine.attempts", "engine.escalated_frac", "engine.channel_fallbacks",
    "engine.verify_s", "engine.overhead_s", "engine.self_s",
    "verify.calls", "verify.self_s",
    "service.hit_frac", "service.warm_problem_frac", "service.queue_wait_ms",
    "service.worker_ms", "service.server_ms", "service.transport_ms",
    "service.cache_ms", "service.shed", "service.gen_lag_ms",
    "service.self_s",
    "canonical.calls", "canonical.form_ms",
    "setup.import_s", "setup.kernel_s", "setup.kernel_build_s",
    "setup.boot_s",
    "engine.ops_per_s",
    "trace.overhead_frac",
)


#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = frozenset((
    "router.useful_search_frac", "service.hit_frac",
    "service.warm_problem_frac", "engine.ops_per_s",
))


def better_of(name: str) -> str:
    if name in SPEC["end_to_end"]:
        return SPEC["end_to_end"][name]["better"]
    return "higher" if name in HIGHER_IS_BETTER else "lower"


def unit_of(name: str) -> str:
    if name in SPEC["end_to_end"]:
        return SPEC["end_to_end"][name]["unit"]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(("imbalance", "_per_call")):
        return "ratio"
    return "count"


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    fingerprint: Optional[Dict[str, int]] = None
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, str] = field(default_factory=dict)


def run(args, setup: Dict[str, float], work: Path, env: Dict[str, str]) -> Outcome:
    sizes = workloads.sizes_for(
        args.seconds, args.smoke,
        SPEC["workloads"]["service-mix"]["offered_rate_per_s"])
    trace_dir = work / f"trace-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-mix":
            outcome = _service(args, sizes, setup, work, trace_dir, env)
        else:
            outcome = _closed(args, sizes, setup, trace_dir)
    finally:
        for entry in trace_dir.iterdir():
            entry.unlink()
        trace_dir.rmdir()
    if args.trace:
        outcome.notes.update(layers.UNMEASURED)
        outcome.metrics = {
            name: float(outcome.metrics.get(name, 0.0)) for name in PER_LAYER
        }
    return outcome


def _measured_seconds(args) -> float:
    """Routing time a closed-loop run measures (smoke runs stop early)."""
    return min(args.seconds, 2) if args.smoke else args.seconds


def _setup_layer(setup: Dict[str, float]) -> Dict[str, float]:
    return {
        "setup.import_s": setup["import_s"],
        "setup.kernel_s": setup["kernel_s"],
        "setup.kernel_build_s": setup["kernel_build_s"],
    }


# ----------------------------------------------------------------------
# batch-mixed and region-560
# ----------------------------------------------------------------------
def _closed(args, sizes, setup, trace_dir: Path) -> Outcome:
    spec = SPEC["workloads"][args.workload]
    if args.workload == "batch-mixed":
        ops = inputs.batch_draw(args.seed, sizes.batch_blocks)
        calibration = ops[: sizes.calibration_ops]
    else:
        ops = inputs.region_draw(args.seed, sizes.regions)
        calibration = ops[:2]

    notes: Dict[str, str] = {}
    if args.trace:
        overhead = _closed_overhead(args.workload, calibration, trace_dir)
        tracer = Tracer(str(trace_dir))
        install(tracer)
        try:
            # One pass: spans of every call stay in memory until the end.
            records, calls, mismatched = workloads.run_closed(
                args.workload, ops, 0, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(str(trace_dir.parent / f"spans-{args.workload}.json"))
        metrics = layers.span_metrics(tracer.spans)
        metrics.update(_setup_layer(setup))
        metrics["trace.overhead_frac"] = overhead
        metrics["engine.ops_per_s"] = len(calls) / sum(c[1] for c in calls)
        if args.workload == "region-560" and not tracer.child_spans_seen:
            notes["shard.worker_spans"] = (
                "shard workers did not fork with the wrappers; kernel and "
                "router time inside shards is missing from this trace"
            )
    else:
        clock = RefClock(REF_INTERVAL_S)
        records, calls, mismatched = workloads.run_closed(
            args.workload, ops, _measured_seconds(args), clock=clock)
        latency = clock.ref_ms([c[1] for c in calls],
                               [c[2] + c[1] / 2 for c in calls])
        metrics = _closed_metrics(records, calls, latency, setup, spec,
                                  strict=not args.smoke)
        wall = [1e3 * c[1] for c in calls]
        notes.update(_wall_notes(wall, clock, spec, strict=not args.smoke))
    notes["calls"] = str(len(calls))
    problems = [
        f"{r.op_id}: result does not verify clean" for r in records
        if not r.error and not r.verified
    ] + [f"{op_id}: a repeat call gave a different outcome"
         for op_id in mismatched]
    for r in records:
        if r.error:
            notes[f"error.{r.op_id}"] = r.error
    return Outcome(
        metrics=metrics,
        attempted=len(records),
        failed=sum(r.failed for r in records),
        fingerprint=workloads.fingerprint(records),
        problems=problems,
        notes=notes,
    )


def _wall_notes(wall_ms, clock, spec, strict) -> Dict[str, float]:
    """Raw wall-clock latencies and the host speed, for the provenance line."""
    return {
        "wall.p50_ms": statistics.median(wall_ms),
        "wall.tail_ms": tail_percentile(wall_ms, spec["tail_percentile"],
                                        strict=strict),
        "refclock.median_ms": clock.median_ms(),
        "refclock.samples": len(clock.samples()[0]),
    }


def _closed_metrics(records, calls, latency, setup, spec,
                    strict) -> Dict[str, float]:
    """End-to-end metrics; ``latency`` is each call's, in reference ms."""
    n = len(records)
    routed = sum(r.routed for r in records)
    limit = spec["slo_limit_ref_ms"]
    return {
        "setup_s": setup["setup_s"],
        "ok_frac": sum(not r.failed for r in records) / n,
        "complete_frac": sum(r.complete for r in records) / n,
        "wire_per_conn": sum(r.wire for r in records) / max(1, routed),
        "vias_per_conn": sum(r.vias for r in records) / max(1, routed),
        "p50_ref_ms": statistics.median(latency),
        "tail_ref_ms": tail_percentile(latency, spec["tail_percentile"],
                                       strict=strict),
        "slo_frac": sum(
            1 for call, lat in zip(calls, latency)
            if not records[call[0]].failed and lat <= limit
        ) / len(calls),
    }


def _closed_overhead(workload, ops, trace_dir: Path) -> float:
    """Traced over untraced wall of the same operations, minus one.

    After one warm-up call each, every operation runs once each way,
    alternating which goes first, so warm-cache effects cancel.
    """
    engine = workloads.make_engine()
    kwargs = workloads.route_kwargs_for(workload)
    for op in ops:  # first calls pay one-off lazy set-up: keep it out
        workloads.route_one(engine, op, **kwargs)
    walls = {False: 0.0, True: 0.0}
    for index, op in enumerate(ops):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            tracer = Tracer(str(trace_dir))
            if traced:
                install(tracer)
            try:
                record = workloads.route_one(engine, op, **kwargs)
            finally:
                tracer.uninstall()
            walls[traced] += record.latency_s
    return walls[True] / walls[False] - 1.0


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def _service(args, sizes, setup, work: Path, trace_dir: Path, env) -> Outcome:
    spec = SPEC["workloads"]["service-mix"]
    schedule = inputs.service_schedule(
        args.seed, sizes.service_jobs, spec["offered_rate_per_s"],
        spec["hit_share"]
    )
    extra = inputs.warmup_payloads(args.seed, 64 + sizes.calibration_ops)
    warmup, calibration = extra[:64], extra[64:]
    workers = min(2, os.cpu_count() or 1)
    base = str(work / f"svc-{os.getpid()}")
    boots = []

    def boot(traced: bool) -> workloads.Daemon:
        daemon = workloads.Daemon(base, workers, env,
                                  str(trace_dir) if traced else None)
        try:
            boots.append(daemon.start(warmup))
        except BaseException:
            daemon.stop()
            raise
        return daemon

    untraced_walls = []
    for index in range(SERVICE_BOOTS - 1):
        daemon = boot(False)
        try:
            if args.trace and index == SERVICE_BOOTS - 2:
                untraced_walls = _submit_walls(daemon, calibration)
        finally:
            daemon.stop()

    daemon = boot(bool(args.trace))
    tracer = None
    try:
        if args.trace:
            calibrating = Tracer(str(trace_dir))
            install_client(calibrating)
            try:
                traced_walls = _submit_walls(daemon, calibration)
            finally:
                calibrating.uninstall()
            tracer = Tracer(str(trace_dir))
            install_client(tracer)
        clock = RefClock(REF_INTERVAL_S)
        records, results = workloads.run_open(daemon, schedule, workers,
                                              clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
        daemon.stop()
    workloads.check_service(schedule, records, results)

    if args.trace:
        tracer.merge_children()  # the daemon's server-side spans
        tracer.dump(str(work / "spans-service-mix.json"))
        metrics = layers.span_metrics(tracer.spans)
        metrics.update(layers.service_metrics(tracer.spans, records))
        metrics.update(_setup_layer(setup))
        metrics["setup.boot_s"] = statistics.median(b["boot_s"] for b in boots)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls)
            / statistics.median(untraced_walls) - 1.0
        )
    else:
        metrics = _service_metrics(records, schedule, boots, spec, clock,
                                   strict=not args.smoke)

    notes = {
        "service.hit_share_scheduled": round(
            sum(job.variant != "new" for job in schedule) / len(schedule), 4),
        "service.connections": workers,
        "service.offered_rate_per_s": spec["offered_rate_per_s"],
    }
    if not args.trace:
        served = [1e3 * lat for lat, r in zip(
            workloads.service_latencies(records)["latency"], records)
            if not r.error]
        notes.update(_wall_notes(served, clock, spec, strict=not args.smoke))
    for r in records:
        if r.error:
            notes[f"error.job{r.index}"] = r.error
    problems = [
        f"job {r.index}: served result does not verify clean"
        for r, result in zip(records, results)
        if result is not None and not r.verified
    ] + [f"job {r.index}: {r.error}" for r in records
         if r.error.startswith("served a result")]
    return Outcome(
        metrics=metrics,
        attempted=len(records),
        failed=sum(r.failed for r in records),
        problems=problems,
        notes=notes,
    )


def _service_metrics(records, schedule, boots, spec, clock,
                     strict) -> Dict[str, float]:
    n = len(records)
    wall = workloads.service_latencies(records)["latency"]
    latency = clock.ref_ms(
        wall, [r.scheduled + lat / 2 for r, lat in zip(records, wall)])
    served = [lat for lat, r in zip(latency, records) if not r.error]
    # Quality counts each distinct instance once: a cache hit serves the
    # routing of an earlier job again, and counting it would weight
    # instances by how often the schedule happened to repeat them.
    distinct = [r for r, job in zip(records, schedule) if job.variant == "new"]
    routed = sum(r.routed for r in distinct)
    limit = spec["slo_limit_ref_ms"]
    return {
        # The daemon's own interpreter start, import and kernel load are
        # inside its boot; every worker's first job is inside ready_s.
        "setup_s": statistics.median(b["ready_s"] for b in boots),
        "ok_frac": sum(not r.failed for r in records) / n,
        "complete_frac": sum(r.complete for r in records) / n,
        "wire_per_conn": sum(r.wire for r in distinct) / max(1, routed),
        "vias_per_conn": sum(r.vias for r in distinct) / max(1, routed),
        # Percentiles per window of consecutive jobs, then their median:
        # see windowed_median.
        "p50_ref_ms": windowed_median(served, SERVICE_WINDOWS,
                                      statistics.median),
        "tail_ref_ms": windowed_median(
            served, SERVICE_WINDOWS,
            lambda window: tail_percentile(
                window, spec["tail_percentile"], strict=strict),
        ),
        "slo_frac": sum(
            1 for lat, r in zip(latency, records)
            if not r.failed and lat <= limit
        ) / n,
    }


def _submit_walls(daemon, payloads) -> List[float]:
    """Closed-loop wall of cache-bypassing submits (tracing calibration)."""
    walls = []
    for payload in payloads:
        started = perf_counter()
        daemon.client.submit(payload, no_cache=True)
        walls.append(perf_counter() - started)
    return walls
