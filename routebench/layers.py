"""Per-layer metrics of a traced run, computed from its spans and records.

Every per-layer metric is emitted on every workload; a layer the
workload bypasses reads 0 (its work and busy time really are zero), and
``UNMEASURED`` lists what cannot be seen from outside the program.
Times ending in ``_s`` are run totals; ``_ms`` values are per-job
medians; ``_frac`` values are ratios of counts.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

from routebench.spans import END, EXTRA, NAME, PARENT, START
from routebench.stats import percentile, self_times

#: Splits no span drawn from outside the program can make.
UNMEASURED = {
    "kernels.c_loop_vs_marshalling": (
        "the C loop and its ctypes marshalling run inside one entry point; "
        "splitting them needs spans inside the program (ROADMAP item 1)"
    ),
    "kernels.lee_expansions": "the Lee kernel returns only its path",
    "service.worker_internals": (
        "warm workers are separate processes whose spans are not exported; "
        "their time is read from job telemetry (service.worker_ms)"
    ),
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: List[list]) -> Dict[str, float]:
    """Kernel, router, shard, engine and verify metrics from the spans."""
    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    count = defaultdict(int)
    children = defaultdict(list)
    for index, row in enumerate(spans):
        name = row[NAME]
        total[name] += row[END] - row[START]
        self_total[name] += selfs[index]
        count[name] += 1
        if row[PARENT] >= 0:
            children[row[PARENT]].append(index)

    def extras(name):
        return [row[EXTRA] or {} for row in spans if row[NAME] == name]

    m: Dict[str, float] = {}
    astar = extras("kernels.astar")
    m["kernels.calls"] = count["kernels.astar"] + count["kernels.lee"]
    m["kernels.expansions"] = sum(e.get("expansions", 0) for e in astar)
    m["kernels.expansions_per_call"] = _ratio(
        m["kernels.expansions"], count["kernels.astar"]
    )
    m["kernels.exhausted"] = sum(e.get("exhausted", 0) for e in astar)
    m["kernels.self_s"] = self_total["kernels.astar"] + self_total["kernels.lee"]
    m["kernels.wrapper_s"] = self_total["search.find_path"]

    routers = extras("router.route")
    phases = ("search_s", "claims_s", "connectivity_s", "victims_s")
    for phase in phases:
        m[f"router.{phase}"] = sum(r.get(phase, 0.0) for r in routers)
    m["router.other_s"] = sum(
        r.get("elapsed_s", 0.0) - sum(r.get(p, 0.0) for p in phases)
        for r in routers
    )
    for key in ("iterations", "weak_mods", "strong_mods", "ripped"):
        m[f"router.{key}"] = sum(r.get(key, 0) for r in routers)
    m["router.peak_journal_depth"] = max(
        [r.get("peak_journal_depth", 0) for r in routers] or [0]
    )
    # Runs handed pre-routed copper (the shard stitch) count connections
    # they never searched for, so they stay out of the ratio.
    fresh = [r for r in routers if not r.get("pre_routed")]
    m["router.useful_search_frac"] = _ratio(
        sum(r.get("routed", 0) for r in fresh),
        sum(r.get("searches", 0) for r in fresh),
    )
    m["router.self_s"] = self_total["router.route"]

    m.update(_shard_metrics(spans, children))
    m["shard.self_s"] = sum(
        value for name, value in self_total.items()
        if name.startswith("shard.")
    )

    engines = extras("engine.route")
    m["engine.attempts"] = sum(len(e.get("stages", ())) for e in engines)
    m["engine.escalated_frac"] = _ratio(
        sum(1 for e in engines if len(e.get("stages", ())) > 1), len(engines)
    )
    m["engine.channel_fallbacks"] = sum(
        1 for e in engines for stage in e.get("stages", ())
        if stage.startswith("fallback")
    )
    m["engine.verify_s"] = total["verify.result"]
    m["engine.overhead_s"] = total["engine.route"] - sum(
        e.get("attempt_s", 0.0) for e in engines
    )
    m["engine.self_s"] = self_total["engine.route"]
    # Engine calls whose shard attempt did not deliver the final result
    # ran the whole-region cascade after it.
    m["shard.fallbacks"] += sum(
        1 for e in engines
        if e.get("stages", [""])[0] == "shard" and len(e["stages"]) > 1
    )
    m["verify.calls"] = count["verify.result"]
    m["verify.self_s"] = self_total["verify.result"]
    return m


def _shard_metrics(spans, children) -> Dict[str, float]:
    out = {
        key: 0.0 for key in (
            "partition_s", "fanout_s", "slowest_shard_s", "merge_s",
            "stitch_s", "polish_s", "remainder_s", "dropped_nets",
            "fallbacks",
        )
    }
    imbalance = []
    for index, row in enumerate(spans):
        if row[NAME] != "shard.pipeline":
            continue
        kids = [spans[k] for k in children[index]]
        extra = row[EXTRA] or {}
        wall = row[END] - row[START]

        def dur(name):
            return sum(k[END] - k[START] for k in kids if k[NAME] == name)

        partition, subs, merge = (dur("shard.partition"),
                                  dur("shard.subproblem"), dur("shard.merge"))
        out["partition_s"] += partition
        if extra.get("shards", 0) <= 1:
            out["fallbacks"] += 1  # the partitioner refused to cut
            continue
        log = extra.get("shard_log", [])
        walls = [r["wall_s"] for r in log if "shard" in r]
        stitch = sum(r["wall_s"] for r in log if r.get("stage") == "stitch")
        polish = sum(r["wall_s"] for r in log if r.get("stage") == "polish")
        last_sub = max((k[END] for k in kids if k[NAME] == "shard.subproblem"),
                       default=row[START])
        first_merge = min((k[START] for k in kids if k[NAME] == "shard.merge"),
                          default=last_sub)
        fanout = first_merge - last_sub
        out["fanout_s"] += fanout
        out["merge_s"] += merge
        out["stitch_s"] += stitch
        out["polish_s"] += polish
        out["remainder_s"] += wall - (partition + subs + fanout + merge
                                      + stitch + polish)
        out["dropped_nets"] += sum(r.get("dropped_nets", 0) for r in log)
        if walls:
            out["slowest_shard_s"] += max(walls)
            imbalance.append(max(walls) / statistics.mean(walls))
    result = {f"shard.{key}": value for key, value in out.items()}
    result["shard.imbalance"] = _median(imbalance)
    return result


def service_metrics(spans: List[list], records) -> Dict[str, float]:
    """Service and canonicalizer metrics from job telemetry and spans."""
    done = [r for r in records if not r.error]
    hits = [r for r in done if r.telemetry.get("cache") == "hit"]
    misses = [r for r in done if r.telemetry.get("cache") == "miss"]

    def server_total(r):
        t = r.telemetry
        return t.get("total_s", t.get("service_s", 0.0))

    def dur_ms(name):
        return [1e3 * (row[END] - row[START]) for row in spans
                if row[NAME] == name]

    lateness = [max(0.0, r.sent - r.scheduled) for r in records]
    canonical = dur_ms("canonical.form")
    render, store = dur_ms("service.cache_render"), dur_ms("service.cache_store")
    submit_self = [
        s for row, s in zip(spans, self_times(spans))
        if row[NAME] == "service.submit"
    ]
    return {
        "service.hit_frac": _ratio(len(hits), len(done)),
        "service.warm_problem_frac": _ratio(
            sum(1 for r in misses if r.telemetry.get("warm_problem")),
            len(misses),
        ),
        "service.queue_wait_ms": 1e3 * _median(
            r.telemetry.get("queue_wait_s", 0.0) for r in misses
        ),
        "service.worker_ms": 1e3 * _median(
            r.telemetry.get("service_s", 0.0) for r in misses
        ),
        "service.server_ms": 1e3 * _median(
            server_total(r) - r.telemetry.get("service_s", 0.0)
            - r.telemetry.get("queue_wait_s", 0.0)
            for r in misses
        ),
        "service.transport_ms": 1e3 * _median(
            (r.done - r.sent) - server_total(r) for r in done
        ),
        "service.cache_ms": _median(render) + _median(store),
        "service.shed": sum(1 for r in records if r.shed),
        "service.gen_lag_ms": 1e3 * (
            percentile(lateness, 0.99) if lateness else 0.0
        ),
        "service.self_s": sum(submit_self),
        "canonical.calls": len(canonical),
        "canonical.form_ms": _median(canonical),
    }
