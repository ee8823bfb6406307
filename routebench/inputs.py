"""Seeded input draws for the three workloads.

The program only ever sees the generated problems: every draw is a pure
function of ``(seed, size)``, made before anything is timed, and uses
the library's own public generators.  Draws are built from fixed-
composition *blocks* so that two seeds give different instances in the
same proportions, which keeps medians comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: batch-mixed block: (class, count).  Three quarters of each block is
#: routine; the last five are congested (rip-up, escalation, and for
#: channels the classical fallback cascade).
BATCH_BLOCK: Tuple[Tuple[str, int], ...] = (
    ("woven-sb", 8),
    ("woven-region", 4),
    ("sparse-sb", 3),
    ("vcg-channel", 2),
    ("channel", 1),
    ("random-sb", 1),
    ("dense-sb", 1),
)

#: region-560 draws regions of the Deutsch class at an eighth of the 560
#: columns: region latency varies threefold between instances, so the
#: median is steady from seed to seed only over a hundred regions or more.
REGION_COLUMNS = 72
REGION_NETS = 64


@dataclass
class Op:
    """One routing request of a closed-loop workload."""

    op_id: str
    kind: str
    problem: object  # repro.netlist.problem.RoutingProblem
    channel_spec: Optional[object] = None
    tracks: Optional[int] = None


def _batch_instance(kind: str, sub: int):
    from repro.netlist.generators import (
        random_channel,
        random_switchbox,
        woven_region_problem,
        woven_switchbox,
    )

    if kind == "sparse-sb":
        return random_switchbox(10, 8, 8, seed=sub, fill=0.5).to_problem(), None
    if kind == "woven-sb":
        return woven_switchbox(10, 8, 6, seed=sub, tangle=0.3).to_problem(), None
    if kind == "woven-region":
        return woven_region_problem(seed=sub, width=16, height=12, n_nets=6,
                                    n_obstacles=2, tangle=0.6), None
    if kind == "dense-sb":
        return woven_switchbox(16, 16, 19, seed=sub, tangle=0.5).to_problem(), None
    if kind == "random-sb":
        return random_switchbox(12, 10, 10, seed=sub, fill=0.5).to_problem(), None
    if kind == "channel":
        return random_channel(20, 8, seed=sub, target_density=4,
                              allow_vcg_cycles=False), True
    if kind == "vcg-channel":
        return random_channel(12, 5, seed=sub), True
    raise ValueError(f"unknown batch class {kind!r}")


def batch_draw(seed: int, blocks: int) -> List[Op]:
    """``blocks`` shuffled copies of :data:`BATCH_BLOCK`, fresh instances each."""
    rng = random.Random(f"batch-mixed:{seed}")
    ops: List[Op] = []
    for _ in range(blocks):
        members = []
        for kind, count in BATCH_BLOCK:
            for _ in range(count):
                members.append((kind, rng.randrange(1 << 30)))
        rng.shuffle(members)
        for kind, sub in members:
            made, is_channel = _batch_instance(kind, sub)
            op_id = f"b{len(ops)}-{kind}-{sub}"
            if is_channel:
                spec, tracks = made, max(1, made.density)
                ops.append(Op(op_id, kind, spec.to_problem(tracks), spec, tracks))
            else:
                ops.append(Op(op_id, kind, made))
    return ops


def region_draw(seed: int, count: int) -> List[Op]:
    """``count`` Deutsch-class regions (window-localised nets, 3 slack tracks)."""
    from repro.netlist.generators import deutsch_class_region

    rng = random.Random(f"region-560:{seed}")
    ops = []
    for index in range(count):
        sub = rng.randrange(1 << 30)
        problem = deutsch_class_region(
            seed=sub, n_columns=REGION_COLUMNS, n_nets=REGION_NETS
        )
        ops.append(Op(f"r{index}-{sub}", "deutsch-region", problem))
    return ops


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def _service_instance(rng: random.Random) -> dict:
    from repro.netlist.generators import woven_region_problem, woven_switchbox
    from repro.netlist.io import problem_to_dict

    sub = rng.randrange(1 << 30)
    if rng.random() < 0.75:
        problem = woven_switchbox(12, 9, 7, seed=sub, tangle=0.3).to_problem()
    else:
        problem = woven_region_problem(seed=sub, width=18, height=12,
                                       n_nets=6, n_obstacles=2, tangle=0.5)
    return problem_to_dict(problem)


def mirrored(payload: dict) -> dict:
    """Isomorphic twin: mirrored in x (pins, obstacles and region)."""
    width = payload["width"]

    def flip_rect(rect):
        x0, y0, x1, y1 = rect
        return [width - x1, y0, width - x0, y1]

    twin = {
        "name": payload["name"] + "-mirror",
        "width": width,
        "height": payload["height"],
        "nets": [
            {"name": net["name"],
             "pins": [[width - 1 - x, y, tag] for x, y, tag in net["pins"]]}
            for net in payload["nets"]
        ],
        "obstacles": [
            {"rect": flip_rect(o["rect"]), "layer": o["layer"]}
            for o in payload.get("obstacles", [])
        ],
    }
    if "region" in payload:
        twin["region"] = [flip_rect(rect) for rect in payload["region"]]
    return twin


def relabelled(payload: dict) -> dict:
    """Isomorphic twin: nets renamed and listed in reverse order."""
    twin = dict(payload)
    twin["name"] = payload["name"] + "-relabel"
    twin["nets"] = [
        {"name": f"t{index}-{net['name']}", "pins": net["pins"]}
        for index, net in enumerate(reversed(payload["nets"]))
    ]
    return twin


@dataclass
class Job:
    """One scheduled submission of the open-loop service workload."""

    index: int
    at_s: float  # send time, relative to the start of the schedule
    payload: dict
    variant: str  # "new" | "repeat" | "mirror" | "relabel"
    origin: int  # index of the job that first sent this instance


def service_schedule(
    seed: int,
    jobs: int,
    rate: float,
    hit_share: float,
    min_gap_s: float = 1.5,
) -> List[Job]:
    """A fixed-rate schedule in which earlier instances recur.

    A recurrence (verbatim repeat, mirrored or relabelled twin) refers
    only to an instance first sent at least ``min_gap_s`` earlier, so its
    original has completed and been cached by the time it arrives: the
    hit share is a property of the schedule, not of timing.
    """
    rng = random.Random(f"service-mix:{seed}")
    gap = int(min_gap_s * rate)
    first_seen: List[Tuple[int, dict]] = []
    schedule: List[Job] = []
    for index in range(jobs):
        eligible = [entry for entry in first_seen if index - entry[0] >= gap]
        if eligible and rng.random() < hit_share:
            origin, base = rng.choice(eligible)
            variant = rng.choice(("repeat", "mirror", "relabel"))
            payload = {"repeat": lambda p: p, "mirror": mirrored,
                       "relabel": relabelled}[variant](base)
        else:
            payload = _service_instance(rng)
            payload["name"] = f"svc{index}-{payload['name']}"
            first_seen.append((index, payload))
            origin, variant = index, "new"
        schedule.append(Job(index, index / rate, payload, variant, origin))
    return schedule


def warmup_payloads(seed: int, count: int) -> List[dict]:
    """Distinct instances used only to give every worker its first job."""
    rng = random.Random(f"service-warmup:{seed}")
    out = []
    for index in range(count):
        payload = _service_instance(rng)
        payload["name"] = f"warm{index}-{payload['name']}"
        out.append(payload)
    return out
