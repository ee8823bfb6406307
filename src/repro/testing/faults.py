"""Deterministic fault injection for chaos-testing the routing stack.

The harness wraps the two trust boundaries of the router — the maze
searcher and the grid's claim bookkeeping — and breaks them on a precise,
reproducible schedule:

* **search failures** — from the Nth search on (or every Nth search), the
  searcher reports "no path" even when one exists, simulating a searcher
  bug or an exhausted search budget;
* **search errors** — alternatively the searcher *raises*, simulating an
  outright crash that the engine layer must supervise;
* **artificial slowdowns** — every search burns wall-clock time, so small
  deadlines trip deterministically in tests;
* **claim corruption** — after the Nth committed path, one freshly-claimed
  non-pin cell is overwritten with a bogus owner, exactly the class of
  bookkeeping rot the independent verifier exists to catch.

The **service layer** has its own trust boundaries — worker processes,
the wire protocol, the durable cache files — broken by a second family
of deterministic faults:

* **worker faults** (:class:`ServiceFaultPlan` / :func:`service_faults`)
  — schedule a warm routing worker to die (``os._exit``) or wedge
  (sleep) on exactly its Nth job, exercising the pool's dead-worker
  respawn and the hung-job reaper;
* **file corruption** (:func:`truncate_file`, :func:`flip_byte`) — tear
  the tail off a cache journal the way a crash mid-append does, or flip
  one byte the way a decaying disk does, exercising the store's
  corruption-tolerant replay.

The **process pool** shared by shard routing, width sweeps and the bench
(:class:`repro.parallel.ProcessExecutor`) is broken the same way:
:class:`PoolFaultPlan` / :func:`pool_faults` schedule a pool worker to
die or wedge on exactly its Nth task, exercising the structured
dead-worker error and the deadline-bounded wait.

Everything is counter-driven (no randomness, no real clocks needed — see
:class:`StepClock`), so a chaos test that fails once fails every time.

Usage::

    plan = FaultPlan(fail_searches_after=5)
    with FaultInjector(plan) as chaos:
        result = RoutingEngine().route(problem)
    assert chaos.searches >= 5 and result.status == "partial"
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import EngineError
from repro.grid.routing_grid import RoutingGrid
from repro.maze.astar import SearchResult
from repro.service.workers import SERVICE_FAULT_ENV

#: Owner id written into corrupted cells; outside any real problem's range.
CORRUPT_OWNER = 9999


@dataclass(frozen=True)
class FaultPlan:
    """What to break and when (all schedules are deterministic counters).

    Attributes
    ----------
    fail_searches_after:
        Every search from the Nth onward (1-based) finds nothing.
    fail_searches_every:
        Every Nth search finds nothing (combinable with the above).
    raise_search_errors:
        Scheduled search failures *raise* :class:`EngineError` instead of
        returning a clean "no path" — the crash flavour of the same fault.
    slow_search_s:
        Seconds of artificial delay added to every search.
    corrupt_claim_after:
        After the Nth committed path (1-based), overwrite one of its
        non-pin cells with :data:`CORRUPT_OWNER`.
    """

    fail_searches_after: Optional[int] = None
    fail_searches_every: Optional[int] = None
    raise_search_errors: bool = False
    slow_search_s: float = 0.0
    corrupt_claim_after: Optional[int] = None

    def __post_init__(self) -> None:
        for attr in ("fail_searches_after", "fail_searches_every",
                     "corrupt_claim_after"):
            value = getattr(self, attr)
            if value is not None and value < 1:
                raise ValueError(f"{attr} must be >= 1, got {value}")
        if self.slow_search_s < 0:
            raise ValueError("slow_search_s must be non-negative")


class StepClock:
    """A fake monotonic clock advancing ``step`` seconds per reading.

    Inject into :class:`~repro.engine.deadline.Deadline` to make timeout
    behaviour fully deterministic: a deadline of ``budget_s`` on a
    ``StepClock(step)`` expires after exactly ``budget_s / step`` polls,
    independent of the host's speed.
    """

    def __init__(self, step: float = 1.0, start: float = 0.0) -> None:
        self.step = step
        self.now = start

    def __call__(self) -> float:
        """Return the current fake time, then advance it by one step."""
        current = self.now
        self.now += self.step
        return current


class FaultInjector:
    """Context manager installing a :class:`FaultPlan` around the router.

    While active, ``repro.core.router``'s view of the maze searcher and
    :meth:`RoutingGrid.commit_path` are replaced process-wide with
    fault-injecting wrappers; both are restored on exit (exceptions
    included).  Counters and the corruption log stay readable after exit:

    ``searches``
        Searches the router issued.
    ``failed_searches``
        Searches the plan turned into failures/errors.
    ``commits``
        Paths committed to any grid.
    ``corrupted_nodes``
        ``(x, y, layer)`` cells overwritten by claim corruption.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.searches = 0
        self.failed_searches = 0
        self.commits = 0
        self.corrupted_nodes: List[Tuple[int, int, int]] = []
        self._real_find_path = None
        self._real_commit = None

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        """Install the wrappers."""
        import repro.core.router as router_module

        self._router_module = router_module
        self._real_find_path = router_module.find_path
        self._real_commit = RoutingGrid.commit_path
        router_module.find_path = self._find_path
        RoutingGrid.commit_path = _make_commit_wrapper(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Restore the real searcher and grid commit."""
        self._router_module.find_path = self._real_find_path
        RoutingGrid.commit_path = self._real_commit
        return None

    # ------------------------------------------------------------------
    # Fault delivery
    # ------------------------------------------------------------------
    def _search_fails(self) -> bool:
        """Whether the current (already-counted) search is scheduled to fail."""
        plan = self.plan
        if (
            plan.fail_searches_after is not None
            and self.searches >= plan.fail_searches_after
        ):
            return True
        return (
            plan.fail_searches_every is not None
            and self.searches % plan.fail_searches_every == 0
        )

    def _find_path(self, *args, **kwargs) -> SearchResult:
        """The wrapped searcher: count, slow down, fail on schedule."""
        self.searches += 1
        if self.plan.slow_search_s:
            time.sleep(self.plan.slow_search_s)
        if self._search_fails():
            self.failed_searches += 1
            if self.plan.raise_search_errors:
                raise EngineError(
                    "injected search fault",
                    context={"search": self.searches},
                )
            return SearchResult(path=None, expansions=0)
        return self._real_find_path(*args, **kwargs)

    def _after_commit(self, grid: RoutingGrid, net_id: int, path) -> None:
        """Corrupt one non-pin cell of the Nth committed path."""
        self.commits += 1
        if self.commits != self.plan.corrupt_claim_after:
            return
        for node in path:
            if grid.pin_owner(tuple(node)) == 0:
                # Write both representations the grid keeps in lock-step
                # (numpy array and the kernels' flat list mirror) so the
                # corruption is visible to verifier and searcher alike.
                grid._occ[int(node.layer), node.y, node.x] = CORRUPT_OWNER
                index = (
                    int(node.layer) * grid.height + node.y
                ) * grid.width + node.x
                grid._occ_flat[index] = CORRUPT_OWNER
                self.corrupted_nodes.append(tuple(node))
                return


def _make_commit_wrapper(injector: FaultInjector):
    """Bindable ``commit_path`` replacement reporting to ``injector``."""
    real_commit = injector._real_commit

    def commit_path(self: RoutingGrid, net_id: int, path) -> None:
        """Commit the path for real, then apply scheduled claim corruption."""
        real_commit(self, net_id, path)
        injector._after_commit(self, net_id, path)

    return commit_path


# ---------------------------------------------------------------------------
# Service-layer chaos
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Deterministic faults for the routing daemon's worker processes.

    Encoded into the :data:`~repro.service.workers.SERVICE_FAULT_ENV`
    environment variable by :func:`service_faults`; each worker process
    parses it at start and counts its own jobs, so the schedule is
    per-worker and exactly reproducible.  Note that a *respawned* worker
    starts a fresh job count — schedule faults on job >= 2 when the test
    needs the replacement worker to behave.

    Attributes
    ----------
    die_on_job:
        The worker calls ``os._exit(die_exit_code)`` when it picks up
        its Nth job (1-based) — the SIGKILL-mid-job flavour.
    die_exit_code:
        Exit code of the scheduled death (default 9, mirroring SIGKILL).
    hang_on_job:
        The worker sleeps ``hang_s`` before executing its Nth job — the
        pathological-search flavour the hung-job reaper exists for.
    hang_s:
        Length of the wedge; far longer than any test deadline, and cut
        short when the reaper kills the worker.
    """

    die_on_job: Optional[int] = None
    die_exit_code: int = 9
    hang_on_job: Optional[int] = None
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        for attr in ("die_on_job", "hang_on_job"):
            value = getattr(self, attr)
            if value is not None and value < 1:
                raise ValueError(f"{attr} must be >= 1, got {value}")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")

    def encode(self) -> str:
        """The ``kind@job:arg`` wire form workers parse from the env."""
        terms = []
        if self.die_on_job is not None:
            terms.append(f"die@{self.die_on_job}:{self.die_exit_code}")
        if self.hang_on_job is not None:
            terms.append(f"hang@{self.hang_on_job}:{self.hang_s}")
        return ",".join(terms)


@contextlib.contextmanager
def service_faults(plan: ServiceFaultPlan) -> Iterator[ServiceFaultPlan]:
    """Arm ``plan`` for every worker process started inside the block.

    Workers inherit the environment at (re)spawn time, so a pool created
    inside the block is armed and one created after it is clean.
    """
    previous = os.environ.get(SERVICE_FAULT_ENV)
    os.environ[SERVICE_FAULT_ENV] = plan.encode()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(SERVICE_FAULT_ENV, None)
        else:
            os.environ[SERVICE_FAULT_ENV] = previous


@dataclass(frozen=True)
class PoolFaultPlan:
    """Deterministic faults for :class:`repro.parallel.ProcessExecutor`
    workers, in the :class:`ServiceFaultPlan` vocabulary.

    Armed by :func:`pool_faults`, the schedule travels with every task the
    executor dispatches inside the block (under any start method); each
    worker counts its own tasks from its start, so a fresh pool starts a
    fresh count.

    Attributes
    ----------
    die_on_task:
        The worker calls ``os._exit(die_exit_code)`` when it picks up its
        Nth task (1-based) — the SIGKILL-mid-task flavour.
    die_exit_code:
        Exit code of the scheduled death (default 9, mirroring SIGKILL).
    hang_on_task:
        The worker sleeps ``hang_s`` before running its Nth task.
    hang_s:
        Length of the wedge; far longer than any test deadline, and cut
        short when the executor kills the worker.
    """

    die_on_task: Optional[int] = None
    die_exit_code: int = 9
    hang_on_task: Optional[int] = None
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        for attr in ("die_on_task", "hang_on_task"):
            value = getattr(self, attr)
            if value is not None and value < 1:
                raise ValueError(f"{attr} must be >= 1, got {value}")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")

    def encode(self) -> str:
        """The ``kind@task:arg`` form the pool workers parse."""
        return ServiceFaultPlan(
            die_on_job=self.die_on_task,
            die_exit_code=self.die_exit_code,
            hang_on_job=self.hang_on_task,
            hang_s=self.hang_s,
        ).encode()


@contextlib.contextmanager
def pool_faults(plan: PoolFaultPlan) -> Iterator[PoolFaultPlan]:
    """Arm ``plan`` for every executor task dispatched inside the block."""
    from repro import parallel

    previous = parallel._task_faults
    parallel._task_faults = plan.encode()
    try:
        yield plan
    finally:
        parallel._task_faults = previous


def truncate_file(path: str, drop_bytes: int) -> int:
    """Tear ``drop_bytes`` off the end of ``path`` (crash mid-append).

    Returns the new size.  Deterministic: the same call tears the same
    bytes every time.
    """
    if drop_bytes < 0:
        raise ValueError("drop_bytes must be non-negative")
    size = os.path.getsize(path)
    kept = max(0, size - drop_bytes)
    with open(path, "rb+") as handle:
        handle.truncate(kept)
    return kept


def flip_byte(path: str, offset: int, mask: int = 0x5A) -> None:
    """XOR one byte of ``path`` at ``offset`` (deterministic bit rot)."""
    if not 0 < mask < 256:
        raise ValueError("mask must be in 1..255")
    with open(path, "rb+") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if len(byte) != 1:
            raise ValueError(f"offset {offset} is past the end of {path}")
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ mask]))
