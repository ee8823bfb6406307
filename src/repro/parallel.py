"""One process-pool executor for the library's parallel work.

Three call sites farm independent work units out to processes: shard
routing (:mod:`repro.core.shard`), speculative width sweeps
(:mod:`repro.switchbox.sweep`) and ``repro bench --workers``
(:mod:`repro.bench`).  They share :class:`ProcessExecutor`, which

* returns results in submission order, whatever the completion order, so
  ``workers=N`` replays ``workers=1`` bit for bit;
* ships the parent's resolved search-kernel name with every task, so a
  worker runs the backend the parent would have run, whatever its own
  environment says;
* bounds every wait by the caller's
  :class:`~repro.engine.deadline.Deadline` (plus :data:`GRACE_S`, time for
  workers that honour the same deadline to hand back their partial
  results): work still running after that is killed with its workers, the
  pool is dropped and :class:`~repro.errors.RouteTimeout` is raised;
* turns a worker that dies mid-task into a structured
  :class:`~repro.errors.EngineError`, again dropping the pool.

An instance starts no process before its first :meth:`ProcessExecutor.map`
and keeps its workers warm between calls.  The pool only grows: a call
that asks for more workers than it holds starts the missing ones, and a
call that asks for fewer runs on the first ``workers`` of them, so callers
whose worker count follows their work (one per busy shard) do not restart
it.  :class:`~repro.engine.RoutingEngine` owns one for its shard attempts,
so a stream of sharded regions pays the process start once; the sweep and
the bench use a scoped instance (``with ProcessExecutor() as pool``), which
is closed when the block ends.

Workers are ordinary (non-daemonic) processes that poll their task pipe
and exit once their parent is gone, so a SIGKILLed parent leaks none.  One
finalizer per executor stops its workers when the executor is collected
or, if it is still open, at interpreter exit, before :mod:`multiprocessing`
joins its children.

Chaos tests arm a deterministic fault schedule with
:func:`repro.testing.pool_faults`; it travels with every task dispatched
inside the block and uses the ``kind@task:arg`` vocabulary of the service
workers (:func:`parse_faults`).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import os
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import EngineError, RouteTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> parallel)
    from repro.engine.deadline import Deadline

#: How often an idle worker checks that its parent is still alive.
LIVENESS_POLL_S = 1.0

#: Extra wait past a deadline before busy workers are killed: workers that
#: run under the same deadline stop on their own and need a moment to ship
#: their partial results home.
GRACE_S = 0.5

#: Fault schedule (``kind@task:arg`` terms) shipped with every task; set
#: only by :func:`repro.testing.pool_faults`.
_task_faults = ""


def parse_faults(spec: str) -> List[Tuple[str, int, float]]:
    """``"die@2:9,hang@3:60"`` -> ``[("die", 2, 9.0), ("hang", 3, 60.0)]``.

    The schedule vocabulary shared by the service workers and the pool
    workers: ``die@N:code`` exits with ``code`` on the Nth job, and
    ``hang@N:secs`` sleeps ``secs`` before running it.  Garbage terms are
    ignored.
    """
    faults = []
    for term in spec.split(","):
        term = term.strip()
        if not term or "@" not in term:
            continue
        kind, _, rest = term.partition("@")
        at, _, arg = rest.partition(":")
        try:
            faults.append((kind, int(at), float(arg) if arg else 0.0))
        except ValueError:
            continue
    return faults


def apply_faults(faults: List[Tuple[str, int, float]], job_index: int) -> None:
    """Deliver any fault scheduled for this process's ``job_index``-th job."""
    for kind, at, arg in faults:
        if job_index != at:
            continue
        if kind == "die":
            os._exit(int(arg) if arg else 9)
        elif kind == "hang":
            time.sleep(arg if arg else 3600.0)


def _worker_main(conn) -> None:
    """Worker loop: run tasks until the ``None`` sentinel or parent death.

    A parent that dies without sending the sentinel (SIGKILL) is noticed
    within one :data:`LIVENESS_POLL_S`, through its sentinel pipe or a
    change of the parent pid seen at start (see
    :mod:`repro.service.workers` for why both).  The pid is read here, not
    passed in: under forkserver this process's parent is the fork server,
    not the executor's process.
    """
    from repro.maze import kernels

    parent = multiprocessing.parent_process()
    parent_pid = os.getppid()
    done = 0
    while True:
        if not conn.poll(LIVENESS_POLL_S):
            if os.getppid() != parent_pid or (
                parent is not None and not parent.is_alive()
            ):
                return
            continue
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        fn, args, kernel, faults = message
        done += 1
        if faults:
            apply_faults(parse_faults(faults), done)
        try:
            if kernels.resolve_kernel(None).name != kernel:
                kernels.select_backend(kernel)
            reply = (True, fn(*args))
        except BaseException as exc:  # shipped home and re-raised there
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # the result or error did not pickle
            conn.send((False, EngineError(
                f"parallel task result could not be sent: {exc}")))


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, context) -> None:
        parent_end, child_end = multiprocessing.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_end,)
        )
        self.process.start()
        child_end.close()
        self.conn = parent_end


def _stop_workers(workers: List[_Worker], timeout_s: float = 5.0) -> None:
    """Stop ``workers`` (sentinel, join, kill stragglers) and empty the list."""
    stopping = workers[:]
    del workers[:]
    for worker in stopping:
        try:
            worker.conn.send(None)
        except OSError:
            pass
    give_up = time.monotonic() + timeout_s
    for worker in stopping:
        worker.process.join(max(0.0, give_up - time.monotonic()))
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        worker.conn.close()


class ProcessExecutor:
    """An ordered, deadline-aware map over a warm pool of processes.

    See the module docstring.  ``map`` is the whole interface; ``close``
    (or leaving a ``with`` block) stops the workers.
    """

    def __init__(self) -> None:
        # Mutated in place only: the finalizer holds this list, never the
        # executor.  It is multiprocessing's own finalizer because one with
        # an exit priority runs before multiprocessing joins its children
        # at interpreter exit; an atexit hook of weakref.finalize may be
        # registered earlier and so run later.
        self._workers: List[_Worker] = []
        multiprocessing.util.Finalize(
            self, _stop_workers, args=(self._workers,), exitpriority=10
        )

    @property
    def pids(self) -> List[int]:
        """Process ids of the current workers (empty before first use)."""
        return [worker.process.pid for worker in self._workers]

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[tuple],
        workers: int,
        deadline: Optional["Deadline"] = None,
    ) -> List[Any]:
        """``[fn(*task) for task in tasks]``, run on ``workers`` processes.

        Results come back in ``tasks`` order.  A task's own exception is
        re-raised here; a dead worker raises :class:`EngineError`, and
        work outlasting ``deadline`` (plus :data:`GRACE_S`) raises
        :class:`RouteTimeout`.  Any of the three drops the pool, so the
        next call starts fresh workers.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not tasks:
            return []
        from repro.maze.kernels import resolve_kernel

        kernel = resolve_kernel(None).name
        if len(self._workers) < workers:
            context = multiprocessing.get_context()
            self._workers.extend(
                _Worker(context)
                for _ in range(workers - len(self._workers))
            )
        results: List[Any] = [None] * len(tasks)
        busy = {}  # worker -> index of the task it runs
        queued = iter(range(len(tasks)))
        try:
            for worker, index in zip(self._workers[:workers], queued):
                self._send(worker, (fn, tasks[index], kernel, _task_faults))
                busy[worker] = index
            while busy:
                timeout = None
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining is not None:
                        timeout = max(0.0, remaining + GRACE_S)
                waiting = [w.conn for w in busy] + [
                    w.process.sentinel for w in busy
                ]
                ready = set(multiprocessing.connection.wait(waiting, timeout))
                if not ready:
                    raise RouteTimeout(
                        "parallel work outlasted its deadline",
                        context={
                            "deadline_s": deadline.budget_s,
                            "elapsed_s": round(deadline.elapsed(), 6),
                            "unfinished_tasks": len(busy),
                        },
                    )
                for worker in list(busy):
                    if worker.conn not in ready and (
                        worker.process.sentinel not in ready
                    ):
                        continue
                    index = busy.pop(worker)
                    ok, value = self._receive(worker, index, len(tasks))
                    if not ok:
                        raise value
                    results[index] = value
                    following = next(queued, None)
                    if following is not None:
                        task = tasks[following]
                        self._send(worker, (fn, task, kernel, _task_faults))
                        busy[worker] = following
        except BaseException:
            self._drop()
            raise
        return results

    @staticmethod
    def _send(worker: _Worker, message: tuple) -> None:
        try:
            worker.conn.send(message)
        except (BrokenPipeError, ConnectionResetError):
            worker.process.join(1.0)
            raise EngineError(
                "parallel worker died between tasks",
                context={
                    "pid": worker.process.pid,
                    "exitcode": worker.process.exitcode,
                },
            ) from None

    def _receive(self, worker: _Worker, index: int, total: int):
        """The ``(ok, value)`` reply of ``worker``, or the death it died."""
        try:
            if worker.conn.poll():
                return worker.conn.recv()
        except (EOFError, OSError):
            pass
        worker.process.join(1.0)
        raise EngineError(
            "parallel worker died during its task",
            context={
                "pid": worker.process.pid,
                "exitcode": worker.process.exitcode,
                "task": index,
                "tasks": total,
            },
        )

    def _drop(self) -> None:
        """Kill every worker at once (after a death, a hang or an error)."""
        workers = self._workers[:]
        del self._workers[:]
        for worker in workers:
            if worker.process.is_alive():
                worker.process.kill()
        for worker in workers:
            worker.process.join()
            worker.conn.close()

    def close(self) -> None:
        """Stop the workers: sentinel, join, kill stragglers.  Idempotent;
        a later :meth:`map` starts fresh workers."""
        _stop_workers(self._workers)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
