"""The shared process-pool executor and the engine's warm shard workers.

:class:`repro.parallel.ProcessExecutor` is the one way the library runs
work on processes (shard routing, width sweeps, ``repro bench
--workers``).  These tests pin its contract — ordered results, the
parent's kernel shipped to every worker, structured errors for dead and
hung workers, no worker outliving ``close()`` or a SIGKILLed parent —
and the :class:`~repro.engine.RoutingEngine` lifecycle around it: the
pool starts at the first sharded call that wants processes, is reused,
only grows when a call wants more workers, is rebuilt after a fault, and
a faulted call still returns a verified whole-region result.  Idle
workers outlive several liveness polls under every start method.  Faults come from
:class:`repro.testing.PoolFaultPlan`, so every schedule is exact.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.verify import verify_result
from repro.engine import EngineConfig, RoutingEngine
from repro.errors import EngineError, RouteTimeout
from repro.netlist.generators import deutsch_class_region, woven_switchbox
from repro.parallel import GRACE_S, LIVENESS_POLL_S, ProcessExecutor
from repro.testing import PoolFaultPlan, pool_faults

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _square(value):
    return value * value


def _kernel_and_pid(_):
    from repro.maze.kernels import resolve_kernel

    return resolve_kernel(None).name, os.getpid()


def _fail(value):
    raise KeyError(value)


def _region():
    """A small Deutsch-class region the partitioner cuts into shards."""
    return deutsch_class_region(seed=3, n_columns=72, n_nets=64)


def _fingerprint(result):
    paths = sorted(
        (
            c.net_name,
            c.routed,
            tuple(tuple(node) for node in c.path.nodes) if c.path else (),
        )
        for c in result.connections
    )
    stats = result.stats
    return (
        paths,
        stats.expansions,
        stats.searches,
        stats.shards,
        result.status,
    )


def _running(pid):
    """True while ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _wait_gone(pids, within_s):
    give_up = time.monotonic() + within_s
    while any(map(_running, pids)) and time.monotonic() < give_up:
        time.sleep(0.05)
    return [pid for pid in pids if _running(pid)]


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads /proc"
)


class TestExecutor:
    def test_results_in_submission_order(self):
        with ProcessExecutor() as pool:
            assert pool.map(_square, [(n,) for n in range(9)], 3) == [
                n * n for n in range(9)
            ]

    def test_no_process_before_first_map(self):
        pool = ProcessExecutor()
        assert pool.pids == []
        assert pool.map(_square, [], 2) == []
        assert pool.pids == []

    def test_workers_stay_warm_and_only_grow(self):
        with ProcessExecutor() as pool:
            pool.map(_square, [(1,), (2,)], 2)
            first = pool.pids
            pool.map(_square, [(3,), (4,)], 2)
            assert pool.pids == first
            # Fewer workers: the pool is kept and only its first is used.
            replies = pool.map(_kernel_and_pid, [(n,) for n in range(3)], 1)
            assert pool.pids == first
            assert {pid for _, pid in replies} == {first[0]}
            # More workers: the missing ones join the ones already up.
            assert pool.map(_square, [(n,) for n in range(6)], 3) == [
                n * n for n in range(6)
            ]
            assert len(pool.pids) == 3 and pool.pids[:2] == first

    def test_ships_the_parent_kernel(self):
        from repro.maze.kernels import resolve_kernel

        with ProcessExecutor() as pool:
            replies = pool.map(_kernel_and_pid, [(n,) for n in range(4)], 2)
        assert {name for name, _ in replies} == {resolve_kernel(None).name}
        assert os.getpid() not in {pid for _, pid in replies}

    def test_task_error_is_reraised_and_pool_dropped(self):
        with ProcessExecutor() as pool:
            pool.map(_square, [(1,), (2,)], 2)
            old = pool.pids
            with pytest.raises(KeyError):
                pool.map(_fail, [(7,), (8,)], 2)
            assert pool.pids == []
            assert _wait_gone(old, 5.0) == []
            assert pool.map(_square, [(3,)], 2) == [9]

    def test_dead_worker_is_an_engine_error(self):
        with ProcessExecutor() as pool:
            with pool_faults(PoolFaultPlan(die_on_task=1)):
                with pytest.raises(EngineError) as caught:
                    pool.map(_square, [(1,), (2,), (3,)], 2)
            assert caught.value.context["exitcode"] == 9
            assert pool.pids == []
            assert pool.map(_square, [(4,)], 2) == [16]

    def test_hang_past_deadline_kills_the_pool(self):
        from repro.engine.deadline import Deadline

        with ProcessExecutor() as pool:
            with pool_faults(PoolFaultPlan(hang_on_task=1, hang_s=60)):
                started = time.monotonic()
                with pytest.raises(RouteTimeout):
                    pool.map(_square, [(1,), (2,)], 2, Deadline(0.5))
                elapsed = time.monotonic() - started
                hung = pool.pids
            assert elapsed < 0.5 + GRACE_S + 1.5, elapsed
            assert hung == []

    @needs_proc
    def test_close_leaves_no_worker_alive(self):
        pool = ProcessExecutor()
        pool.map(_square, [(1,), (2,)], 2)
        pids = pool.pids
        assert len(pids) == 2 and all(map(_running, pids))
        pool.close()
        assert pool.pids == []
        assert not any(map(_running, pids))


class TestEngineShardPool:
    def test_no_pool_at_construction_or_in_process(self):
        engine = RoutingEngine()
        assert engine._shard_executor is None
        engine.route(_region(), shards=4, shard_workers=1)
        assert engine._shard_executor is None

    @needs_proc
    def test_pool_is_reused_and_closed(self):
        problem = _region()
        with RoutingEngine() as engine:
            first = engine.route(problem, shards=4, shard_workers=2)
            assert first.stats.shards == 4
            pids = engine._shard_executor.pids
            assert len(pids) == 2
            again = engine.route(problem, shards=4, shard_workers=2)
            assert engine._shard_executor.pids == pids
            assert _fingerprint(again) == _fingerprint(first)
        assert engine._shard_executor is None
        assert not any(map(_running, pids))

    def test_warm_pool_matches_in_process_routing(self):
        problems = [
            deutsch_class_region(seed=seed, n_columns=72, n_nets=64)
            for seed in (3, 4, 5)
        ]
        plain = RoutingEngine()
        with RoutingEngine() as warm:
            for problem in problems:
                assert _fingerprint(
                    warm.route(problem, shards=4, shard_workers=2)
                ) == _fingerprint(
                    plain.route(problem, shards=4, shard_workers=1)
                )

    def test_busy_shard_count_changes_keep_the_pool(self, monkeypatch):
        # With shard_workers=None each call wants one worker per busy
        # shard (capped at the CPU count, raised here so the cap does not
        # hide the change); the pool must not restart between regions.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        problem = _region()
        with RoutingEngine() as engine:
            two = engine.route(problem, shards=2)
            assert two.stats.shards == 2
            first = engine._shard_executor.pids
            assert len(first) == 2
            four = engine.route(problem, shards=4)
            assert four.stats.shards == 4
            grown = engine._shard_executor.pids
            assert len(grown) == 4 and grown[:2] == first
            for shards in (3, 2):
                result = engine.route(problem, shards=shards)
                assert result.stats.shards == shards
                assert result.stats.attempt_log[0]["error"] == ""
                assert engine._shard_executor.pids == grown

    def test_dead_shard_worker_falls_back_then_recovers(self):
        problem = _region()
        reference = RoutingEngine().route(problem, shards=4, shard_workers=1)
        with RoutingEngine() as engine:
            with pool_faults(PoolFaultPlan(die_on_task=1)):
                faulted = engine.route(problem, shards=4, shard_workers=2)
            shard_record = faulted.stats.attempt_log[0]
            assert shard_record["stage"] == "shard"
            assert shard_record["error"].startswith("EngineError: parallel")
            assert "died" in shard_record["error"]
            assert faulted.stats.attempt_log[1]["stage"] == "mighty"
            assert faulted.success and verify_result(problem, faulted).ok
            # The next call gets a fresh pool and the undisturbed answer.
            recovered = engine.route(problem, shards=4, shard_workers=2)
        assert recovered.stats.attempt_log[0]["error"] == ""
        assert _fingerprint(recovered) == _fingerprint(reference)

    def test_hung_shard_workers_respect_the_deadline(self):
        problem = _region()
        engine = RoutingEngine(EngineConfig(deadline_s=2))
        with pool_faults(PoolFaultPlan(hang_on_task=1, hang_s=60)):
            started = time.monotonic()
            result = engine.route(problem, shards=4, shard_workers=2)
            elapsed = time.monotonic() - started
        engine.close()
        # Stated grace: the executor's GRACE_S plus 1.5 s for killing the
        # pool and the (expired-deadline) whole-region attempt's verify.
        assert elapsed < 2 + GRACE_S + 1.5, elapsed
        assert result.stats.timed_out
        assert result.stats.attempt_log[0]["error"].startswith(
            "RouteTimeout"
        )


# A parent holding a warm shard pool: route one sharded region on two
# workers, report the worker pids, then idle until killed.
_WARM_PARENT = """
import json, sys, time
from repro.engine import RoutingEngine
from repro.netlist.generators import deutsch_class_region
engine = RoutingEngine()
engine.route(deutsch_class_region(seed=3, n_columns=72, n_nets=64),
             shards=4, shard_workers=2)
print(json.dumps(engine._shard_executor.pids), flush=True)
time.sleep(3600)
"""


@needs_proc
def test_sigkilled_parent_leaves_no_shard_worker_behind():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    parent = subprocess.Popen(
        [sys.executable, "-c", _WARM_PARENT],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    workers = []
    try:
        workers = json.loads(parent.stdout.readline() or "[]")
        assert len(workers) == 2 and all(map(_running, workers))
    finally:
        parent.kill()  # SIGKILL: no close(), no atexit, no sentinel
        parent.wait(10)
        parent.stdout.close()
    leaked = _wait_gone(workers, 5 * LIVENESS_POLL_S)
    for pid in leaked:  # leave the machine clean even on failure
        os.kill(pid, signal.SIGKILL)
    assert not leaked, f"shard workers outlived their parent: {leaked}"


# Run in a fresh interpreter so the start method can be chosen per test:
# map on two workers, report their pids, idle for more than two liveness
# polls, map again and report the pids and what the workers answered,
# then idle until killed.
_IDLE_EXECUTOR_SCRIPT = """
import json, multiprocessing, os, sys, time
multiprocessing.set_start_method(sys.argv[1])
from repro.parallel import LIVENESS_POLL_S, ProcessExecutor
pool = ProcessExecutor()
pool.map(os.getpid, [(), ()], 2)
print(json.dumps(pool.pids), flush=True)
time.sleep(2.5 * LIVENESS_POLL_S)
answers = pool.map(os.getpid, [(), ()], 2)
print(json.dumps([pool.pids, answers]), flush=True)
time.sleep(3600)
"""


@needs_proc
@pytest.mark.parametrize(
    "start_method", multiprocessing.get_all_start_methods()
)
def test_idle_workers_live_with_their_parent_and_die_without_it(
    start_method,
):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    parent = subprocess.Popen(
        [sys.executable, "-c", _IDLE_EXECUTOR_SCRIPT, start_method],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    watchdog = threading.Timer(60.0, parent.kill)
    watchdog.start()
    workers = []
    try:
        workers = json.loads(parent.stdout.readline() or "[]")
        assert len(workers) == 2, workers
        # Idle past two polls, the same workers still serve a map.
        pids, answers = json.loads(parent.stdout.readline() or "[[], []]")
        assert pids == workers
        assert answers == workers
        assert all(map(_running, workers))
    finally:
        watchdog.cancel()
        parent.kill()  # SIGKILL: no close(), no finalizer, no sentinel
        parent.wait(10)
        parent.stdout.close()
    leaked = _wait_gone(workers, 5 * LIVENESS_POLL_S)
    for pid in leaked:  # leave the machine clean even on failure
        os.kill(pid, signal.SIGKILL)
    assert not leaked, f"workers outlived their parent: {leaked}"


class TestSweepPoolFaults:
    """Width-sweep waves on the executor: a death in a later wave and a
    hang under a deadline both end the sweep with a structured error."""

    @staticmethod
    def _spec():
        return woven_switchbox(12, 9, 6, seed=3, tangle=0.4)

    def test_death_in_a_later_wave(self):
        from repro.core.config import MightyConfig
        from repro.switchbox.sweep import minimum_routable_width

        # Each worker's 2nd task belongs to the sweep's 2nd wave.
        config = MightyConfig.no_modification()
        with pool_faults(PoolFaultPlan(die_on_task=2)):
            with pytest.raises(EngineError):
                minimum_routable_width(
                    self._spec(), config, stop_after_failures=6, workers=2
                )

    def test_hang_respects_the_deadline(self):
        from repro.core.config import MightyConfig
        from repro.engine.deadline import Deadline
        from repro.switchbox.sweep import minimum_routable_width

        with pool_faults(PoolFaultPlan(hang_on_task=1, hang_s=60)):
            started = time.monotonic()
            with pytest.raises(RouteTimeout):
                minimum_routable_width(
                    self._spec(),
                    MightyConfig(),
                    deadline=Deadline(1.0),
                    workers=2,
                )
        assert time.monotonic() - started < 1.0 + GRACE_S + 1.5


class TestCliPoolFaults:
    """A dead sweep or bench worker is one ``error:`` line and exit 5."""

    def test_sweep_worker_death(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.io import save_switchbox

        box = tmp_path / "box.txt"
        save_switchbox(box, woven_switchbox(12, 9, 6, seed=3, tangle=0.4))
        with pool_faults(PoolFaultPlan(die_on_task=1)):
            code = main(["sweep", str(box), "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 5
        assert "Traceback" not in captured.out + captured.err
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: parallel worker died"
        )

    def test_bench_worker_death(self, tmp_path, capsys):
        from repro.cli import main

        with pool_faults(PoolFaultPlan(die_on_task=1)):
            code = main(
                ["bench", "--only", "chan-simple", "chan-dogleg",
                 "--workers", "2", "--output", str(tmp_path / "b.json")]
            )
        captured = capsys.readouterr()
        assert code == 5
        assert "Traceback" not in captured.out + captured.err
        # stderr: the progress line, then exactly one error line.
        lines = captured.err.strip().splitlines()
        assert lines[-1].startswith("error: parallel worker died")
        assert not any(line.startswith("error:") for line in lines[:-1])
        assert not (tmp_path / "b.json").exists()
