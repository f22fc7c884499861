"""Unit tests for the sticky worker-process pool (no server involved).

Exercises the pipe protocol, fault injection (unpicklable replies,
in-worker exceptions, hard exits), respawn, and the bit-identical
parity of a worker-hosted session with a direct simulator run.
"""

import json
import os
import signal
import threading
import time
from collections import deque
from types import SimpleNamespace

import pytest

from repro.memsim import MachineConfig
from repro.service import ProfilingSession, ServiceError, WorkerPool, resolve_workers
from repro.service.protocol import ErrorCode
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import make_workload

SMALL = {"footprint_pages": 512, "accesses_per_epoch": 2000}
SESSION_KW = {"workload": "gups", "workload_kwargs": dict(SMALL)}


@pytest.fixture
def pool():
    pool = WorkerPool(1)
    yield pool
    pool.shutdown()


def _wait(predicate, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _grown_with_steps(session, steps):
    """Names of containers, on the session or one attribute down, that
    hold at least one entry per step taken."""
    grown = []
    for name, value in vars(session).items():
        nested = getattr(value, "__dict__", {}).items()
        for label, obj in [(name, value), *((f"{name}.{k}", v) for k, v in nested)]:
            if isinstance(obj, (list, tuple, dict, set, deque)) and len(obj) >= steps:
                grown.append(label)
    return grown


class TestStepTimings:
    """1 000 one-epoch steps leave totals, not one record per step."""

    TINY = {
        "workload": "gups",
        "workload_kwargs": {"footprint_pages": 256, "accesses_per_epoch": 200},
    }
    STEPS = 1000

    def _step_and_check(self, session):
        for _ in range(self.STEPS):
            session.step(1)
        timing = session.stats()["timings"]["step"]
        assert timing["events"] == timing["items"] == self.STEPS
        assert timing["cached"] == 0 and timing["work_seconds"] > 0
        assert sorted(timing) == ["cached", "events", "items", "work_seconds"]
        assert _grown_with_steps(session, self.STEPS) == []

    def test_worker_side_of_the_pipe(self):
        # The same host a worker runs, called in-thread.
        session = ProfilingSession("tiny", **self.TINY)
        assert session.stats()["timings"] == {}
        self._step_and_check(session)

    def test_parent_side_of_the_pipe(self, pool):
        self._step_and_check(pool.session_factory("tiny", **self.TINY))


class TestResolveWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "7")
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 0

    def test_none_reads_env_then_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv("REPRO_SERVICE_WORKERS")
        # One worker per usable CPU; a single CPU keeps the in-process path.
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert resolve_workers(None) == (0 if cpus == 1 else cpus)

    @pytest.mark.parametrize("cpus, expected", [({0}, 0), ({0, 1, 2}, 3)])
    def test_none_counts_the_cpus_this_process_may_run_on(
        self, monkeypatch, cpus, expected
    ):
        monkeypatch.delenv("REPRO_SERVICE_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert resolve_workers(None) == expected
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "2")  # still wins
        assert resolve_workers(None) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestWorkerProtocol:
    def test_ping_round_trips(self, pool):
        reply = pool.workers[0].request("ping")
        assert reply["worker"] == 0
        assert reply["pid"] == pool.workers[0].process.pid
        assert reply["sessions"] == 0

    def test_unknown_op_is_an_error_not_a_crash(self, pool):
        with pytest.raises(ServiceError) as err:
            pool.workers[0].request("no_such_op")
        assert err.value.code == ErrorCode.UNKNOWN_OP
        assert pool.workers[0].request("ping")["worker"] == 0  # still alive

    def test_unpicklable_reply_degrades_to_internal_error(self, pool):
        with pytest.raises(ServiceError) as err:
            pool.workers[0].request("_debug", {"action": "unpicklable"})
        assert err.value.code == ErrorCode.INTERNAL
        assert "unserializable" in err.value.message
        assert pool.workers[0].request("ping")["worker"] == 0  # worker survived

    def test_worker_exception_maps_to_internal_error(self, pool):
        with pytest.raises(ServiceError) as err:
            pool.workers[0].request("_debug", {"action": "raise"})
        assert err.value.code == ErrorCode.INTERNAL
        assert "injected worker failure" in err.value.message
        assert pool.workers[0].request("ping")["worker"] == 0


class TestCrashRecovery:
    def test_hard_exit_fails_request_and_respawns(self, pool):
        worker = pool.workers[0]
        old_pid = worker.process.pid
        with pytest.raises(ServiceError) as err:
            worker.request("_debug", {"action": "exit"})
        assert err.value.code == ErrorCode.WORKER_CRASHED
        assert _wait(
            lambda: worker.process is not None
            and worker.process.is_alive()
            and worker.process.pid != old_pid
        )
        assert pool.workers[0].request("ping")["pid"] != old_pid
        assert pool.respawns == 1

    def test_crash_marks_sessions_and_fires_callback(self):
        crashes = []
        pool = WorkerPool(1, on_session_crash=lambda s, m: crashes.append((s, m)))
        try:
            session = pool.session_factory("doomed", seed=3, **SESSION_KW)
            sub = session.subscribe(max_queue=64)
            with pytest.raises(ServiceError) as err:
                session.host.request("_debug", {"action": "exit"})
            assert err.value.code == ErrorCode.WORKER_CRASHED
            assert _wait(lambda: bool(crashes))
            assert crashes[0][0] == ["doomed"]
            assert session.crashed is not None
            errors = [json.loads(f.payload) for f in sub.drain() if f.event == "error"]
            assert errors and errors[0]["code"] == ErrorCode.WORKER_CRASHED
            assert errors[0]["worker"] == 0
            with pytest.raises(ServiceError) as err:
                session.step(1)
            assert err.value.code == ErrorCode.WORKER_CRASHED
            # close() on a crashed session must not raise.
            assert session.close()["crashed"]
            # The respawned slot accepts new sessions.
            assert _wait(lambda: pool.workers[0].process.is_alive())
            fresh = pool.session_factory("fresh", seed=4, **SESSION_KW)
            assert fresh.step(1)["epochs_run"] == 1
            fresh.close()
        finally:
            pool.shutdown()


    @pytest.mark.parametrize("hold", ["before_spawn", "after_start"])
    def test_create_racing_a_respawn_lands_on_a_live_worker(self, hold):
        # Placement waits out a respawn in flight — held before it starts
        # a process, or after, while the slot still holds the dead
        # pipe — instead of pinning the session to the dead process and
        # failing it ``worker_crashed``.
        pool = WorkerPool(1)
        handle = pool.workers[0]
        entered, release = threading.Event(), threading.Event()

        def gate():
            entered.set()
            assert release.wait(30)

        if hold == "before_spawn":
            spawn = handle._spawn
            handle._spawn = lambda: (gate(), spawn())
        else:
            ctx = handle._ctx

            class StartedThenHeld:
                """A ``Process`` that waits at the gate once started."""

                def __init__(self, proc):
                    self._proc = proc

                def start(self):
                    self._proc.start()
                    gate()

                def __getattr__(self, name):
                    return getattr(self._proc, name)

            handle._ctx = SimpleNamespace(
                Pipe=ctx.Pipe,
                Process=lambda *a, **kw: StartedThenHeld(ctx.Process(*a, **kw)),
            )
        outcome = []

        def create():
            try:
                outcome.append(pool.session_factory("late", seed=5, **SESSION_KW))
            except ServiceError as exc:
                outcome.append(exc.code)

        creator = threading.Thread(target=create, daemon=True)
        try:
            os.kill(handle.process.pid, signal.SIGKILL)
            assert entered.wait(30), "reader never reached the respawn"
            assert not handle.process.is_alive()
            creator.start()
            creator.join(0.3)
            assert creator.is_alive() and pool._sessions == {}  # waiting
            release.set()
            creator.join(30)
            (session,) = outcome
            assert isinstance(session, ProfilingSession), session
            assert session.host is handle and handle.generation == 1
            assert session.step(1)["epochs_run"] == 1
            session.close()
        finally:
            release.set()
            pool.shutdown()


class TestSessionParity:
    def test_worker_session_matches_direct_run(self, pool):
        epochs = 3
        session = pool.session_factory(
            "parity", seed=11, tier1_ratio=0.125, **SESSION_KW
        )
        sub = session.subscribe(max_queue=64)
        stepped = session.step(epochs)
        frames = [json.loads(f.payload) for f in sub.drain()]
        summary = session.close()

        sim = TieredSimulator(
            make_workload("gups", **SMALL),
            POLICIES["history"](),
            tier1_ratio=0.125,
            machine_config=MachineConfig.scaled(ibs_period=16),
            seed=11,
        )
        direct = sim.run(epochs)
        for data, direct_epoch in zip(frames, direct.epochs, strict=True):
            assert data["epoch"] == direct_epoch.epoch
            assert data["hitrate"] == direct_epoch.hitrate
            assert data["runtime_s"] == direct_epoch.runtime_s
        assert stepped["epochs_run"] == epochs
        assert summary["mean_hitrate"] == direct.mean_hitrate
        assert summary["total_migrations"] == direct.total_migrations

    def test_bad_params_rejected_and_slot_released(self, pool):
        with pytest.raises(ServiceError) as err:
            pool.session_factory("bad", workload="doom")
        assert err.value.code == ErrorCode.BAD_PARAMS
        assert pool.info()["sessions_per_worker"][0] == 0


class TestShutdown:
    def test_shutdown_joins_worker_processes(self):
        pool = WorkerPool(2)
        processes = [w.process for w in pool.workers]
        assert all(p.is_alive() for p in processes)
        pool.shutdown()
        assert all(not p.is_alive() for p in processes)

    @pytest.mark.parametrize("hold", ["before_spawn", "before_start"])
    def test_death_racing_shutdown_leaves_no_process(self, hold):
        # The reader thread of a killed worker is past its ``closing``
        # check when shutdown begins.  Unless respawn and ``close()``
        # are serialised, a reader held at the door of ``_spawn`` goes
        # on to start a process nobody will ever close, and one held
        # between ``Process(...)`` and ``start()`` hands ``close()`` a
        # half-spawned one ("can only join a started process").
        pool = WorkerPool(1)
        handle = pool.workers[0]
        entered, release = threading.Event(), threading.Event()
        spawned = [handle.process]

        def gate():
            entered.set()
            assert release.wait(30)

        class HeldStart:
            """A ``Process`` whose ``start()`` waits at the gate first."""

            def __init__(self, proc):
                self._proc = proc

            def start(self):
                gate()
                self._proc.start()

            def __getattr__(self, name):
                return getattr(self._proc, name)

        ctx, spawn = handle._ctx, handle._spawn

        def process(*args, **kwargs):
            proc = ctx.Process(*args, **kwargs)
            spawned.append(proc)
            return HeldStart(proc) if hold == "before_start" else proc

        handle._ctx = SimpleNamespace(Pipe=ctx.Pipe, Process=process)
        if hold == "before_spawn":
            handle._spawn = lambda: (gate(), spawn())
        reader = next(
            t for t in threading.enumerate() if t.name == "repro-service-reader-0"
        )
        errors = []

        def shutdown():
            try:
                pool.shutdown(timeout_s=10)
            except BaseException as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        stopper = threading.Thread(target=shutdown, daemon=True)
        try:
            os.kill(handle.process.pid, signal.SIGKILL)
            assert entered.wait(30), "reader never reached the respawn"
            stopper.start()
            stopper.join(0.5)  # serialised, it waits for the respawn in flight
            release.set()
            stopper.join(30)
            reader.join(30)
            assert not stopper.is_alive() and not reader.is_alive()
            assert errors == []
            assert not any(p.is_alive() for p in spawned), "respawned under shutdown"
        finally:
            release.set()
            for proc in spawned:
                if proc.is_alive():
                    proc.kill()
