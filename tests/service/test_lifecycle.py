"""The session lifecycle without a socket.

:class:`SessionManager` is the one owner of every transition a session
makes, and it is given its collaborators (factory, ledger, whether
eviction checkpoints) at construction — so the whole matrix

    backend ∈ {in-process factory, ``WorkerPool(1)``}
  × trigger ∈ {evict → ``resume``, SIGKILL → ``recover`` (pool only)}
  × {with, without a mid-life ``reconfigure``}

runs here against a manager and a tmp ledger only.  The through-the-wire
twin of this matrix is ``test_rebuild_matrix.py``.
"""

import os
import queue
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.service.server
from repro.core.daemon import TMPDaemon
from repro.ledger import Ledger
from repro.memsim import MachineConfig
from repro.service import ServiceError
from repro.service.manager import SessionManager
from repro.service.session import ProfilingSession
from repro.service.telemetry import simulation_result_to_dict
from repro.service.workers import WorkerPool
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import make_workload

from .test_server import SMALL

PARAMS = {"workload": "gups", "seed": 9, "workload_kwargs": dict(SMALL)}
RECONFIGURE = {"trace_sample_period": 2}
#: Epochs stepped before the reconfigure, between it and the
#: interruption, and after the rebuild.
BEFORE, BETWEEN, AFTER = 2, 1, 2
IDLE_TTL_S = 10.0


def _direct_summary(changes):
    """The uninterrupted run, on a bare ``TieredSimulator``."""
    sim = TieredSimulator(
        make_workload("gups", **SMALL),
        POLICIES["history"](),
        tier1_ratio=1 / 8,
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=PARAMS["seed"],
    )
    if changes:
        sim.start()
        sim.step(BEFORE)
        TMPDaemon(sim.profiler).reconfigure(**changes)
        sim.step(BETWEEN + AFTER)
        result = sim.result
    else:
        result = sim.run(BEFORE + BETWEEN + AFTER)
    return simulation_result_to_dict(result, include_epochs=True)


class _Rig:
    """A manager over a tmp ledger, its fake clock, and the crash
    reports of the pool behind it (if any)."""

    def __init__(self, manager, now, crashes):
        self.manager = manager
        self.now = now
        self.crashes = crashes

    def evict(self):
        self.now[0] += IDLE_TTL_S + 1
        return self.manager.evict_idle()

    def sigkill(self, session):
        """Kill the session's worker; return once the pool reported it."""
        worker = session.worker
        os.kill(worker.process.pid, signal.SIGKILL)
        assert self.crashes.get(timeout=30) == [session.session_id]
        assert session.crashed is not None
        # The slot respawns on its reader thread, after the report.
        deadline = time.monotonic() + 30
        while worker.generation == 0 or not worker.process.is_alive():
            assert time.monotonic() < deadline, "worker did not respawn"
            time.sleep(0.02)


@contextmanager
def _rig(tmp_path, backend, ledger=True, wrap_factory=lambda factory: factory):
    now = [0.0]
    crashes = queue.Queue()
    pool = None
    factory = ProfilingSession
    if backend == "pool":
        pool = WorkerPool(
            1, on_session_crash=lambda ids, message: crashes.put(ids)
        )
        factory = pool.session_factory
    manager = SessionManager(
        max_sessions=4,
        idle_ttl_s=IDLE_TTL_S,
        tenant_quota=1,
        clock=lambda: now[0],
        session_factory=wrap_factory(factory),
        ledger=Ledger(tmp_path) if ledger else None,
        evict_to_disk=True,
    )
    try:
        yield _Rig(manager, now, crashes)
    finally:
        manager.close_all()
        if pool is not None:
            pool.shutdown()


def _evict_and_resume(rig, session):
    sid = session.session_id
    assert rig.evict() == [sid]
    assert session.closed and len(rig.manager) == 0
    assert rig.manager.tenants() == {}
    assert rig.manager.sessions_checkpointed == 1
    resumed = rig.manager.resume(sid)
    assert resumed is not session and resumed.tenant == "acme"
    assert rig.manager.sessions_resumed == 1
    # The old copy's subscriber queue ends at the goodbye.
    return ["error", "resumed"], 1


def _sigkill_and_recover(rig, session):
    sid = session.session_id
    rig.sigkill(session)
    assert rig.manager.recover(sid) is True
    # Rebuilt in place: same object, so subscribers and seq survive.
    assert rig.manager.get(sid) is session and session.crashed is None
    return ["error", "recovered"], None


@pytest.mark.parametrize("changes", [None, RECONFIGURE], ids=["plain", "reconfigured"])
@pytest.mark.parametrize(
    "backend, interrupt",
    [
        ("inproc", _evict_and_resume),
        ("pool", _evict_and_resume),
        ("pool", _sigkill_and_recover),
    ],
    ids=["evict-inproc", "evict-pool", "sigkill-pool"],
)
def test_interrupted_session_equals_direct_run(tmp_path, backend, interrupt, changes):
    with _rig(tmp_path, backend) as rig:
        manager = rig.manager
        session = manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        assert session.ledger is not None  # attached before publication
        sub = session.subscribe(max_queue=64)
        session.step(BEFORE)
        if changes:
            session.reconfigure(dict(changes))
        session.step(BETWEEN)

        with pytest.raises(ServiceError) as exc:
            manager.resume(sid)
        assert exc.value.code == "bad_request"  # live id
        with pytest.raises(ServiceError) as exc:
            manager.resume("s404")
        assert exc.value.code == "unknown_session"

        markers, subscriber_sees = interrupt(rig, session)

        # The tenant slot is held exactly once across the interruption.
        assert manager.tenants() == {"acme": 1}
        with pytest.raises(ServiceError) as exc:
            manager.create(tenant="acme", **PARAMS)
        assert exc.value.code == "overloaded"

        manager.get(sid).step(AFTER)
        lived = ["epoch"] * (BEFORE + BETWEEN)
        if changes:
            lived.insert(BEFORE, "reconfigured")
        chain = lived + markers + ["epoch"] * AFTER
        # One seq chain through the interruption: in the ledger...
        records = list(manager.get(sid).ledger.read())
        assert [r["seq"] for r in records] == list(range(len(chain)))
        assert [r["event"] for r in records] == chain
        # ...and for the subscriber attached when it happened.
        if subscriber_sees is not None:
            chain = chain[: len(lived) + subscriber_sees]
        frames = sub.drain()
        assert [f.seq for f in frames] == list(range(len(chain)))
        assert [f.event for f in frames] == chain

        summary = manager.close(sid, include_epochs=True)
        assert summary == _direct_summary(changes)
        assert manager.tenants() == {} and len(manager) == 0
        manager.close(manager.create(tenant="acme", **PARAMS).session_id)


@pytest.mark.parametrize("backend", ["inproc", "pool"])
def test_failed_resume_leaves_nothing_behind(tmp_path, monkeypatch, backend):
    """A rebuild that raises: no open ledger handle, no reserved slot,
    and the checkpoint is still there for the next attempt."""
    failures = [RuntimeError("rebuild blew up")]

    def fail_first_rebuild(factory):
        def build(session_id, **params):
            if "catchup" in params and failures:
                raise failures.pop()
            return factory(session_id, **params)

        return build

    with _rig(tmp_path, backend, wrap_factory=fail_first_rebuild) as rig:
        manager = rig.manager
        opened = []
        real_open = manager.ledger.open_session

        def recording_open(session_id):
            opened.append(real_open(session_id))
            return opened[-1]

        monkeypatch.setattr(manager.ledger, "open_session", recording_open)
        session = manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        session.step(BEFORE + BETWEEN)
        assert rig.evict() == [sid]

        with pytest.raises(RuntimeError, match="rebuild blew up"):
            manager.resume(sid)
        assert len(opened) == 1
        with pytest.raises(ValueError, match="closed"):
            opened[0].append_many([("epoch", b"{}")])
        assert len(manager) == 0 and manager.tenants() == {}
        assert manager._reserved == 0 and manager._tenant_count == {}

        manager.resume(sid).step(AFTER)  # the marker survived the failure
        assert manager.close(sid, include_epochs=True) == _direct_summary(None)
        assert manager.tenants() == {}


def test_recover_without_a_ledger_releases_the_slots(tmp_path):
    with _rig(tmp_path, "pool", ledger=False) as rig:
        session = rig.manager.create(tenant="acme", **PARAMS)
        rig.sigkill(session)
        assert rig.manager.recover(session.session_id) is False
        assert len(rig.manager) == 0 and rig.manager.tenants() == {}
        assert rig.manager.recover(session.session_id) is False  # already gone


def test_recover_leaves_a_healthy_session_alone(tmp_path):
    with _rig(tmp_path, "inproc") as rig:
        session = rig.manager.create(**PARAMS)
        assert rig.manager.recover(session.session_id) is False
        assert rig.manager.get(session.session_id) is session
        assert session.step(1)["epochs_run"] == 1


def test_resume_needs_a_ledger_and_create_refuses_catchup(tmp_path):
    with _rig(tmp_path, "inproc", ledger=False) as rig:
        assert rig.manager.evict_to_disk is False  # inert without a ledger
        with pytest.raises(ServiceError) as exc:
            rig.manager.resume("s1")
        assert exc.value.code == "bad_params"
        with pytest.raises(ServiceError) as exc:
            rig.manager.create(catchup={"epochs": 3, "reconfigured": []}, **PARAMS)
        assert exc.value.code == "bad_params"
        assert len(rig.manager) == 0 and rig.manager.tenants() == {}


def test_server_module_knows_no_lifecycle():
    """The seam: ``server.py`` is transport and dispatch.  It neither
    reads nor writes ledger meta / checkpoint markers, builds no rebuild
    recipe and assigns nothing onto the manager it constructed."""
    source = Path(repro.service.server.__file__).read_text()
    for needle in (
        "load_meta",
        "load_checkpoint",
        "write_checkpoint",
        "clear_checkpoint",
        "catchup",
        "session_factory =",
        "checkpointer",
    ):
        assert needle not in source, needle
