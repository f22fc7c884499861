"""The session lifecycle without a socket.

:class:`SessionManager` is the one owner of every transition a session
makes, and it is given its collaborators (factory, ledger, whether
eviction checkpoints) at construction — so the whole matrix

    backend ∈ {in-process factory, ``WorkerPool(1)``}
  × trigger ∈ {evict → ``resume``, SIGKILL → ``recover`` (pool only)}
  × {with, without a mid-life ``reconfigure``}
  × snapshot ∈ {valid, deleted, truncated, a byte flipped, written by
    another build, another session's}

runs here against a manager and a tmp ledger only.  A rebuild restores
the snapshot the last eviction wrote and replays what came after it;
with no usable snapshot it replays everything, says why, and the
session is the same either way.  The through-the-wire twin of the
first three dimensions is ``test_rebuild_matrix.py``.
"""

import io
import json
import os
import queue
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.service.server
from repro.core.daemon import TMPDaemon
from repro.ledger import Ledger, config_key
from repro.memsim import MachineConfig
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.service import ServiceError
from repro.service.manager import SessionManager, _rebuild_params
from repro.service.session import ProfilingSession
from repro.service.telemetry import simulation_result_to_dict
from repro.service.workers import WorkerPool
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import make_workload

from .test_server import SMALL
from .test_session import _snapshot_bytes

PARAMS = {"workload": "gups", "seed": 9, "workload_kwargs": dict(SMALL)}
RECONFIGURE = {"trace_sample_period": 2}
#: Epochs stepped before the reconfigure, between it and the
#: interruption, and after the rebuild.
BEFORE, BETWEEN, AFTER = 2, 1, 2
IDLE_TTL_S = 10.0


def _direct_summary(changes, before=BEFORE, after=BETWEEN + AFTER):
    """The uninterrupted run, on a bare ``TieredSimulator``: ``before``
    epochs, the reconfigure (if any), ``after`` more."""
    sim = TieredSimulator(
        make_workload("gups", **SMALL),
        POLICIES["history"](),
        tier1_ratio=1 / 8,
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=PARAMS["seed"],
    )
    if changes:
        sim.start()
        sim.step(before)
        TMPDaemon(sim.profiler).reconfigure(**changes)
        sim.step(after)
        result = sim.result
    else:
        result = sim.run(before + after)
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
        worker = session.host
        os.kill(worker.process.pid, signal.SIGKILL)
        assert self.crashes.get(timeout=30) == [session.session_id]
        assert session.crashed is not None
        # The slot respawns on its reader thread, after the report.
        deadline = time.monotonic() + 30
        while worker.generation == 0 or not worker.process.is_alive():
            assert time.monotonic() < deadline, "worker did not respawn"
            time.sleep(0.02)


@contextmanager
def _rig(
    tmp_path,
    backend,
    ledger=True,
    wrap_build=lambda build: build,
    ledger_kwargs=None,
):
    now = [0.0]
    crashes = queue.Queue()
    pool = None
    if backend == "pool":
        pool = WorkerPool(
            1, on_session_crash=lambda ids, message: crashes.put(ids)
        )
    manager = SessionManager(
        max_sessions=4,
        idle_ttl_s=IDLE_TTL_S,
        tenant_quota=1,
        clock=lambda: now[0],
        pool=pool,
        ledger=Ledger(tmp_path, **(ledger_kwargs or {})) if ledger else None,
        evict_to_disk=True,
    )
    manager._build = wrap_build(manager._build)
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

    def fail_first_rebuild(build):
        def failing_build(session_id, **params):
            if "catchup" in params and failures:
                raise failures.pop()
            return build(session_id, **params)

        return failing_build

    with _rig(tmp_path, backend, wrap_build=fail_first_rebuild) as rig:
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


@contextmanager
def _respawn_held(worker):
    """Hold ``worker``'s respawn until the block ends; yields the event
    set once a death has reached it."""
    held, release = threading.Event(), threading.Event()
    spawn = worker._spawn

    def held_spawn():
        held.set()
        assert release.wait(30)
        spawn()

    worker._spawn = held_spawn
    try:
        yield held
    finally:
        release.set()


def test_recover_before_the_respawn_brings_the_session_back(tmp_path, log_lines):
    """``recover`` running while the dead worker has not respawned yet
    waits in placement for a live one.  The transition is the manager's:
    it counts the recovery and logs it."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_default_registry(registry)
    try:
        with _rig(tmp_path, "pool") as rig:
            manager = rig.manager
            session = manager.create(tenant="acme", **PARAMS)
            sid = session.session_id
            sub = session.subscribe(max_queue=64)
            session.step(BEFORE)
            worker = session.host
            recovered = []
            recovery = threading.Thread(
                target=lambda: recovered.append(manager.recover(sid)), daemon=True
            )
            with _respawn_held(worker) as respawning:
                os.kill(worker.process.pid, signal.SIGKILL)
                assert rig.crashes.get(timeout=30) == [sid]
                assert respawning.wait(30)
                assert not worker.process.is_alive()
                recovery.start()
                recovery.join(0.3)
                assert recovery.is_alive() and session.crashed is not None
            recovery.join(30)
            assert recovered == [True]
            assert session.crashed is None and worker.generation == 1
            session.step(BETWEEN + AFTER)
            assert [f.event for f in sub.drain()] == (
                ["epoch"] * BEFORE + ["error", "recovered"]
                + ["epoch"] * (BETWEEN + AFTER)
            )
            assert manager.close(sid, include_epochs=True) == _direct_summary(None)
        assert registry.counter(
            "repro_service_sessions_recovered_total"
        ).value() == 1
    finally:
        obs_metrics.set_default_registry(previous)
    (line,) = [r for r in log_lines() if r["event"] == "session_recovered"]
    assert line["component"] == "service.manager"
    assert (line["session"], line["worker"], line["epochs"]) == (sid, 0, BEFORE)
    assert line["epochs_replayed"] == BEFORE


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
        "session_factory",
        "ProfilingSession",
        "checkpointer",
    ):
        assert needle not in source, needle


# ------------------------------------------------- the snapshot dimension


def _flip_a_payload_byte(path, other_key):
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0x01
    path.write_bytes(bytes(blob))


def _rewrite_header(**changes):
    def spoil(path, other_key):
        line, _, payload = path.read_bytes().partition(b"\n")
        header = {**json.loads(line), **changes}
        if "config_key" in changes:
            header["config_key"] = other_key
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)

    return spoil


#: How to make a snapshot unusable -> the reason the rebuild must give.
SPOILED = {
    "deleted": (lambda path, other_key: path.unlink(), "missing"),
    "truncated": (
        lambda path, other_key: path.write_bytes(path.read_bytes()[:-1]),
        "short",
    ),
    "flipped": (_flip_a_payload_byte, "corrupt"),
    "version": (_rewrite_header(repro="99.0.0"), "version"),
    "config_key": (_rewrite_header(config_key=None), "config_key"),
}
#: A session that is not this one.
OTHER_KEY = config_key({**PARAMS, "seed": PARAMS["seed"] + 1})


def _header(path):
    return json.loads(path.read_bytes().partition(b"\n")[0])


def _last(manager, sid, event):
    """The data of the newest ``event`` record in the session's ledger."""
    return [
        r["data"] for r in manager.get(sid).ledger.read() if r["event"] == event
    ][-1]


def _rebuild_report(data):
    return {
        key: data.get(key)
        for key in (
            "epochs_restored", "epochs_replayed", "snapshot_bytes", "fallback_reason"
        )
    }


@pytest.mark.parametrize(
    "backend, trigger",
    [("inproc", "evict"), ("pool", "evict"), ("pool", "sigkill")],
    ids=["evict-inproc", "evict-pool", "sigkill-pool"],
)
def test_spoiled_snapshot_costs_a_replay_never_the_session(tmp_path, backend, trigger):
    """Every cell above, with the snapshot made unusable in every way:
    the rebuild says why, replays from epoch 0 and equals the direct run."""
    with _rig(tmp_path, backend) as rig:
        manager = rig.manager
        snapshot_path = manager.ledger.snapshot_path
        for changes in (None, RECONFIGURE):
            expected = _direct_summary(changes)
            for name, (spoil, reason) in SPOILED.items():
                cell = (changes, name)
                session = manager.create(tenant="acme", **PARAMS)
                sid = session.session_id
                session.step(BEFORE)
                if changes:
                    session.reconfigure(dict(changes))
                if trigger == "sigkill":
                    # A crash finds a snapshot only where an earlier
                    # eviction left one.
                    assert rig.evict() == [sid]
                    session = manager.resume(sid)
                    assert _last(manager, sid, "resumed")["snapshot_bytes"] > 0
                session.step(BETWEEN)
                if trigger == "evict":
                    assert rig.evict() == [sid]
                    spoil(snapshot_path(sid), OTHER_KEY)
                    manager.resume(sid)
                    report = _last(manager, sid, "resumed")
                    assert report["epochs_resumed"] == BEFORE + BETWEEN
                else:
                    spoil(snapshot_path(sid), OTHER_KEY)
                    rig.sigkill(session)
                    assert manager.recover(sid) is True
                    report = _last(manager, sid, "recovered")
                assert _rebuild_report(report) == {
                    "epochs_restored": 0,
                    "epochs_replayed": BEFORE + BETWEEN,
                    "snapshot_bytes": 0,
                    "fallback_reason": reason,
                }, cell
                manager.get(sid).step(AFTER)
                assert manager.close(sid, include_epochs=True) == expected, cell


@pytest.mark.parametrize("reconfigure_at", ["before-eviction", "after-resume"])
def test_crash_after_a_resume_replays_only_the_tail(tmp_path, reconfigure_at):
    """evict → resume → (reconfigure) → step → SIGKILL → recover: the
    recovery starts from the eviction's snapshot.  A reconfigure made
    right after the resume has the snapshot's ``epochs_run`` but a later
    seq, so it is re-applied; one made before the eviction is already
    in the snapshot, so it is not applied twice."""
    with _rig(tmp_path, "pool") as rig:
        manager = rig.manager
        session = manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        session.step(BEFORE)
        if reconfigure_at == "before-eviction":
            session.reconfigure(dict(RECONFIGURE))
        assert rig.evict() == [sid]
        session = manager.resume(sid)
        assert _rebuild_report(_last(manager, sid, "resumed")) == {
            "epochs_restored": BEFORE,
            "epochs_replayed": 0,
            "snapshot_bytes": _header(manager.ledger.snapshot_path(sid))[
                "payload_bytes"
            ],
            "fallback_reason": None,
        }
        if reconfigure_at == "after-resume":
            session.reconfigure(dict(RECONFIGURE))
        session.step(BETWEEN)
        rig.sigkill(session)
        assert manager.recover(sid) is True
        report = _rebuild_report(_last(manager, sid, "recovered"))
        assert report["snapshot_bytes"] > 0
        assert (report["epochs_restored"], report["epochs_replayed"]) == (
            BEFORE, BETWEEN
        )
        assert report["fallback_reason"] is None
        session.step(AFTER)
        assert manager.close(sid, include_epochs=True) == _direct_summary(RECONFIGURE)


@pytest.mark.parametrize("backend", ["inproc", "pool"])
def test_second_eviction_overwrites_the_first_snapshot(tmp_path, backend):
    with _rig(tmp_path, backend) as rig:
        manager = rig.manager
        sid = manager.create(tenant="acme", **PARAMS).session_id
        path = manager.ledger.snapshot_path(sid)
        restored = []
        for steps in (BEFORE, BETWEEN):
            manager.get(sid).step(steps)
            assert rig.evict() == [sid]
            # The marker goes with the resume; the snapshot stays.
            assert manager.ledger.load_checkpoint(sid) is not None
            manager.resume(sid)
            assert manager.ledger.load_checkpoint(sid) is None and path.exists()
            restored.append(_last(manager, sid, "resumed")["epochs_restored"])
            # Taken before the goodbye and the ``resumed`` marker.
            assert _header(path)["epochs"] == restored[-1]
            assert _header(path)["frame_seq"] == manager.get(sid).frame_seq - 2
        assert restored == [BEFORE, BEFORE + BETWEEN]
        assert list(path.parent.glob(".*")) == []  # no temp file left
        manager.get(sid).step(AFTER)
        assert manager.close(sid, include_epochs=True) == _direct_summary(None)


def test_close_removes_the_snapshot_and_keeps_the_frames(tmp_path):
    with _rig(tmp_path, "inproc") as rig:
        manager = rig.manager
        session = manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        session.step(BEFORE)
        assert rig.evict() == [sid]
        manager.resume(sid).step(AFTER)
        assert manager.ledger.snapshot_path(sid).exists()
        manager.close(sid)
        assert not manager.ledger.snapshot_path(sid).exists()
        reopened = manager.ledger.open_session(sid)
        try:
            assert [r["event"] for r in reopened.read()] == (
                ["epoch"] * BEFORE + ["error", "resumed"] + ["epoch"] * AFTER
            )
        finally:
            reopened.close()


def test_a_rebuild_steps_only_the_epochs_since_the_snapshot(tmp_path, monkeypatch):
    """The trip counts: resuming a session evicted at epoch 40 advances
    the simulator by 0 epochs; rebuilding it 5 epochs later — what
    ``recover`` asks a worker to do — by 5."""
    stepped = []
    real_step = TieredSimulator.step

    def counting_step(self, epochs=1):
        stepped.append(epochs)
        return real_step(self, epochs)

    monkeypatch.setattr(TieredSimulator, "step", counting_step)
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_default_registry(registry)
    try:
        with _rig(tmp_path, "inproc") as rig:
            manager = rig.manager
            sid = manager.create(tenant="acme", **PARAMS).session_id
            manager.get(sid).step(40)
            assert rig.evict() == [sid]
            del stepped[:]
            session = manager.resume(sid)
            assert sum(stepped) == 0
            assert session.info()["epochs_run"] == 40
            session.step(5)

            del stepped[:]
            twin = ProfilingSession(
                "twin",
                **_rebuild_params(
                    manager.ledger.load_meta(sid),
                    session.ledger,
                    session.ledger.epoch_count,
                    manager.ledger.snapshot_path(sid),
                ),
            )
            assert sum(stepped) == 5
            assert _rebuild_report(twin.rebuild)["epochs_restored"] == 40
            assert _rebuild_report(twin.rebuild)["epochs_replayed"] == 5
            assert twin.stats()["daemon"] == session.stats()["daemon"]
            assert twin.numa_maps() == session.numa_maps()
            twin.step(AFTER)
            session.step(AFTER)
            assert twin.close(include_epochs=True) == manager.close(
                sid, include_epochs=True
            )
        histogram = registry.histogram(
            "repro_service_rebuild_seconds", labelnames=("source",)
        )
        assert histogram.count(source="snapshot") == 1
        assert histogram.count(source="replay") == 0
        assert registry.counter(
            "repro_service_rebuild_epochs_replayed_total"
        ).value() == 0
    finally:
        obs_metrics.set_default_registry(previous)


# ------------------------------------ a resume costs the state, not the age

#: What 180 more epochs may add to a snapshot: the newest report's trace
#: samples vary in number; the history used to add ~320 bytes an epoch.
SNAPSHOT_SLACK_BYTES = 4096


def test_snapshot_size_follows_the_state_not_the_age(tmp_path):
    session = ProfilingSession("s", **PARAMS)
    session.step(20)
    young = _snapshot_bytes(session, tmp_path)
    session.step(180)
    old = _snapshot_bytes(session, tmp_path)
    assert old - young <= SNAPSHOT_SLACK_BYTES
    # Taking one leaves the live session its whole history.
    assert len(session.sim.result.epochs) == 200
    assert len(session.sim.profiler.reports) == session.daemon.statistics()["epochs"]


@pytest.mark.parametrize("backend", ["inproc", "pool"])
def test_a_resumed_session_reports_like_a_never_evicted_one(tmp_path, backend):
    """Totals continue the running sums the snapshot carried, counts
    its counters, and an epoch window spanning the restore reads the
    part before it from the ledger."""
    twin = ProfilingSession("twin", **PARAMS)
    twin.step(BEFORE)
    twin.reconfigure(dict(RECONFIGURE))
    twin.step(BETWEEN + AFTER)
    with _rig(tmp_path, backend) as rig:
        manager = rig.manager
        session = manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        session.step(BEFORE)
        session.reconfigure(dict(RECONFIGURE))
        session.step(BETWEEN)
        assert rig.evict() == [sid]
        session = manager.resume(sid)
        assert session.rebuild["epochs_restored"] == BEFORE + BETWEEN
        session.step(AFTER)
        stats, expected = session.stats(), twin.stats()
        assert stats["daemon"] == expected["daemon"]
        assert stats["result"] == expected["result"]
        for key in ("epochs_run", "workload", "tier1_capacity", "seed"):
            assert stats["session"][key] == expected["session"][key]
        window = dict(include_epochs=True, epochs_from=1, epochs_to=BEFORE + 2)
        assert manager.close(sid, **window) == twin.close(**window)


def test_evict_resume_cycles_neither_decode_nor_add_segments(tmp_path):
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_default_registry(registry)
    try:
        with _rig(tmp_path, "inproc") as rig:
            manager = rig.manager
            sid = manager.create(tenant="acme", **PARAMS).session_id
            manager.get(sid).step(BEFORE)
            assert rig.evict() == [sid]
            segments = sorted(p.name for p in (tmp_path / sid).glob("seg-*"))
            for _ in range(20):
                manager.resume(sid).step(1)
                assert rig.evict() == [sid]
            assert sorted(p.name for p in (tmp_path / sid).glob("seg-*")) == segments
            assert manager.resume(sid).info()["epochs_run"] == BEFORE + 20
        assert registry.counter("repro_ledger_records_decoded_total").value() == 0
    finally:
        obs_metrics.set_default_registry(previous)


@pytest.fixture
def log_lines():
    """The JSON log lines this process emits while the test runs."""
    stream = io.StringIO()
    obs_log.configure(enabled=True, stream=stream)
    try:
        yield lambda: [json.loads(line) for line in stream.getvalue().splitlines()]
    finally:
        obs_log.configure(enabled=False)


def _block_the_snapshot_path(session, path):
    path.mkdir()  # the writer's rename onto it fails, whichever process it is


def _make_unpicklable(session, path):
    session.sim.policy.callback = lambda: None


@pytest.mark.parametrize(
    "backend, sabotage",
    [
        ("inproc", _block_the_snapshot_path),
        ("pool", _block_the_snapshot_path),
        ("inproc", _make_unpicklable),
    ],
    ids=["write-error-inproc", "write-error-pool", "unpicklable-inproc"],
)
def test_failed_snapshot_write_degrades_to_the_marker(
    tmp_path, log_lines, backend, sabotage
):
    """No snapshot is no loss: the goodbye still promises a resume, one
    warning names the cause, and the resume replays."""
    with _rig(tmp_path, backend) as rig:
        manager = rig.manager
        session = manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        sub = session.subscribe(max_queue=64)
        session.step(BEFORE + BETWEEN)
        path = manager.ledger.snapshot_path(sid)
        sabotage(session, path)
        assert rig.evict() == [sid]
        goodbye = json.loads(sub.drain()[-1].payload)
        assert (goodbye["code"], goodbye["resumable"]) == ("evicted", True)
        assert manager.sessions_checkpointed == 1
        warnings = [r for r in log_lines() if r["level"] == "warning"]
        assert [r["event"] for r in warnings] == ["session_snapshot_failed"]
        assert warnings[0]["session"] == sid and warnings[0]["error"]
        checkpointed = [
            r for r in log_lines() if r["event"] == "session_checkpointed"
        ]
        assert checkpointed[0]["snapshot_bytes"] == 0
        assert list(path.parent.glob(".*")) == []  # no temp file left

        manager.resume(sid).step(AFTER)
        report = _rebuild_report(_last(manager, sid, "resumed"))
        assert report["epochs_replayed"] == BEFORE + BETWEEN
        assert report["fallback_reason"] in ("unreadable", "missing")
        resumed = [r for r in log_lines() if r["event"] == "session_resumed"]
        assert _rebuild_report(resumed[0]) == report
        if path.is_dir():
            path.rmdir()  # close() drops a snapshot *file*
        assert manager.close(sid, include_epochs=True) == _direct_summary(None)


def test_checkpoint_and_rebuild_say_what_they_did(tmp_path, log_lines):
    with _rig(tmp_path, "inproc") as rig:
        manager = rig.manager
        sid = manager.create(tenant="acme", **PARAMS).session_id
        manager.get(sid).step(BEFORE)
        assert rig.evict() == [sid]
        manager.resume(sid)
        by_event = {r["event"]: r for r in log_lines()}
        checkpointed = by_event["session_checkpointed"]
        assert checkpointed["snapshot_bytes"] > 0
        assert checkpointed["snapshot_write_seconds"] > 0
        assert _rebuild_report(by_event["session_resumed"]) == {
            "epochs_restored": BEFORE,
            "epochs_replayed": 0,
            "snapshot_bytes": checkpointed["snapshot_bytes"],
            "fallback_reason": None,
        }
        # Spoil it and the worker-side reason is logged too.
        assert rig.evict() == [sid]
        manager.ledger.snapshot_path(sid).write_bytes(b"not a snapshot")
        manager.resume(sid)
        refused = [r for r in log_lines() if r["event"] == "snapshot_not_used"]
        assert [(r["level"], r["reason"]) for r in refused] == [("warning", "corrupt")]


# ------------------------------------------------ ids are not paths


@pytest.mark.parametrize(
    "bad", ["../x", "/abs", "a/b", "..", "", 7, ["s1"]], ids=repr
)
def test_resume_refuses_ids_that_are_not_session_ids(tmp_path, bad):
    with _rig(tmp_path, "inproc") as rig:
        with pytest.raises(ServiceError) as exc:
            rig.manager.resume(bad)
        assert exc.value.code == "unknown_session"
        assert rig.manager._reserved == 0 and rig.manager.tenants() == {}


def test_resume_does_not_follow_an_id_out_of_the_ledger_root(tmp_path):
    """A checkpointed session's directory moved beside the root is not
    resumable as ``../outside``, and nothing in it is touched."""
    root = tmp_path / "root"
    with _rig(root, "inproc") as rig:
        session = rig.manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        session.step(3)
        assert rig.evict() == [sid]
        outside = tmp_path / "outside"
        (root / sid).rename(outside)
        before = sorted(p.name for p in outside.iterdir())
        assert "checkpoint.json" in before
        with pytest.raises(ServiceError) as exc:
            rig.manager.resume("../outside")
        assert exc.value.code == "unknown_session"
        assert sorted(p.name for p in outside.iterdir()) == before
        assert len(rig.manager) == 0


# ------------------------------------- retention does not change a rebuild


@pytest.mark.parametrize("snapshot", ["present", "deleted"])
def test_rebuild_after_retention_dropped_the_reconfigure(tmp_path, snapshot):
    """Retention has deleted the segment holding the ``reconfigured``
    record and most of the epochs; a resume — from the snapshot, or by
    replaying from zero without it — still equals the direct run, and a
    reopened ledger still knows the session's age."""
    changes = {"trace_sample_period": 8}
    retention = dict(segment_bytes=4096, retention_bytes=16384)
    with _rig(tmp_path, "inproc", ledger_kwargs=retention) as rig:
        manager = rig.manager
        session = manager.create(tenant="acme", **PARAMS)
        sid = session.session_id
        session.step(5)
        session.reconfigure(dict(changes))
        session.step(200)
        assert session.ledger.first_seq > 6  # the reconfigure is gone from disk
        assert rig.evict() == [sid]
        reopened = manager.ledger.open_session(sid)
        try:
            assert reopened.epoch_count == 205
            assert [r["seq"] for r in reopened.reconfigured] == [5]
        finally:
            reopened.close()
        if snapshot == "deleted":
            manager.ledger.snapshot_path(sid).unlink()
        manager.resume(sid).step(20)
        report = _last(manager, sid, "resumed")
        assert report["epochs_restored"] + report["epochs_replayed"] == 205
        assert report["epochs_restored"] == (205 if snapshot == "present" else 0)
        summary = manager.close(sid, include_epochs=True)
        expected = _direct_summary(changes, before=5, after=220)
        if snapshot == "present":
            # A snapshot holds no per-epoch history: the epochs from
            # before the restore are read from the ledger, so the ones
            # retention dropped are missing from the front.
            kept = summary["epochs_from"]
            assert 0 < kept < 205
            expected["epochs_from"] = kept
            expected["epochs"] = expected["epochs"][kept:]
        assert summary == expected
