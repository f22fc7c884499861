"""Unit tests for sessions, subscriber queues, and the manager."""

import json
import threading

import pytest

from repro.memsim import MachineConfig
from repro.service import ProfilingSession, ServiceError, SessionManager, SubscriberQueue
from repro.service.protocol import encode_payload
from repro.tiering import TieredSimulator
from repro.tiering.policies import HistoryPolicy
from repro.workloads import make_workload

SMALL = {"footprint_pages": 512, "accesses_per_epoch": 2000}


def _session(session_id="s1", **kw):
    kw.setdefault("workload", "gups")
    kw.setdefault("workload_kwargs", dict(SMALL))
    kw.setdefault("tier1_ratio", 0.125)
    return ProfilingSession(session_id, **kw)


def _snapshot_bytes(session, directory):
    """Bytes of the session's pickled state, written by its host."""
    return session.write_snapshot(
        str(directory / f"{session.session_id}.snapshot"),
        config_key="k",
        frame_seq=0,
        durable=False,
    )["payload_bytes"]


class TestSubscriberQueue:
    def test_drop_oldest_keeps_tail(self):
        q = SubscriberQueue("sub", "s1", max_queue=4)
        for i in range(10):
            q.push("epoch", encode_payload({"epoch": i}))
        assert len(q) == 4
        frames = q.drain()
        assert [json.loads(f.payload)["epoch"] for f in frames] == [6, 7, 8, 9]
        assert frames[-1].seq == 9
        assert q.dropped == 6
        assert len(q) == 0

    def test_seq_monotonic_across_drains(self):
        q = SubscriberQueue("sub", "s1", max_queue=8)
        q.push("epoch", b"{}")
        q.drain()
        frame = q.push("epoch", b"{}")
        assert frame.seq == 1

    def test_dropped_counter_in_frames(self):
        q = SubscriberQueue("sub", "s1", max_queue=1)
        q.push("epoch", encode_payload({"epoch": 0}))
        frame = q.push("epoch", encode_payload({"epoch": 1}))
        assert frame.dropped == 1

    def test_bad_params(self):
        with pytest.raises(ServiceError):
            SubscriberQueue("sub", "s1", max_queue=0)
        with pytest.raises(ServiceError):
            SubscriberQueue("sub", "s1", max_rate_hz=0)


class TestProfilingSession:
    def test_step_returns_epoch_telemetry(self):
        s = _session(seed=1)
        out = s.step(2)
        assert [e["epoch"] for e in out["epochs"]] == [0, 1]
        assert out["epochs_run"] == 2
        assert out["step_seconds"] > 0
        epoch = out["epochs"][0]
        assert set(epoch) >= {
            "epoch", "accesses", "mem_accesses", "hitrate",
            "promoted", "demoted", "runtime_s", "latency",
        }
        assert epoch["latency"]["total_s"] >= epoch["latency"]["base_s"]

    @pytest.mark.parametrize("field", ["workload", "policy"])
    @pytest.mark.parametrize("bad", ["nope", None, 7, ["gups"], {"a": 1}])
    def test_a_name_nobody_registered_is_bad_params(self, field, bad):
        # Names come off the wire: whatever JSON can carry, hashable or not.
        with pytest.raises(ServiceError, match=f"unknown {field} ") as exc:
            ProfilingSession("s1", **{"workload": "gups", field: bad})
        assert exc.value.code == "bad_params"

    def test_bit_identical_to_direct_simulator(self):
        s = _session(seed=42)
        frames = []
        sub = s.subscribe(max_queue=16)
        s.step(3)
        frames = sub.drain()

        sim = TieredSimulator(
            make_workload("gups", **SMALL),
            HistoryPolicy(),
            tier1_ratio=0.125,
            machine_config=MachineConfig.scaled(ibs_period=16),
            seed=42,
        )
        res = sim.run(3)
        assert len(frames) == 3
        for frame, epoch in zip(frames, res.epochs):
            data = json.loads(frame.payload)
            assert data["hitrate"] == epoch.hitrate
            assert data["promoted"] == epoch.promoted
            assert data["demoted"] == epoch.demoted
            assert data["runtime_s"] == epoch.runtime_s

    def test_stats_structure(self):
        s = _session()
        s.step(1)
        stats = s.stats()
        assert stats["session"]["workload"] == "gups"
        assert stats["daemon"]["programs"] == ["gups"]
        assert stats["result"]["epochs_run"] == 1
        assert stats["timings"]["step"]["items"] == 1

    def test_numa_maps(self):
        s = _session()
        s.step(1)
        text = s.numa_maps()
        assert "# pid" in text
        with pytest.raises(ServiceError):
            s.numa_maps([424242])

    def test_reconfigure_routes_trace_period(self):
        s = _session()
        s.reconfigure({"trace_sample_period": 8})
        assert s.sim.machine.ibs.period == 8

    def test_only_the_trace_source_fills_a_buffer(self, tmp_path):
        """A sampler other than ``trace_source`` records nothing, so no
        buffer fills that nothing drains and the snapshot does not grow
        with the session's age by the source chosen."""
        epochs = 100
        ibs = _session(tmp={"trace_source": "ibs"})
        ibs.step(epochs)
        ibs_bytes = _snapshot_bytes(ibs, tmp_path)
        for source in ("pebs", "lwp"):
            s = _session(tmp={"trace_source": source})
            s.step(epochs)
            m = s.sim.machine
            pending = {
                "ibs": m.ibs.pending, "pebs": m.pebs.pending, "lwp": m.lwp.pending()
            }
            del pending[source]
            assert pending == dict.fromkeys(pending, 0), source
            assert _snapshot_bytes(s, tmp_path) == pytest.approx(
                ibs_bytes, rel=0.02
            ), source

    def test_reconfigure_rejects_unknown_key(self):
        s = _session()
        with pytest.raises(ServiceError):
            s.reconfigure({"bogus": 1})
        with pytest.raises(ServiceError):
            s.reconfigure({})

    def test_unknown_workload_and_policy(self):
        with pytest.raises(ServiceError):
            _session(workload="doom")
        with pytest.raises(ServiceError):
            _session(policy="vibes")

    def test_step_after_close_rejected(self):
        s = _session()
        s.step(1)
        summary = s.close()
        assert summary["epochs_run"] == 1
        with pytest.raises(ServiceError):
            s.step(1)

    def test_unsubscribe_stops_frames(self):
        s = _session()
        sub = s.subscribe()
        assert s.unsubscribe(sub.subscription_id)
        s.step(1)
        assert sub.drain() == []
        assert not s.unsubscribe(sub.subscription_id)

    def test_notify_called_per_epoch(self):
        s = _session()
        calls = []
        s.subscribe(notify=lambda: calls.append(1))
        s.step(2)
        assert len(calls) == 2


class TestSessionManager:
    def _manager(self, **kw):
        kw.setdefault("max_sessions", 2)
        return SessionManager(**kw)

    def _create(self, mgr, **kw):
        kw.setdefault("workload", "gups")
        kw.setdefault("workload_kwargs", dict(SMALL))
        return mgr.create(**kw)

    def test_admission_limit(self):
        mgr = self._manager()
        self._create(mgr)
        self._create(mgr)
        with pytest.raises(ServiceError) as exc:
            self._create(mgr)
        assert exc.value.code == "at_capacity"

    def test_slot_released_on_failed_create(self):
        mgr = self._manager(max_sessions=1)
        with pytest.raises(ServiceError):
            self._create(mgr, workload="doom")
        self._create(mgr)  # the reserved slot came back

    def test_get_and_close(self):
        mgr = self._manager()
        s = self._create(mgr)
        assert mgr.get(s.session_id) is s
        mgr.close(s.session_id)
        with pytest.raises(ServiceError) as exc:
            mgr.get(s.session_id)
        assert exc.value.code == "unknown_session"
        with pytest.raises(ServiceError):
            mgr.close(s.session_id)

    def test_idle_eviction_with_fake_clock(self):
        now = [0.0]
        mgr = SessionManager(max_sessions=4, idle_ttl_s=10.0, clock=lambda: now[0])
        a = self._create(mgr)
        now[0] = 8.0
        b = self._create(mgr)
        assert mgr.evict_idle() == []
        now[0] = 15.0
        assert mgr.evict_idle() == [a.session_id]
        assert len(mgr) == 1
        assert mgr.get(b.session_id) is b
        assert a.closed

    def test_eviction_disabled(self):
        now = [0.0]
        mgr = SessionManager(idle_ttl_s=0.0, clock=lambda: now[0])
        self._create(mgr)
        now[0] = 1e9
        assert mgr.evict_idle() == []

    def test_close_all_and_list(self):
        mgr = self._manager()
        a = self._create(mgr)
        listed = mgr.list_sessions()
        assert [s["session"] for s in listed] == [a.session_id]
        assert mgr.close_all() == [a.session_id]
        assert len(mgr) == 0

    def test_tenant_quota_enforced_and_released(self):
        mgr = SessionManager(max_sessions=8, tenant_quota=1)
        a = self._create(mgr, tenant="acme")
        assert a.tenant == "acme"
        with pytest.raises(ServiceError) as exc:
            self._create(mgr, tenant="acme")
        assert exc.value.code == "overloaded"
        b = self._create(mgr, tenant="globex")  # other tenants unaffected
        assert mgr.tenants() == {"acme": 1, "globex": 1}
        mgr.close(a.session_id)
        self._create(mgr, tenant="acme")  # quota slot came back
        mgr.close_all()
        assert mgr.tenants() == {}
        self._create(mgr, tenant="globex")  # close_all released b's slot
        assert b.closed

    def test_tenant_quota_released_on_failed_create(self):
        mgr = SessionManager(max_sessions=8, tenant_quota=1)
        with pytest.raises(ServiceError):
            self._create(mgr, tenant="acme", workload="doom")
        self._create(mgr, tenant="acme")  # reservation was rolled back

    def test_tenant_param_validation(self):
        mgr = self._manager()
        for bad in ("", 7, None):
            with pytest.raises(ServiceError) as exc:
                self._create(mgr, tenant=bad)
            assert exc.value.code == "bad_params"

    def test_close_all_rejects_mid_construction_create(self):
        # A create whose (slow, unlocked) construction straddles a
        # close_all() must not insert a live session after the drain,
        # and its reserved tenant slot must not leak.
        building, release = threading.Event(), threading.Event()

        mgr = SessionManager(max_sessions=4, tenant_quota=1)
        build = mgr._build

        def slow_build(session_id, **params):
            building.set()
            assert release.wait(timeout=60)
            return build(session_id, **params)

        mgr._build = slow_build
        errors = []

        def run_create():
            try:
                mgr.create(
                    workload="gups", workload_kwargs=dict(SMALL), tenant="acme"
                )
            except ServiceError as exc:
                errors.append(exc)

        worker = threading.Thread(target=run_create, daemon=True)
        worker.start()
        assert building.wait(timeout=60)
        assert mgr.close_all() == []  # drain lands mid-construction
        release.set()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [e.code for e in errors] == ["server_drain"]
        assert len(mgr) == 0
        # The tenant slot came back: the same tenant can create again
        # up to its quota of one.
        release.set()
        building.clear()
        s = mgr.create(workload="gups", workload_kwargs=dict(SMALL), tenant="acme")
        assert mgr.tenants() == {"acme": 1}
        mgr.close(s.session_id)
        assert mgr.tenants() == {}


class TestMidStepEvictionRace:
    """Regression: a step running longer than the idle TTL used to be
    evicted mid-step, closing the simulator out from under the stepping
    thread (the session only touch()ed when the step *completed*)."""

    def _slow_stepping_session(self, mgr, in_step, release):
        session = mgr.create(workload="gups", workload_kwargs=dict(SMALL))
        real_step = session.sim.step

        def gated_step(epochs):
            in_step.set()
            assert release.wait(timeout=60)
            return real_step(epochs)

        session.sim.step = gated_step
        return session

    def test_long_step_survives_reaper(self):
        now = [0.0]
        mgr = SessionManager(
            max_sessions=2, idle_ttl_s=5.0, clock=lambda: now[0]
        )
        in_step, release = threading.Event(), threading.Event()
        session = self._slow_stepping_session(mgr, in_step, release)
        outcome = []
        worker = threading.Thread(
            target=lambda: outcome.append(session.step(1)), daemon=True
        )
        worker.start()
        assert in_step.wait(timeout=60)
        assert session.busy
        now[0] = 1e6  # way past the TTL while the step is in flight
        assert mgr.evict_idle() == []  # busy: skipped, not evicted
        assert mgr.get(session.session_id) is session
        release.set()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert not session.closed
        assert outcome and outcome[0]["epochs_run"] == 1
        # Once the step finishes the session is genuinely idle again
        # (end_op touched at now=1e6), so the reaper may take it.
        assert not session.busy
        now[0] = 1e6 + 10.0
        assert mgr.evict_idle() == [session.session_id]

    def test_step_losing_race_to_reaper_fails_structured(self):
        # A step dispatched between the reaper's idle check and its
        # close() used to run against a closing simulator.  The claim
        # (try_mark_evicting) and begin_op share the activity lock, so
        # the loser now fails with a structured ``evicted`` error.
        now = [0.0]
        mgr = SessionManager(max_sessions=2, idle_ttl_s=5.0, clock=lambda: now[0])
        session = mgr.create(workload="gups", workload_kwargs=dict(SMALL))
        handle = mgr.get(session.session_id)  # step handler resolved...
        now[0] = 100.0
        assert mgr.evict_idle() == [session.session_id]  # ...reaper wins
        with pytest.raises(ServiceError) as exc:
            handle.step(1)  # begin_op runs after the claim
        assert exc.value.code == "evicted"

    def test_evict_claim_loses_to_inflight_op(self):
        # The converse interleaving: begin_op registered first, so the
        # reaper's atomic claim fails and the session survives.
        now = [0.0]
        mgr = SessionManager(max_sessions=2, idle_ttl_s=5.0, clock=lambda: now[0])
        session = mgr.create(workload="gups", workload_kwargs=dict(SMALL))
        stale = 100.0
        session.last_active_s = -stale  # look long-idle despite the op
        session.begin_op()
        session.last_active_s = -stale
        try:
            assert not session.try_mark_evicting(now[0], 5.0)
            assert mgr.evict_idle() == []
        finally:
            session.end_op()
        now[0] = stale + 10.0
        assert mgr.evict_idle() == [session.session_id]

    def test_begin_op_touches_at_start(self):
        # Activity is registered when the op *begins*, not when it
        # completes: a session one tick from eviction that starts a
        # step is immediately fresh.
        now = [0.0]
        session = ProfilingSession(
            "s1",
            workload="gups",
            workload_kwargs=dict(SMALL),
            clock=lambda: now[0],
        )
        now[0] = 100.0
        assert session.idle_s() == 100.0
        session.begin_op()
        assert session.idle_s() == 0.0
        assert session.busy
        session.end_op()
        assert not session.busy
