"""Service observability: the metrics op, aggregation, and scraping.

Covers the three exposure paths promised by ``docs/observability.md``:
the ``metrics`` protocol op, :meth:`ServiceClient.metrics`, and the
Prometheus HTTP endpoint — including aggregation across worker
*processes* (per-worker snapshots piggyback over the pool pipes and
merge in the parent).
"""

import json
import urllib.request

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.http import PROMETHEUS_CONTENT_TYPE
from repro.service import ServerThread, ServiceClient, ServiceError
from repro.service.session import ProfilingSession

from .test_server import SMALL

TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def fresh_registry():
    """Isolate each test from the process-global default registry."""
    previous = obs_metrics.set_default_registry(obs_metrics.MetricsRegistry())
    yield
    obs_metrics.set_default_registry(previous)


def value(snapshot, name, **labels):
    """One sample's value from a snapshot (0 when absent)."""
    want = {str(k): str(v) for k, v in labels.items()}
    for sample in snapshot.get(name, {"samples": []})["samples"]:
        if sample["labels"] == want:
            return sample.get("value", sample.get("count"))
    return 0


class TestInProcessMetrics:
    def test_metrics_op_counts_sessions_and_epochs(self):
        with ServerThread(workers=0, reap_interval_s=0) as srv:
            with ServiceClient(address=srv.address) as c:
                info = c.create_session("gups", workload_kwargs=dict(SMALL))
                c.step(info["session"], 3)
                snap = c.metrics()
                assert value(snap, "repro_service_sessions_created_total") == 1
                assert value(snap, "repro_service_sessions_active") == 1
                assert value(snap, "repro_session_epochs_total") == 3
                step_hist = snap["repro_session_step_seconds"]["samples"][0]
                assert step_hist["count"] == 1
                assert value(
                    snap, "repro_service_requests_total", op="step", outcome="ok"
                ) == 1
                c.close_session(info["session"])
                snap = c.metrics()
                assert value(snap, "repro_service_sessions_closed_total") == 1
                assert value(snap, "repro_service_sessions_active") == 0

    def test_client_metrics_matches_raw_op(self):
        with ServerThread(workers=0, reap_interval_s=0) as srv:
            with ServiceClient(address=srv.address) as c:
                info = c.create_session("gups", workload_kwargs=dict(SMALL))
                c.step(info["session"], 2)
                raw = c.request("metrics")["metrics"]
                convenience = c.metrics()
                assert set(raw) == set(convenience)
                for name in (
                    "repro_session_epochs_total",
                    "repro_service_sessions_created_total",
                ):
                    assert value(raw, name) == value(convenience, name)

    def test_rejected_create_counts(self):
        with ServerThread(workers=0, max_sessions=1, reap_interval_s=0) as srv:
            with ServiceClient(address=srv.address) as c:
                c.create_session("gups", workload_kwargs=dict(SMALL))
                with pytest.raises(ServiceError):
                    c.create_session("gups", workload_kwargs=dict(SMALL))
                snap = c.metrics()
                assert value(
                    snap,
                    "repro_service_sessions_rejected_total",
                    reason="at_capacity",
                ) == 1
                assert value(
                    snap,
                    "repro_service_requests_total",
                    op="create_session",
                    outcome="at_capacity",
                ) == 1

    def test_error_outcomes_labelled(self):
        with ServerThread(workers=0, reap_interval_s=0) as srv:
            with ServiceClient(address=srv.address) as c:
                with pytest.raises(ServiceError):
                    c.request("no_such_op")
                snap = c.metrics()
                assert value(
                    snap,
                    "repro_service_requests_total",
                    op="unknown",
                    outcome="unknown_op",
                ) == 1

    def test_unknown_ops_add_no_series(self):
        """A client's op string is no label value: 50 distinct unknown
        ops leave one ``op="unknown"`` series, not 50."""
        with ServerThread(workers=0, reap_interval_s=0) as srv:
            with ServiceClient(address=srv.address) as c:
                c.ping()
                for n in range(50):
                    with pytest.raises(ServiceError):
                        c.request(f"bogus-{n}")
                samples = c.metrics()["repro_service_requests_total"]["samples"]
                ops = {sample["labels"]["op"] for sample in samples}
                assert ops == {"ping", "unknown"}
                assert value(
                    c.metrics(),
                    "repro_service_requests_total",
                    op="unknown",
                    outcome="unknown_op",
                ) == 50


class TestActiveSessionsGauge:
    """Regression: the active-sessions gauge used to be published
    outside the manager lock, so mixed close/evict/crash sequences
    could leave it permanently out of sync with ``list_sessions()``.
    It must now agree at every exit path."""

    def _gauge(self):
        snap = obs_metrics.default_registry().snapshot()
        return value(snap, "repro_service_sessions_active")

    def _assert_consistent(self, mgr):
        assert self._gauge() == len(mgr.list_sessions()) == len(mgr)

    def test_gauge_tracks_mixed_lifecycle(self):
        from repro.service import SessionManager

        now = [0.0]
        mgr = SessionManager(
            max_sessions=8, idle_ttl_s=10.0, clock=lambda: now[0]
        )
        sessions = [
            mgr.create(
                workload="gups",
                workload_kwargs=dict(SMALL),
                tenant=f"t{i % 2}",
            )
            for i in range(5)
        ]
        self._assert_consistent(mgr)
        assert self._gauge() == 5

        mgr.close(sessions[0].session_id)  # deliberate close
        self._assert_consistent(mgr)
        mgr.discard(sessions[1].session_id)  # worker-crash path
        self._assert_consistent(mgr)

        now[0] = 5.0
        survivor = mgr.create(workload="gups", workload_kwargs=dict(SMALL))
        now[0] = 12.0  # sessions[2..4] idle > TTL; survivor is not
        evicted = mgr.evict_idle()
        assert set(evicted) == {s.session_id for s in sessions[2:]}
        self._assert_consistent(mgr)
        assert self._gauge() == 1

        assert mgr.close_all() == [survivor.session_id]
        self._assert_consistent(mgr)
        assert self._gauge() == 0


class TestThroughputGaugeLifetime:
    """Regression: ``repro_sim_epochs_per_s{session=<id>}`` children were
    never removed, so every snapshot grew with all sessions ever hosted."""

    def _children(self, snapshot):
        return snapshot.get("repro_sim_epochs_per_s", {"samples": []})["samples"]

    def test_closed_sessions_leave_no_children(self):
        for i in range(5):
            session = ProfilingSession(
                f"s{i}", workload="gups", workload_kwargs=dict(SMALL)
            )
            session.step(1)
            session.close()
        live = ProfilingSession("live", workload="gups", workload_kwargs=dict(SMALL))
        try:
            live.step(1)
            children = self._children(obs_metrics.default_registry().snapshot())
            assert [c["labels"] for c in children] == [{"session": "live"}]
        finally:
            live.close()
        assert self._children(obs_metrics.default_registry().snapshot()) == []

    def test_worker_side_children_dropped_on_close(self):
        with ServerThread(workers=1, reap_interval_s=0) as srv:
            with ServiceClient(address=srv.address) as c:
                ids = []
                for _ in range(3):
                    ids.append(
                        c.create_session("gups", workload_kwargs=dict(SMALL))["session"]
                    )
                    c.step(ids[-1], 1)
                assert len(self._children(c.metrics())) == 3
                for sid in ids[:2]:
                    c.close_session(sid)
                children = self._children(c.metrics())
                assert [s["labels"]["session"] for s in children] == ids[2:]

    def test_remove_is_per_child_and_idempotent(self):
        gauge = obs_metrics.default_registry().gauge("g", labelnames=("k",))
        gauge.set(1, k="a")
        gauge.set(2, k="b")
        gauge.remove(k="a")
        gauge.remove(k="a")
        assert gauge.value(k="a") == 0 and gauge.value(k="b") == 2


class TestSubscriberDropCounter:
    def test_bounded_queue_drops_are_counted(self):
        session = ProfilingSession(
            "s1", workload="gups", workload_kwargs=dict(SMALL)
        )
        try:
            session.subscribe(max_queue=1)
            session.step(3)  # 3 frames into a 1-deep queue: 2 dropped
        finally:
            session.close()
        snap = obs_metrics.default_registry().snapshot()
        assert value(snap, "repro_service_subscriber_frames_total") == 3
        assert value(snap, "repro_service_subscriber_dropped_total") == 2


class TestWorkerAggregation:
    def test_epochs_aggregate_across_worker_processes(self):
        with ServerThread(workers=2, reap_interval_s=0) as srv:
            with ServiceClient(address=srv.address) as c:
                a = c.create_session("gups", workload_kwargs=dict(SMALL))
                b = c.create_session("gups", workload_kwargs=dict(SMALL))
                c.step(a["session"], 3)
                c.step(b["session"], 2)
                per_worker = c.server_info()["worker_pool"]["sessions_per_worker"]
                busy = [w for w, n in per_worker.items() if n > 0]
                assert len(busy) >= 2  # round-robin put them on 2 cores
                snap = c.metrics()
                # Stepping happened in the workers; the total only reads
                # 5 if both worker snapshots merged into the parent's.
                assert value(snap, "repro_session_epochs_total") == 5
                assert value(snap, "repro_service_workers_alive") == 2
                # Lifecycle counters live parent-side and must not be
                # double-counted by the merge.
                assert value(snap, "repro_service_sessions_created_total") == 2

    def test_prometheus_endpoint_serves_merged_snapshot(self):
        with ServerThread(workers=2, reap_interval_s=0, metrics_port=0) as srv:
            assert srv.server.metrics_address is not None
            with ServiceClient(address=srv.address) as c:
                a = c.create_session("gups", workload_kwargs=dict(SMALL))
                b = c.create_session("gups", workload_kwargs=dict(SMALL))
                c.step(a["session"], 2)
                c.step(b["session"], 1)
            url = "http://{}:{}/metrics".format(*srv.server.metrics_address)
            with urllib.request.urlopen(url, timeout=TEST_TIMEOUT_S) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                text = resp.read().decode()
            assert "# TYPE repro_session_epochs_total counter" in text
            assert "repro_session_epochs_total 3" in text
            assert "repro_service_workers_alive 2" in text
            assert "# TYPE repro_session_step_seconds histogram" in text
            assert 'repro_session_step_seconds_bucket{le="+Inf"} 2' in text

    def test_metrics_json_endpoint(self):
        with ServerThread(workers=0, reap_interval_s=0, metrics_port=0) as srv:
            with ServiceClient(address=srv.address) as c:
                info = c.create_session("gups", workload_kwargs=dict(SMALL))
                c.step(info["session"], 1)
            url = "http://{}:{}/metrics.json".format(*srv.server.metrics_address)
            with urllib.request.urlopen(url, timeout=TEST_TIMEOUT_S) as resp:
                snap = json.loads(resp.read().decode())
            assert value(snap, "repro_session_epochs_total") == 1
