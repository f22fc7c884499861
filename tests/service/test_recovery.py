"""Crashed-session recovery: ledger re-materialization end to end.

The acceptance scenario: SIGKILL a worker mid-life, and the ledger
rebuilds its session in a fresh worker from the recorded config plus
epoch count.  The subscriber sees one ``worker_crashed`` error frame,
one ``recovered`` frame, and then gap-free epoch frames whose payloads
are bit-identical to an uncrashed in-process run; ``seq``/``dropped``
stay continuous across the whole ordeal.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.service import ServiceError, ServiceServer, WorkerPool
from repro.service.protocol import ErrorCode
from repro.service.session import ProfilingSession
from repro.service.telemetry import epoch_metrics_to_dict

from .test_server import SMALL, WireClient, run_async


async def _start_server(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("reap_interval_s", 0)
    server = ServiceServer(**kw)
    await server.start()
    return server


class TestLedgerRecovery:
    def test_killed_session_recovers_and_stream_stays_gap_free(
        self, tmp_path
    ):
        params = {
            "workload": "gups",
            "seed": 7,
            "workload_kwargs": dict(SMALL),
        }

        async def main():
            server = await _start_server(
                workers=2, ledger_dir=str(tmp_path)
            )
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **params)
                sid = info["session"]
                await client.request("step", session=sid, epochs=3)
                sub = await client.request(
                    "subscribe", session=sid, from_seq=0
                )
                assert sub["replayed"] == 3
                pre = [await client.next_event() for _ in range(3)]
                assert [f["seq"] for f in pre] == [0, 1, 2]

                handle = server._pool.workers[info["worker"]]
                os.kill(handle.process.pid, signal.SIGKILL)

                # One structured crash frame, then one recovered frame
                # once a fresh worker has replayed the 3 epochs.
                crash = await client.next_event()
                assert crash["event"] == "error"
                assert crash["data"]["code"] == "worker_crashed"
                assert crash["seq"] == 3
                recovered = await client.next_event()
                assert recovered["event"] == "recovered"
                assert recovered["seq"] == 4
                assert recovered["data"]["epochs_replayed"] == 3

                # The session still answers, continuing at epoch 3.
                stepped = await client.request(
                    "step", session=sid, epochs=2
                )
                assert stepped["epochs_run"] == 5
                post = [await client.next_event() for _ in range(2)]
                assert [f["seq"] for f in post] == [5, 6]
                assert all(f["dropped"] == 0 for f in post)
                assert [f["data"]["epoch"] for f in post] == [3, 4]

                # Still registered (not discarded like ledgerless crashes).
                listed = await client.request("list_sessions")
                assert sid in [s["session"] for s in listed["sessions"]]

                closed = await client.request("close_session", session=sid)
                assert closed["result"]["epochs_run"] == 5
                await client.close()
                return [f["data"] for f in pre + post]
            finally:
                await server.drain()

        epochs = run_async(main())

        # Bit-identity: the crashed-and-recovered stream equals an
        # uncrashed in-process run of the same recorded config.
        direct = ProfilingSession("direct", **params)
        direct.sim.step(5)
        expected = [
            epoch_metrics_to_dict(m) for m in direct.sim.result.epochs
        ]
        assert epochs == expected

    def test_late_subscriber_replays_across_the_crash(self, tmp_path):
        """from_seq replay after recovery covers pre-crash history."""

        async def main():
            server = await _start_server(
                workers=1, ledger_dir=str(tmp_path)
            )
            try:
                client = await WireClient.open(server.address)
                info = await client.request(
                    "create_session",
                    workload="gups",
                    seed=2,
                    workload_kwargs=dict(SMALL),
                )
                sid = info["session"]
                await client.request("step", session=sid, epochs=2)
                watcher = await client.request("subscribe", session=sid)

                handle = server._pool.workers[info["worker"]]
                os.kill(handle.process.pid, signal.SIGKILL)
                while True:
                    frame = await client.next_event()
                    if frame["event"] == "recovered":
                        break

                await client.request("step", session=sid, epochs=1)
                frame = await client.next_event()
                assert frame["event"] == "epoch"

                # A post-crash subscriber replays everything from disk:
                # epochs, the crash marker, the recovery marker, then
                # the live tail — one continuous numbered stream.
                sub = await client.request(
                    "subscribe", session=sid, from_seq=0
                )
                assert sub["replayed"] == 5  # 2 epochs + error + recovered + 1
                frames = [await client.next_event() for _ in range(5)]
                frames = [
                    f for f in frames
                    if f["subscription"] == sub["subscription"]
                ]
                assert [f["seq"] for f in frames] == [0, 1, 2, 3, 4]
                assert [f["event"] for f in frames] == [
                    "epoch", "epoch", "error", "recovered", "epoch"
                ]
                await client.close()
            finally:
                await server.drain()

        run_async(main())


class TestRecoveryTenantAccounting:
    """Exactly one tenant-quota slot across SIGKILL → recover → close."""

    def test_tenant_quota_one_holds_through_crash_recovery(self, tmp_path):
        params = {
            "workload": "gups",
            "seed": 5,
            "workload_kwargs": dict(SMALL),
            "tenant": "acme",
        }

        async def main():
            server = ServiceServer(
                port=0,
                reap_interval_s=0,
                workers=1,
                tenant_quota=1,
                ledger_dir=str(tmp_path),
            )
            await server.start()
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **params)
                sid = info["session"]
                await client.request("step", session=sid, epochs=2)
                await client.request("subscribe", session=sid)

                os.kill(
                    server._pool.workers[info["worker"]].process.pid,
                    signal.SIGKILL,
                )
                while True:
                    frame = await client.next_event()
                    if frame["event"] == "recovered":
                        break

                # The recovered session holds exactly its original
                # slot: a second create for the tenant is over quota.
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("create_session", **params)
                assert exc_info.value.code == ErrorCode.OVERLOADED
                srv_info = await client.request("server_info")
                assert srv_info["tenants"] == {"acme": 1}

                # Closing releases it exactly once: the tenant can
                # create again, and the accounting ends at zero.
                closed = await client.request("close_session", session=sid)
                assert closed["result"]["epochs_run"] == 2
                fresh = await client.request("create_session", **params)
                await client.request(
                    "close_session", session=fresh["session"]
                )
                srv_info = await client.request("server_info")
                assert srv_info["tenants"] == {}
                await client.close()
            finally:
                await server.drain()

        run_async(main())

    @staticmethod
    def _crash(session, timeout_s=20.0):
        """SIGKILL the session's worker; wait for crash + respawn."""
        worker = session.host
        os.kill(worker.process.pid, signal.SIGKILL)
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            if (
                session.crashed is not None
                and worker.process is not None
                and worker.process.is_alive()
            ):
                return
            time.sleep(0.02)
        raise AssertionError("worker did not crash/respawn in time")

    def test_close_before_recovery_is_honored_not_resurrected(self):
        """A session closed while crashed must stay closed: recovery
        aborts instead of re-pinning it to a worker as an unmanaged
        zombie that holds a worker slot forever."""
        pool = WorkerPool(1)
        try:
            session = pool.session_factory(
                "doomed", workload="gups", seed=3, workload_kwargs=dict(SMALL)
            )
            self._crash(session)
            session.close()
            with pytest.raises(ServiceError) as exc_info:
                session.recover(
                    {"workload": "gups", "seed": 3,
                     "workload_kwargs": dict(SMALL)},
                )
            assert exc_info.value.code == ErrorCode.UNKNOWN_SESSION
            assert pool._sessions == {}
            assert all(not w.sessions for w in pool.workers)
        finally:
            pool.shutdown()

    def test_close_mid_rebuild_drops_the_rebuilt_copy(self):
        """close() landing while the worker is rebuilding: the freshly
        rebuilt worker-side copy is dropped, not adopted."""
        pool = WorkerPool(1)
        try:
            session = pool.session_factory(
                "doomed", workload="gups", seed=4, workload_kwargs=dict(SMALL)
            )
            session.step(2)
            self._crash(session)

            worker = pool.workers[0]
            real_request = worker.request
            rebuild_started = threading.Event()
            close_done = threading.Event()

            def gated_request(op, payload=None, **kw):
                if op == "create":
                    rebuild_started.set()
                    assert close_done.wait(15)
                return real_request(op, payload, **kw)

            worker.request = gated_request
            result = {}

            def recover():
                try:
                    session.recover(
                        {"workload": "gups", "seed": 4,
                         "workload_kwargs": dict(SMALL),
                         "catchup": {"epochs": 2, "reconfigured": []}},
                    )
                except ServiceError as exc:
                    result["code"] = exc.code

            thread = threading.Thread(target=recover)
            thread.start()
            assert rebuild_started.wait(15)
            session.close()  # crashed close: local, no worker RPC
            close_done.set()
            thread.join(30)
            assert not thread.is_alive()

            assert result.get("code") == ErrorCode.UNKNOWN_SESSION
            assert pool._sessions == {}
            assert all(not w.sessions for w in pool.workers)
            # The worker-side rebuilt copy was closed too: a fresh
            # session with the same id builds cleanly.
            fresh = pool.session_factory(
                "doomed", workload="gups", seed=4, workload_kwargs=dict(SMALL)
            )
            assert fresh.step(1)["epochs_run"] == 1
            fresh.close()
        finally:
            pool.shutdown()
