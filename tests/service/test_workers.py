"""Integration tests for the server's sticky worker-process pool.

The acceptance scenarios for multi-core execution: ``workers=0`` hosts
every session in-thread, sessions stay pinned across workers, a
SIGKILLed worker fails only its own sessions with structured error
frames and the pool respawns, and the server stays responsive to
pings while every worker is busy stepping.  That pooled runs are
bit-identical to direct simulator runs is checked on both transports
by ``test_server.py::TestConcurrentSessions``.
"""

import asyncio
import os
import signal
import threading
import time

from repro.service import ServiceError, ServiceServer

from .test_server import SMALL, WireClient, run_async


async def _start_server(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("reap_interval_s", 0)
    server = ServiceServer(**kw)
    await server.start()
    return server


class TestInProcessPath:
    def test_workers_zero_keeps_sessions_in_process(self):
        async def main():
            server = await _start_server(workers=0)
            try:
                assert server._pool is None
                client = await WireClient.open(server.address)
                info = await client.request(
                    "create_session", workload="gups", workload_kwargs=dict(SMALL)
                )
                session = server.manager.get(info["session"])
                # The in-process session owns a live simulator object.
                assert session.sim.epochs_run == 0
                assert "worker" not in info
                stepped = await client.request(
                    "step", session=info["session"], epochs=1
                )
                assert stepped["epochs_run"] == session.sim.epochs_run == 1
                srv_info = await client.request("server_info")
                assert srv_info["workers"] == 0
                assert "worker_pool" not in srv_info
                await client.close()
            finally:
                await server.drain()

        run_async(main())


class TestStickyPlacement:
    def test_sessions_spread_and_stay_pinned(self):
        async def main():
            server = await _start_server(max_sessions=4, workers=2)
            try:
                client = await WireClient.open(server.address)
                placements = {}
                for i in range(4):
                    info = await client.request(
                        "create_session",
                        workload="gups",
                        seed=i,
                        workload_kwargs=dict(SMALL),
                    )
                    placements[info["session"]] = info["worker"]
                # Least-loaded placement alternates across the slots.
                assert sorted(placements.values()) == [0, 0, 1, 1]
                for sid, worker in placements.items():
                    await client.request("step", session=sid, epochs=1)
                    stats = await client.request("stats", session=sid)
                    assert stats["session"]["worker"] == worker  # still pinned
                srv_info = await client.request("server_info")
                assert srv_info["worker_pool"]["sessions_per_worker"] == {
                    "0": 2,
                    "1": 2,
                }
                await client.close()
            finally:
                await server.drain()

        run_async(main())


class TestWorkerCrash:
    """SIGKILL mid-step: structured error frames, isolation, respawn."""

    def test_killed_worker_fails_only_its_sessions_then_respawns(self):
        async def main():
            server = await _start_server(max_sessions=4, workers=2)
            try:
                victim = await WireClient.open(server.address)
                survivor = await WireClient.open(server.address)
                v_info = await victim.request(
                    "create_session",
                    workload="gups",
                    seed=1,
                    workload_kwargs=dict(SMALL),
                )
                s_info = await survivor.request(
                    "create_session",
                    workload="xsbench",
                    seed=2,
                    workload_kwargs=dict(SMALL),
                )
                v_sid, s_sid = v_info["session"], s_info["session"]
                assert v_info["worker"] != s_info["worker"]
                await victim.request("subscribe", session=v_sid)
                await survivor.request("subscribe", session=s_sid)

                # Launch a long step, then kill the worker once the
                # first epoch frame proves the step is in flight.
                # While the step request awaits its reply it buffers
                # event frames into ``victim.events`` — poll that
                # instead of reading the socket from a second coroutine.
                step_task = asyncio.ensure_future(
                    victim.request("step", session=v_sid, epochs=500)
                )
                while not victim.events:
                    await asyncio.sleep(0.01)
                assert victim.events[0]["event"] == "epoch"
                handle = server._pool.workers[v_info["worker"]]
                doomed_pid = handle.process.pid
                # Hold the crash's hand-off to the manager (a discard:
                # there is no ledger) until the listing below is
                # answered, so the listing is checked before the discard
                # on every run rather than when the scheduler allows.
                may_discard = threading.Event()
                recover = server.manager.recover

                def held_recover(session_id):
                    may_discard.wait(10)
                    return recover(session_id)

                server.manager.recover = held_recover
                os.kill(doomed_pid, signal.SIGKILL)

                try:
                    await step_task
                    raise AssertionError("step should fail on a killed worker")
                except ServiceError as exc:
                    assert exc.code == "worker_crashed"

                # The victim's subscriber receives one structured error
                # frame; seq keeps counting from the epoch frames.
                while True:
                    frame = await victim.next_event()
                    if frame["event"] == "error":
                        break
                assert frame["data"]["code"] == "worker_crashed"
                assert frame["data"]["worker"] == v_info["worker"]
                assert frame["seq"] > 0

                # The other worker's session is untouched.
                stepped = await survivor.request("step", session=s_sid, epochs=1)
                assert stepped["epochs_run"] == 1

                # From its error frame on, a crashed session is out of
                # the listing, although its discard has not run yet
                # (docs/service.md, "Crashes").
                listed = await survivor.request("list_sessions")
                ids = [s["session"] for s in listed["sessions"]]
                assert v_sid not in ids and s_sid in ids
                assert len(server.manager) == 2
                may_discard.set()

                # The slot respawns and accepts new sessions.
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    proc = handle.process
                    if proc is not None and proc.is_alive() and proc.pid != doomed_pid:
                        break
                    await asyncio.sleep(0.05)
                fresh = await survivor.request(
                    "create_session",
                    workload="gups",
                    seed=3,
                    workload_kwargs=dict(SMALL),
                )
                stepped = await survivor.request(
                    "step", session=fresh["session"], epochs=1
                )
                assert stepped["epochs_run"] == 1
                info = await survivor.request("server_info")
                assert info["worker_pool"]["respawns"] == 1
                await victim.close()
                await survivor.close()
            finally:
                await server.drain()

        run_async(main())


class TestResponsiveness:
    """Satellite: pings stay fast while every worker is busy stepping."""

    def test_ping_latency_bounded_under_load(self):
        async def stepper(address, seed):
            client = await WireClient.open(address)
            try:
                info = await client.request(
                    "create_session",
                    workload="gups",
                    seed=seed,
                    workload_kwargs=dict(SMALL),
                )
                for _ in range(4):
                    await client.request("step", session=info["session"], epochs=2)
            finally:
                await client.close()

        async def pinger(address, n_pings=5):
            client = await WireClient.open(address)
            worst = 0.0
            try:
                for _ in range(n_pings):
                    t0 = time.perf_counter()
                    await client.request("ping")
                    worst = max(worst, time.perf_counter() - t0)
                    await asyncio.sleep(0.05)
            finally:
                await client.close()
            return worst

        async def main():
            server = await _start_server(max_sessions=8, workers=2)
            try:
                results = await asyncio.gather(
                    pinger(server.address),
                    *(stepper(server.address, seed) for seed in range(8)),
                )
                return results[0]
            finally:
                await server.drain()

        worst = run_async(main())
        # Generous bound: the event loop only couriers RPCs, so pings
        # must never wait behind a whole multi-epoch step.
        assert worst < 2.0, f"worst ping {worst:.3f}s under load"
