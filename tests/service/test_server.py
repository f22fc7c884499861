"""Integration tests for the asyncio JSON-lines profiling server.

Every test runs its own in-process server inside ``asyncio.run`` and
is wrapped in ``asyncio.wait_for`` so a wedged server fails the test
instead of hanging the suite.
"""

import asyncio
import json
from collections import deque

import pytest

from repro.memsim import MachineConfig
from repro.service import ServiceError, ServiceServer
from repro.service.protocol import encode_frame
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import WORKLOAD_NAMES, make_workload

SMALL = {"footprint_pages": 512, "accesses_per_epoch": 2000}
TEST_TIMEOUT_S = 120
#: Every numeric request param, and what a wrong type is told.
NUMBER_PARAMS = {
    ("step", "epochs"): "epochs must be an integer",
    ("subscribe", "max_queue"): "max_queue must be an integer",
    ("subscribe", "max_rate_hz"): "max_rate_hz must be a number",
    ("subscribe", "from_seq"): "from_seq must be an integer >= 0",
    ("close_session", "epochs_from"): "epochs_from must be an integer >= 0",
    ("close_session", "epochs_to"): "epochs_to must be an integer",
}


def run_async(coro):
    """Drive one async test body with a hard timeout."""
    return asyncio.run(asyncio.wait_for(coro, TEST_TIMEOUT_S))


class WireClient:
    """Minimal async protocol client for exercising the server."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.events = deque()
        self._id = 0

    @classmethod
    async def open(cls, address):
        reader, writer = await asyncio.open_connection(*address)
        return cls(reader, writer)

    async def _read(self):
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def request(self, op, **params):
        self._id += 1
        request_id = self._id
        self.writer.write(encode_frame({"id": request_id, "op": op, "params": params}))
        await self.writer.drain()
        while True:
            frame = await self._read()
            if "event" in frame:
                self.events.append(frame)
                continue
            assert frame["id"] == request_id
            if frame["ok"]:
                return frame["result"]
            raise ServiceError(frame["error"]["code"], frame["error"]["message"])

    async def send_raw(self, data: bytes):
        self.writer.write(data)
        await self.writer.drain()

    async def next_event(self):
        if self.events:
            return self.events.popleft()
        while True:
            frame = await self._read()
            if "event" in frame:
                return frame

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _start_server(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("reap_interval_s", 0)
    server = ServiceServer(**kw)
    await server.start()
    return server


class TestConcurrentSessions:
    """The acceptance scenario: many tenants, streamed, bit-identical,
    on both transports (in-thread hosts and a pool of two workers)."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_eight_streamed_sessions_match_direct_runs(self, workers):
        epochs = 3
        names = list(WORKLOAD_NAMES)[:8]
        assert len(names) == 8

        async def drive(address, name, seed):
            client = await WireClient.open(address)
            try:
                info = await client.request(
                    "create_session",
                    workload=name,
                    seed=seed,
                    tier1_ratio=0.125,
                    workload_kwargs=dict(SMALL),
                )
                sid = info["session"]
                # Pool placement is visible; an in-thread host is not.
                assert ("worker" in info) == (workers > 0)
                await client.request("subscribe", session=sid, max_queue=32)
                stepped = await client.request("step", session=sid, epochs=epochs)
                assert stepped["epochs_run"] == epochs
                frames = [await client.next_event() for _ in range(epochs)]
                closed = await client.request("close_session", session=sid)
                return name, frames, closed["result"]
            finally:
                await client.close()

        async def main():
            server = await _start_server(
                max_sessions=8, step_workers=8, workers=workers
            )
            try:
                return await asyncio.gather(
                    *(
                        drive(server.address, name, seed)
                        for seed, name in enumerate(names)
                    )
                )
            finally:
                await server.drain()

        results = run_async(main())
        assert len(results) == 8
        for seed, (name, frames, summary) in enumerate(results):
            sim = TieredSimulator(
                make_workload(name, **SMALL),
                POLICIES["history"](),
                tier1_ratio=0.125,
                machine_config=MachineConfig.scaled(ibs_period=16),
                seed=seed,
            )
            direct = sim.run(epochs)
            assert [f["seq"] for f in frames] == list(range(epochs))
            for frame, direct_epoch in zip(frames, direct.epochs):
                data = frame["data"]
                assert data["epoch"] == direct_epoch.epoch
                assert data["hitrate"] == direct_epoch.hitrate
                assert data["promoted"] == direct_epoch.promoted
                assert data["demoted"] == direct_epoch.demoted
                assert data["runtime_s"] == direct_epoch.runtime_s
            assert summary["mean_hitrate"] == direct.mean_hitrate
            assert summary["total_migrations"] == direct.total_migrations


class TestBackpressure:
    def test_slow_subscriber_drops_oldest_without_stalling_others(self):
        epochs = 12

        async def main():
            server = await _start_server(max_sessions=4, step_workers=4)
            slow = await WireClient.open(server.address)
            busy = await WireClient.open(server.address)
            try:
                a = (
                    await slow.request(
                        "create_session", workload="gups",
                        workload_kwargs=dict(SMALL),
                    )
                )["session"]
                b = (
                    await busy.request(
                        "create_session", workload="xsbench",
                        workload_kwargs=dict(SMALL), seed=1,
                    )
                )["session"]
                # A tiny queue plus a 2 Hz delivery throttle makes this
                # subscriber structurally slower than the epoch rate.
                await slow.request(
                    "subscribe", session=a, max_queue=4, max_rate_hz=2
                )

                t0 = asyncio.get_running_loop().time()
                stepped_a, stepped_b = await asyncio.gather(
                    slow.request("step", session=a, epochs=epochs),
                    busy.request("step", session=b, epochs=epochs),
                )
                elapsed = asyncio.get_running_loop().time() - t0
                assert stepped_a["epochs_run"] == epochs
                assert stepped_b["epochs_run"] == epochs
                # Draining 12 frames at 2 Hz would alone take ~6 s; the
                # steps must not be serialized behind that delivery.
                assert elapsed < 5.0

                frames = []
                while True:
                    frame = await asyncio.wait_for(slow.next_event(), 10)
                    frames.append(frame)
                    if frame["data"]["epoch"] == epochs - 1:
                        break
                    assert len(frames) < epochs  # drops must have happened
                return frames
            finally:
                await slow.close()
                await busy.close()
                await server.drain()

        frames = run_async(main())
        seqs = [f["seq"] for f in frames]
        assert seqs == sorted(seqs)
        assert len(frames) < 12  # oldest frames were shed, not queued
        assert frames[-1]["dropped"] > 0
        assert frames[-1]["seq"] == 11  # the newest epoch survived


class TestCoalescedWriter:
    """The output side of serialize-once: batched writes per connection."""

    def test_stalled_connection_does_not_wedge_other_pumps(self):
        epochs = 30
        chunk = 5
        subs = 8

        async def main():
            import socket

            server = await _start_server(max_sessions=4, step_workers=4)
            driver = await WireClient.open(server.address)
            # The stalled client caps its receive buffer so the
            # server-side socket fills after a few KB of frames.
            raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.connect(tuple(server.address))
            # A small StreamReader limit keeps the client from slurping
            # unread frames into user space: once ~2 KB is buffered the
            # reader pauses the transport and the kernel buffers fill.
            reader, writer = await asyncio.open_connection(sock=raw, limit=2048)
            stalled = WireClient(reader, writer)
            try:
                sid_a = (
                    await driver.request(
                        "create_session", workload="gups",
                        workload_kwargs=dict(SMALL),
                    )
                )["session"]
                sid_b = (
                    await driver.request(
                        "create_session", workload="xsbench",
                        workload_kwargs=dict(SMALL), seed=1,
                    )
                )["session"]
                for _ in range(subs):
                    await stalled.request(
                        "subscribe", session=sid_a, max_queue=4
                    )
                await driver.request("subscribe", session=sid_b, max_queue=64)
                # Shrink every server-side send buffer so the stalled
                # connection's pump wedges in drain() after a few KB
                # (the driver reads promptly, so it never blocks).
                for conn in server._connections:
                    sock = conn.writer.get_extra_info("socket")
                    if sock is not None:
                        sock.setsockopt(
                            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                        )
                    conn.writer.transport.set_write_buffer_limits(high=1024)

                # The stalled client reads nothing while both sessions
                # step; the driver's subscription must stream freely.
                t0 = asyncio.get_running_loop().time()
                for _ in range(0, epochs, chunk):
                    await driver.request("step", session=sid_a, epochs=chunk)
                    await driver.request("step", session=sid_b, epochs=chunk)
                b_frames = [await driver.next_event() for _ in range(epochs)]
                elapsed = asyncio.get_running_loop().time() - t0
                assert [f["seq"] for f in b_frames] == list(range(epochs))
                assert all(f["dropped"] == 0 for f in b_frames)
                assert elapsed < 60.0

                # Now drain the stalled connection: every subscription
                # must surface the newest frame with exact drop-oldest
                # accounting (pushed == delivered + dropped).
                per_sub: dict[str, list] = {}
                while len(per_sub) < subs or any(
                    frames[-1]["seq"] != epochs - 1
                    for frames in per_sub.values()
                ):
                    frame = await asyncio.wait_for(stalled.next_event(), 30)
                    per_sub.setdefault(frame["subscription"], []).append(frame)
                return per_sub
            finally:
                await stalled.close()
                await driver.close()
                await server.drain()

        per_sub = run_async(main())
        assert len(per_sub) == subs
        total_dropped = 0
        for frames in per_sub.values():
            seqs = [f["seq"] for f in frames]
            assert seqs == sorted(seqs)
            assert seqs[-1] == 29  # the newest epoch always survives
            last = frames[-1]
            # Exact accounting: 30 pushed = delivered + cumulative drops.
            assert last["dropped"] == 30 - len(frames)
            total_dropped += last["dropped"]
        # The wedge must actually have produced drop-oldest shedding.
        assert total_dropped > 0


class TestOversizedResponse:
    """Outbound frames obey MAX_LINE_BYTES with a structured error."""

    def test_oversized_epoch_window_is_bad_request(self, monkeypatch):
        # Shrink the outbound limit (resolved at call time inside
        # encode_frame); the server's inbound readline limit was bound
        # at start() and small requests/responses stay well under 4 KB.
        monkeypatch.setattr("repro.service.protocol.MAX_LINE_BYTES", 4096)
        epochs = 50

        async def main():
            server = await _start_server()
            client = await WireClient.open(server.address)
            try:
                sid = (
                    await client.request(
                        "create_session", workload="gups",
                        workload_kwargs=dict(SMALL),
                    )
                )["session"]
                for _ in range(0, epochs, 5):
                    await client.request("step", session=sid, epochs=5)
                try:
                    await client.request(
                        "close_session", session=sid, include_epochs=True
                    )
                    raise AssertionError("oversized response should fail")
                except ServiceError as exc:
                    assert exc.code == "bad_request"
                    assert "smaller window" in exc.message
                # The connection survives the substituted error frame —
                # no oversized line ever hit the socket.
                assert (await client.request("ping"))["pong"] is True
                # A bounded window on a fresh session encodes fine.
                sid2 = (
                    await client.request(
                        "create_session", workload="gups",
                        workload_kwargs=dict(SMALL),
                    )
                )["session"]
                await client.request("step", session=sid2, epochs=5)
                result = await client.request(
                    "close_session", session=sid2, include_epochs=True,
                    epochs_from=0, epochs_to=5,
                )
                assert len(result["result"]["epochs"]) == 5
            finally:
                await client.close()
                await server.drain()

        run_async(main())


class TestAdmissionAndErrors:
    def test_admission_limit_over_wire(self):
        async def main():
            server = await _start_server(max_sessions=2)
            client = await WireClient.open(server.address)
            try:
                first = await client.request(
                    "create_session", workload="gups", workload_kwargs=dict(SMALL)
                )
                await client.request(
                    "create_session", workload="gups", workload_kwargs=dict(SMALL)
                )
                try:
                    await client.request(
                        "create_session", workload="gups",
                        workload_kwargs=dict(SMALL),
                    )
                    raise AssertionError("third create should be rejected")
                except ServiceError as exc:
                    assert exc.code == "at_capacity"
                await client.request("close_session", session=first["session"])
                await client.request(
                    "create_session", workload="gups", workload_kwargs=dict(SMALL)
                )
            finally:
                await client.close()
                await server.drain()

        run_async(main())

    def test_error_codes(self):
        async def main():
            server = await _start_server()
            client = await WireClient.open(server.address)
            try:
                for op, params, code in [
                    ("step", {"session": "s404"}, "unknown_session"),
                    ("frobnicate", {}, "unknown_op"),
                    ("step", {}, "bad_params"),
                    ("create_session", {"workload": "doom"}, "bad_params"),
                    ("create_session", {"workload": "gups", "bogus_kw": 1},
                     "bad_params"),
                ]:
                    try:
                        await client.request(op, **params)
                        raise AssertionError(f"{op} should have failed")
                    except ServiceError as exc:
                        assert exc.code == code, (op, exc.code)
                # A malformed line gets an id-less bad_request response.
                await client.send_raw(b"this is not json\n")
                frame = await client._read()
                assert frame["ok"] is False
                assert frame["id"] is None
                assert frame["error"]["code"] == "bad_request"
            finally:
                await client.close()
                await server.drain()

        run_async(main())

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("op, name", list(NUMBER_PARAMS))
    def test_json_boolean_is_not_a_number(self, op, name, value):
        # Python's bool is an int: `{"epochs": true}` used to step one
        # epoch and `{"from_seq": false}` to replay the whole ledger.
        async def main():
            server = await _start_server()
            client = await WireClient.open(server.address)
            try:
                sid = (
                    await client.request(
                        "create_session", workload="gups", workload_kwargs=dict(SMALL)
                    )
                )["session"]
                expected = ("bad_params", NUMBER_PARAMS[op, name])
                try:
                    await client.request(op, session=sid, **{name: value})
                    raise AssertionError(f"{op} {name}={value} should be rejected")
                except ServiceError as exc:
                    assert (exc.code, exc.message) == expected
                (listed,) = (await client.request("list_sessions"))["sessions"]
                assert (listed["epochs_run"], listed["subscribers"]) == (0, 0)
            finally:
                await client.close()
                await server.drain()

        run_async(main())

    def test_catchup_is_rejected_over_the_wire(self):
        # The rebuild-only catch-up argument would hand a client a
        # session at epoch N with zero frames fanned out or persisted
        # (and an unbounded N pins a worker); it never comes off the wire.
        async def main():
            server = await _start_server(max_sessions=1)
            client = await WireClient.open(server.address)
            try:
                for catchup in (
                    {"catchup": {"epochs": 3, "reconfigured": []}},
                    {"catchup": None},
                    {"catchup_epochs": 3},  # the pre-0.11 spelling
                ):
                    try:
                        await client.request(
                            "create_session", workload="gups",
                            workload_kwargs=dict(SMALL), **catchup,
                        )
                        raise AssertionError(f"{catchup} should be rejected")
                    except ServiceError as exc:
                        assert exc.code == "bad_params", (catchup, exc.code)
                listed = await client.request("list_sessions")
                assert listed["sessions"] == []
            finally:
                await client.close()
                await server.drain()

        run_async(main())

    def test_reconfigure_and_numa_maps_over_wire(self):
        async def main():
            server = await _start_server()
            client = await WireClient.open(server.address)
            try:
                sid = (
                    await client.request(
                        "create_session", workload="gups",
                        workload_kwargs=dict(SMALL),
                    )
                )["session"]
                await client.request("step", session=sid, epochs=1)
                result = await client.request(
                    "reconfigure", session=sid,
                    changes={"trace_sample_period": 8, "min_cpu_share": 0.01},
                )
                assert sorted(result["applied"]) == [
                    "min_cpu_share", "trace_sample_period",
                ]
                session = server.manager.get(sid)
                assert session.sim.machine.ibs.period == 8
                maps = await client.request("numa_maps", session=sid)
                assert "# pid" in maps["numa_maps"]
                stats = await client.request("stats", session=sid)
                assert stats["daemon"]["programs"] == ["gups"]
            finally:
                await client.close()
                await server.drain()

        run_async(main())

    @pytest.mark.parametrize("workers", [0, 1])
    def test_numa_maps_pids_are_checked_at_the_edge(self, workers):
        """``pids`` is null or a list of integers; anything else, and
        a pid the session does not run, is ``bad_params`` on both
        transports."""

        async def main():
            server = await _start_server(workers=workers)
            client = await WireClient.open(server.address)
            try:
                sid = (
                    await client.request(
                        "create_session", workload="gups",
                        workload_kwargs=dict(SMALL),
                    )
                )["session"]
                refusals = [
                    (pids, "pids must be null or a list of integers")
                    for pids in (5, [[1]], "100", [100.0], [True], {"100": 1})
                ]
                refusals.append(([7], "no such pid: 7"))
                for pids, message in refusals:
                    try:
                        await client.request("numa_maps", session=sid, pids=pids)
                        raise AssertionError(f"pids={pids!r} should be rejected")
                    except ServiceError as exc:
                        assert (exc.code, exc.message) == ("bad_params", message)
                every = await client.request("numa_maps", session=sid, pids=None)
                assert every["numa_maps"].startswith("# pid 100\n")
                one = await client.request("numa_maps", session=sid, pids=[100])
                assert every["numa_maps"].startswith(one["numa_maps"] + "\n# pid ")
            finally:
                await client.close()
                await server.drain()

        run_async(main())


class TestLifecycle:
    def test_graceful_drain(self):
        async def main():
            server = await _start_server(max_sessions=2)
            client = await WireClient.open(server.address)
            sid = (
                await client.request(
                    "create_session", workload="gups", workload_kwargs=dict(SMALL)
                )
            )["session"]
            await client.request("subscribe", session=sid, max_queue=8)
            await client.request("step", session=sid, epochs=2)

            await server.drain()
            await asyncio.wait_for(server.serve_forever(), 5)
            assert len(server.manager) == 0
            # The listening socket is gone: new connections fail.
            try:
                await WireClient.open(server.address)
                raise AssertionError("connect after drain should fail")
            except (ConnectionError, OSError):
                pass
            # Buffered subscription frames were flushed before close.
            events = [e for e in [*client.events] if e.get("event") == "epoch"]
            while len(events) < 2:
                events.append(await asyncio.wait_for(client.next_event(), 5))
            await client.close()

        run_async(main())

    def test_draining_rejects_new_work(self):
        async def main():
            server = await _start_server()
            client = await WireClient.open(server.address)
            try:
                # Enter the draining state without tearing sockets down
                # so the rejection path itself is observable.
                server._draining = True
                for op, params in [
                    ("create_session", {"workload": "gups"}),
                    ("step", {"session": "s1"}),
                ]:
                    try:
                        await client.request(op, **params)
                        raise AssertionError(f"{op} should be rejected")
                    except ServiceError as exc:
                        assert exc.code == "shutting_down"
            finally:
                await client.close()
                server._draining = False
                await server.drain()

        run_async(main())

    def test_idle_eviction_over_wire(self):
        async def main():
            server = await _start_server(idle_ttl_s=0.15, reap_interval_s=0.05)
            client = await WireClient.open(server.address)
            try:
                await client.request(
                    "create_session", workload="gups", workload_kwargs=dict(SMALL)
                )
                assert (await client.request("server_info"))["sessions"] == 1
                deadline = asyncio.get_running_loop().time() + 10
                while (await client.request("list_sessions"))["sessions"]:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
            finally:
                await client.close()
                await server.drain()

        run_async(main())


class TestServerInfoLedger:
    def test_counts_session_ledgers_without_opening_one(self, tmp_path, monkeypatch):
        """``server_info`` runs on the event loop: it counts session
        directories by their ``meta.json`` and recovers no ledger."""
        import repro.ledger.ledger as ledger_module
        from repro.ledger import Ledger

        root = Ledger(tmp_path)
        for sid in ("s1", "s2", "s3"):
            root.create_session(sid, {"workload": "gups"}).close()
        (tmp_path / "s4").mkdir()  # no meta.json: not a session ledger
        (tmp_path / ".trash").mkdir()  # no id could name it
        expected = len(root.list_sessions())
        built = []
        real = ledger_module.SessionLedger

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        async def main():
            server = await _start_server(ledger_dir=str(tmp_path))
            client = await WireClient.open(server.address)
            try:
                monkeypatch.setattr(ledger_module, "SessionLedger", counting)
                info = await client.request("server_info")
                monkeypatch.setattr(ledger_module, "SessionLedger", real)
            finally:
                await client.close()
                await server.drain()
            return info

        info = run_async(main())
        assert info["ledger"]["sessions"] == expected == 3
        assert built == []
