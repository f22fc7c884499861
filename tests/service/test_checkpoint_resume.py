"""Checkpoint-to-disk idle eviction and resumable sessions.

The acceptance scenario: a ledger-backed ``--evict-to-disk`` server
evicts an idle session at epoch k — persisting a checkpoint marker and
fanning a ``resumable: true`` goodbye — and a later ``resume_session``
re-admits it through normal admission, catches it up deterministically,
and continues stepping.  The completed run is bit-identical to an
uninterrupted direct run, and a ``from_seq=0`` subscriber sees one
gap-free seq stream spanning checkpoint, goodbye, and resume.

Also pins the session-lifecycle fixes that ride along: the
unregister-and-goodbye ordering on eviction (no subscriber can attach
silently to a half-dead session) and the replay-vs-retention race
(records compacted away mid-replay surface as cumulative ``dropped``,
never a silent seq gap).
"""

import asyncio
import threading

import pytest

from repro.service import ServiceError, ServiceServer
from repro.service.protocol import ErrorCode
from repro.service.session import ProfilingSession
from repro.service.telemetry import epoch_metrics_to_dict

from .test_server import SMALL, WireClient, run_async

PARAMS = {
    "workload": "gups",
    "seed": 11,
    "workload_kwargs": dict(SMALL),
}


async def _start_server(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("reap_interval_s", 0)
    server = ServiceServer(**kw)
    await server.start()
    return server


def _evict_now(server):
    """Drive one reaper pass with a clock far past the idle TTL."""
    manager = server.manager
    return manager.evict_idle(now=manager._clock() + manager.idle_ttl_s + 1)


def _direct_epochs(total):
    session = ProfilingSession("direct", **PARAMS)
    session.sim.step(total)
    return [epoch_metrics_to_dict(m) for m in session.sim.result.epochs]


class TestCheckpointResume:
    """Tentpole acceptance: evict at epoch k, resume, bit-identical."""

    def _run_cycle(self, tmp_path, workers):
        async def main():
            server = await _start_server(
                workers=workers,
                ledger_dir=str(tmp_path),
                evict_to_disk=True,
            )
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **PARAMS)
                sid = info["session"]
                await client.request("step", session=sid, epochs=3)

                # A live subscriber rides through the eviction: it gets
                # the structured goodbye promising resumability.
                await client.request("subscribe", session=sid)
                evicted = _evict_now(server)
                assert evicted == [sid]
                goodbye = await client.next_event()
                assert goodbye["event"] == "error"
                assert goodbye["data"]["code"] == "evicted"
                assert goodbye["data"]["resumable"] is True
                assert goodbye["seq"] == 3

                # Gone from the registry; its slots are free.
                listed = await client.request("list_sessions")
                assert listed["sessions"] == []
                srv_info = await client.request("server_info")
                assert srv_info["sessions_checkpointed"] == 1
                assert srv_info["evict_to_disk"] is True

                # Resume keeps the id and reports the caught-up state.
                resumed = await client.request("resume_session", session=sid)
                assert resumed["session"] == sid
                assert resumed["epochs_run"] == 3
                srv_info = await client.request("server_info")
                assert srv_info["sessions_resumed"] == 1

                # A from_seq=0 subscriber replays one continuous stream:
                # 3 epochs, the goodbye, and the resumed marker.
                sub = await client.request(
                    "subscribe", session=sid, from_seq=0
                )
                assert sub["replayed"] == 5
                assert sub["dropped"] == 0
                frames = [await client.next_event() for _ in range(5)]
                frames = [
                    f for f in frames
                    if f["subscription"] == sub["subscription"]
                ]
                assert [f["seq"] for f in frames] == [0, 1, 2, 3, 4]
                assert [f["event"] for f in frames] == [
                    "epoch", "epoch", "epoch", "error", "resumed"
                ]
                assert frames[4]["data"]["epochs_resumed"] == 3
                assert all(f["dropped"] == 0 for f in frames)

                # Stepping continues at epoch 3, seq numbering intact.
                stepped = await client.request("step", session=sid, epochs=2)
                assert stepped["epochs_run"] == 5
                post = [await client.next_event() for _ in range(2)]
                post = [
                    f for f in post
                    if f["subscription"] == sub["subscription"]
                ]
                assert [f["seq"] for f in post] == [5, 6]
                assert [f["data"]["epoch"] for f in post] == [3, 4]

                closed = await client.request("close_session", session=sid)
                assert closed["result"]["epochs_run"] == 5
                await client.close()
                return [
                    f["data"] for f in frames + post if f["event"] == "epoch"
                ]
            finally:
                await server.drain()

        return run_async(main())

    def test_inprocess_evict_resume_bit_identical(self, tmp_path):
        epochs = self._run_cycle(tmp_path, workers=0)
        assert epochs == _direct_epochs(5)

    def test_worker_pool_evict_resume_bit_identical(self, tmp_path):
        epochs = self._run_cycle(tmp_path, workers=2)
        assert epochs == _direct_epochs(5)

    def test_resume_goes_through_admission(self, tmp_path):
        """A resume cannot sneak past capacity or still-live ids."""

        async def main():
            server = await _start_server(
                workers=0,
                max_sessions=1,
                ledger_dir=str(tmp_path),
                evict_to_disk=True,
            )
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **PARAMS)
                sid = info["session"]
                await client.request("step", session=sid, epochs=1)

                # Still live: resume is a bad request, not a rebuild.
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("resume_session", session=sid)
                assert exc_info.value.code == ErrorCode.BAD_REQUEST

                assert _evict_now(server) == [sid]
                # Another tenant takes the only slot the eviction freed.
                other = await client.request("create_session", **PARAMS)
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("resume_session", session=sid)
                assert exc_info.value.code == ErrorCode.AT_CAPACITY

                await client.request(
                    "close_session", session=other["session"]
                )
                resumed = await client.request("resume_session", session=sid)
                assert resumed["epochs_run"] == 1

                # Resuming twice is refused: the checkpoint was cleared
                # and the session is live again.
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("resume_session", session=sid)
                assert exc_info.value.code == ErrorCode.BAD_REQUEST
                await client.close()
            finally:
                await server.drain()

        run_async(main())

    def test_resume_unknown_session_and_ledgerless_server(self, tmp_path):
        async def main():
            server = await _start_server(
                workers=0, ledger_dir=str(tmp_path), evict_to_disk=True
            )
            try:
                client = await WireClient.open(server.address)
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("resume_session", session="nope")
                assert exc_info.value.code == ErrorCode.UNKNOWN_SESSION
                await client.close()
            finally:
                await server.drain()

            bare = await _start_server(workers=0)
            try:
                client = await WireClient.open(bare.address)
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("resume_session", session="s1")
                assert exc_info.value.code == ErrorCode.BAD_PARAMS
                await client.close()
            finally:
                await bare.drain()

        run_async(main())

    def test_resume_with_a_path_for_an_id_is_unknown_session(self, tmp_path):
        """``session`` comes off the wire; the ledger refuses to turn
        anything but a session id into a directory, and the client is
        told the same as for an id that does not exist."""

        async def main():
            root = tmp_path / "root"
            server = await _start_server(
                workers=0, ledger_dir=str(root), evict_to_disk=True
            )
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **PARAMS)
                sid = info["session"]
                await client.request("step", session=sid, epochs=2)
                assert _evict_now(server) == [sid]
                (root / sid).rename(tmp_path / "outside")
                for bad in ("../outside", "/abs", "a/b", "..", "", 7, [sid]):
                    with pytest.raises(ServiceError) as exc_info:
                        await client.request("resume_session", session=bad)
                    assert exc_info.value.code == ErrorCode.UNKNOWN_SESSION, bad
                assert (tmp_path / "outside" / "checkpoint.json").exists()
                assert (await client.request("list_sessions"))["sessions"] == []
                await client.close()
            finally:
                await server.drain()

        run_async(main())

    def test_plain_eviction_without_flag_is_not_resumable(self, tmp_path):
        """A ledger-backed server without --evict-to-disk keeps the
        historical discard-on-evict contract: goodbye says
        ``resumable: false`` equivalent (absent) and resume fails."""

        async def main():
            server = await _start_server(
                workers=0, ledger_dir=str(tmp_path)
            )
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **PARAMS)
                sid = info["session"]
                await client.request("step", session=sid, epochs=1)
                await client.request("subscribe", session=sid)
                assert _evict_now(server) == [sid]
                goodbye = await client.next_event()
                assert goodbye["data"]["code"] == "evicted"
                assert "resumable" not in goodbye["data"]
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("resume_session", session=sid)
                assert exc_info.value.code == ErrorCode.UNKNOWN_SESSION
                await client.close()
            finally:
                await server.drain()

        run_async(main())


class TestResumeRacingEvictionTail:
    def test_resume_waits_for_the_evicted_copy_to_finish_closing(self, tmp_path):
        """A resume landing between the goodbye and the end of the old
        copy's close used to be admitted, and that close's pool release
        then tore out the *resumed* session's routing (its frames were
        neither fanned out nor persisted).  The close now completes
        while the id is still registered, and the resume waits it out."""

        async def main():
            server = await _start_server(
                workers=1, ledger_dir=str(tmp_path), evict_to_disk=True
            )
            loop = asyncio.get_running_loop()
            try:
                client = await WireClient.open(server.address)
                sid = (await client.request("create_session", **PARAMS))["session"]
                await client.request("step", session=sid, epochs=2)
                session = server.manager.get(sid)
                real_close = session.close
                closing, release = threading.Event(), threading.Event()

                def gated_close(**kw):
                    closing.set()
                    assert release.wait(30)
                    return real_close(**kw)

                session.close = gated_close
                eviction = loop.run_in_executor(None, _evict_now, server)
                assert await loop.run_in_executor(None, closing.wait, 30)
                resume = asyncio.ensure_future(
                    client.request("resume_session", session=sid)
                )
                try:
                    await asyncio.sleep(0.3)
                    assert not resume.done()  # parked behind the close
                finally:
                    release.set()
                assert await eviction == [sid]
                assert (await resume)["epochs_run"] == 2

                await client.request("step", session=sid, epochs=2)
                sub = await client.request("subscribe", session=sid, from_seq=0)
                # 2 epochs, goodbye, resumed marker, 2 post-resume epochs.
                assert sub["replayed"] == 6
                await client.close()
            finally:
                await server.drain()

        run_async(main())


class TestEvictionSubscribeOrdering:
    """Satellite: no subscriber can attach silently to a half-dead
    session between the reaper's claim and the registry pop."""

    def test_subscribe_refused_once_eviction_claimed(self):
        session = ProfilingSession("s1", **PARAMS)
        try:
            assert session.try_mark_evicting(
                session.last_active_s + 10, idle_ttl_s=1.0
            )
            with pytest.raises(ServiceError) as exc_info:
                session.subscribe()
            assert exc_info.value.code == ErrorCode.EVICTED
        finally:
            session.close()

    def test_subscribe_refused_on_closed_session(self):
        session = ProfilingSession("s1", **PARAMS)
        session.close()
        with pytest.raises(ServiceError) as exc_info:
            session.subscribe()
        assert exc_info.value.code == ErrorCode.UNKNOWN_SESSION

    def test_goodbye_fans_out_before_the_registry_pop(self, tmp_path):
        """A subscriber attached at claim time receives the goodbye:
        the fan-out runs while the session is still registered."""

        async def main():
            server = await _start_server(workers=0)
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **PARAMS)
                sid = info["session"]
                await client.request("subscribe", session=sid)
                await client.request("step", session=sid, epochs=1)
                await client.next_event()  # the stepped epoch frame
                assert _evict_now(server) == [sid]
                goodbye = await client.next_event()
                assert goodbye["event"] == "error"
                assert goodbye["data"]["code"] == "evicted"
                # And post-pop subscribes get unknown_session, never a
                # silent half-dead attach.
                with pytest.raises(ServiceError) as exc_info:
                    await client.request("subscribe", session=sid)
                assert exc_info.value.code == ErrorCode.UNKNOWN_SESSION
                await client.close()
            finally:
                await server.drain()

        run_async(main())


class TestReplayRetentionRace:
    """Satellite: retention compaction mid-replay surfaces as
    cumulative ``dropped``, never a silent seq gap."""

    def test_compaction_between_replay_batches_is_accounted(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(ServiceServer, "_REPLAY_BATCH", 2)

        async def main():
            server = await _start_server(
                workers=0,
                ledger_dir=str(tmp_path),
                # Tiny segments: every appended frame seals its own
                # segment, so retention has fine-grained units to drop.
                ledger_segment_bytes=64,
            )
            try:
                client = await WireClient.open(server.address)
                info = await client.request("create_session", **PARAMS)
                sid = info["session"]
                await client.request("step", session=sid, epochs=8)

                session = server.manager.get(sid)
                ledger = session.ledger
                real_read = ledger.read_encoded
                calls = {"n": 0}

                def racing_read(start, end_seq):
                    # Between the first and second replay batch, the
                    # retention policy kicks in and compacts every
                    # sealed segment — exactly the race a slow replayer
                    # can lose against a busy session's retention.
                    calls["n"] += 1
                    if calls["n"] == 2:
                        ledger.retention_bytes = 1
                        ledger.compact()
                    return real_read(start, end_seq)

                monkeypatch.setattr(ledger, "read_encoded", racing_read)

                sub = await client.request(
                    "subscribe", session=sid, from_seq=0
                )
                assert calls["n"] >= 2, "compaction never raced the replay"
                # Whatever compaction removed mid-replay is accounted:
                # served + dropped covers the whole requested window.
                assert sub["dropped"] > 0
                assert sub["replayed"] + sub["dropped"] == 8

                frames = [
                    await client.next_event() for _ in range(sub["replayed"])
                ]
                frames = [
                    f for f in frames
                    if f["subscription"] == sub["subscription"]
                ]
                assert frames[0]["seq"] == 0
                # The live tail continues at seq 8 carrying the same
                # cumulative counter, so the loss arithmetic spans the
                # replay/live splice.
                await client.request("step", session=sid, epochs=1)
                live = await client.next_event()
                while live["subscription"] != sub["subscription"]:
                    live = await client.next_event()
                frames.append(live)
                # Loss arithmetic: every seq jump is exactly covered by
                # the cumulative dropped counter — no silent gaps.
                for prev, cur in zip(frames, frames[1:]):
                    gap = cur["seq"] - prev["seq"] - 1
                    assert gap == cur["dropped"] - prev["dropped"], (
                        f"silent gap between seq {prev['seq']} and "
                        f"{cur['seq']}"
                    )
                assert live["seq"] == 8
                assert live["dropped"] == sub["dropped"]
                await client.close()
            finally:
                await server.drain()

        run_async(main())
