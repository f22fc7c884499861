"""Golden-equivalence suite for the serialize-once fan-out.

The tentpole claim is that splicing pre-encoded payload bytes into
per-subscriber envelopes is *bit-identical* to the old path that ran
``encode_frame(event_frame(...))`` once per subscriber.  These tests
pin that claim three ways: randomized payloads against the old encoder
directly, raw wire lines from a live server (in-thread hosts and a
worker pool, byte-equal to each other), and raw replay lines spliced
from ledger-stored payload bytes.  The ledger itself is pinned the
same way: byte-equal files over both transports, and byte-equal
records across an eviction or a crash.

The canonical-form check used on wire lines — ``line ==
encode_frame(decode_frame(line))`` — is exactly equivalence with the
old per-subscriber encoder: JSON objects preserve insertion order
through a decode/encode round-trip, and the envelope key order on the
wire matches ``event_frame``'s insertion order, so the re-encode *is*
the old path's output for that frame.
"""

import json
import string
from collections import deque

import numpy as np
import pytest

from repro.ledger import Ledger
from repro.service.manager import SessionManager
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    encode_payload,
    event_frame,
    splice_event_frame,
)
from repro.service.workers import WorkerPool

from .test_lifecycle import AFTER, BEFORE, BETWEEN, RECONFIGURE, _rig
from .test_lifecycle import PARAMS as LIFECYCLE_PARAMS
from .test_server import WireClient, _start_server, run_async

SMALL = {"footprint_pages": 512, "accesses_per_epoch": 2000}


def _random_value(rng, depth=0):
    kind = rng.integers(0, 8 if depth < 2 else 6)
    if kind == 0:
        return int(rng.integers(-(10**12), 10**12))
    if kind == 1:
        return float(rng.standard_normal() * 10 ** int(rng.integers(-8, 8)))
    if kind == 2:
        return np.int64(rng.integers(-(10**9), 10**9))
    if kind == 3:
        return np.float64(rng.standard_normal())
    if kind == 4:
        alphabet = string.printable + 'π"\\\n\t,"data":,"unix":'
        n = int(rng.integers(0, 40))
        return "".join(
            alphabet[int(i)] for i in rng.integers(0, len(alphabet), n)
        )
    if kind == 5:
        return [None, True, False][int(rng.integers(0, 3))]
    if kind == 6:
        return {
            f"k{i}": _random_value(rng, depth + 1)
            for i in range(int(rng.integers(0, 4)))
        }
    return [_random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]


class TestRandomizedSpliceEquivalence:
    def test_splice_matches_legacy_encode_on_random_payloads(self):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            data = {
                f"field{i}": _random_value(rng)
                for i in range(int(rng.integers(1, 6)))
            }
            seq = int(rng.integers(0, 10**9))
            dropped = int(rng.integers(0, 1000))
            sid = f's"{trial}\\x'
            sub = f"{sid}.sub{trial}"
            legacy = encode_frame(
                event_frame("epoch", sid, sub, seq, data, dropped=dropped)
            )
            spliced = splice_event_frame(
                "epoch", sid, sub, seq, dropped, encode_payload(data)
            )
            assert spliced == legacy, f"trial {trial} diverged"

    def test_epoch_shaped_payload_with_numpy_scalars(self):
        data = {
            "epoch": np.int64(7),
            "hitrate": np.float64(0.123456789),
            "latency": {"total_s": np.float64(3.5e-4), "reads": np.int64(12)},
            "arr": np.arange(3),
        }
        legacy = encode_frame(event_frame("epoch", "s1", "s1.sub1", 7, data))
        spliced = splice_event_frame(
            "epoch", "s1", "s1.sub1", 7, 0, encode_payload(data)
        )
        assert spliced == legacy


class RawWireClient(WireClient):
    """WireClient that also retains each event frame's raw wire line."""

    def __init__(self, reader, writer):
        super().__init__(reader, writer)
        self.raw_events = deque()

    async def _read(self):
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        frame = json.loads(line)
        if "event" in frame:
            self.raw_events.append(line)
        return frame

    async def next_raw_event(self) -> bytes:
        while not self.raw_events:
            frame = await self._read()
            if "event" in frame:
                self.events.append(frame)
        self.events.popleft()
        return self.raw_events.popleft()


def _assert_canonical(line: bytes):
    assert line == encode_frame(decode_frame(line))


def _payload_of(line: bytes) -> bytes:
    # ``data`` is the envelope's final key, so the payload runs from
    # the marker to the closing ``}\n``.
    return line[line.index(b',"data":') + 8 : -2]


async def _stream_raw_lines(workers: int, epochs: int = 4) -> list[bytes]:
    server = await _start_server(workers=workers)
    try:
        client = await RawWireClient.open(server.address)
        try:
            info = await client.request(
                "create_session",
                workload="gups",
                seed=3,
                workload_kwargs=dict(SMALL),
            )
            sid = info["session"]
            await client.request("subscribe", session=sid, max_queue=32)
            await client.request("subscribe", session=sid, max_queue=32)
            await client.request("step", session=sid, epochs=epochs)
            return [await client.next_raw_event() for _ in range(2 * epochs)]
        finally:
            await client.close()
    finally:
        await server.drain()


def _assert_canonical_shared(lines: list[bytes]) -> None:
    assert len(lines) == 8
    for line in lines:
        _assert_canonical(line)
    # Both subscribers of the same epoch share the payload bytes.
    by_seq: dict[int, set] = {}
    for line in lines:
        by_seq.setdefault(decode_frame(line)["seq"], set()).add(_payload_of(line))
    assert all(len(payloads) == 1 for payloads in by_seq.values())


class TestLiveWireBitIdentity:
    def test_in_process_frames_are_canonical(self):
        _assert_canonical_shared(run_async(_stream_raw_lines(workers=0)))

    def test_worker_pool_frames_are_canonical(self):
        _assert_canonical_shared(run_async(_stream_raw_lines(workers=2)))

    def test_both_transports_send_equal_bytes(self):
        inthread = run_async(_stream_raw_lines(workers=0))
        pooled = run_async(_stream_raw_lines(workers=2))
        assert len(inthread) == len(pooled) == 8

        def in_order(lines):
            frames = [(decode_frame(line), line) for line in lines]
            frames.sort(key=lambda pair: (pair[0]["subscription"], pair[0]["seq"]))
            return [line for _, line in frames]

        assert in_order(inthread) == in_order(pooled)


def _durable_bytes(directory, pool) -> dict:
    """One session stepped, reconfigured and closed over ``pool``: its
    segment files and ``carried.json``, by name."""
    manager = SessionManager(pool=pool, ledger=Ledger(directory, segment_bytes=1024))
    try:
        session = manager.create(**LIFECYCLE_PARAMS)
        session.step(3)
        session.reconfigure(dict(RECONFIGURE))
        session.step(4)
        manager.close(session.session_id)
    finally:
        manager.close_all()
        if pool is not None:
            pool.shutdown()
    return {
        path.name: path.read_bytes()
        for path in sorted((directory / session.session_id).iterdir())
        if path.name.startswith("seg-") or path.name == "carried.json"
    }


def _lived_records(rig, session_id) -> list[tuple[str, bytes]]:
    """A session's ``epoch`` and ``reconfigured`` records, in seq order;
    the lifecycle frames between them carry wall time by design."""
    return [
        (event, payload)
        for _, event, payload in rig.manager.get(session_id).ledger.read_encoded()
        if event in ("epoch", "reconfigured")
    ]


class TestDurableBitIdentity:
    """The ledger twin of ``test_both_transports_send_equal_bytes``: a
    record's bytes depend only on the record."""

    def test_both_transports_write_equal_ledgers(self, tmp_path):
        inthread = _durable_bytes(tmp_path / "inthread", None)
        pooled = _durable_bytes(tmp_path / "pooled", WorkerPool(2))
        assert len(inthread) > 2  # rotation sealed segments
        assert inthread == pooled

    @pytest.mark.parametrize(
        "backend, interrupt", [("inproc", "evict"), ("pool", "sigkill")]
    )
    def test_interrupted_session_writes_the_same_records(
        self, tmp_path, backend, interrupt
    ):
        with _rig(tmp_path / "direct", "inproc") as rig:
            session = rig.manager.create(tenant="acme", **LIFECYCLE_PARAMS)
            session.step(BEFORE)
            session.reconfigure(dict(RECONFIGURE))
            session.step(BETWEEN + AFTER)
            expected = _lived_records(rig, session.session_id)
        with _rig(tmp_path / interrupt, backend) as rig:
            session = rig.manager.create(tenant="acme", **LIFECYCLE_PARAMS)
            sid = session.session_id
            session.step(BEFORE)
            session.reconfigure(dict(RECONFIGURE))
            session.step(BETWEEN)
            if interrupt == "evict":
                assert rig.evict() == [sid]
                session = rig.manager.resume(sid)
            else:
                rig.sigkill(session)
                assert rig.manager.recover(sid) is True
            session.step(AFTER)
            events = [e for _, e, _ in rig.manager.get(sid).ledger.read_encoded()]
            assert ("resumed" if interrupt == "evict" else "recovered") in events
            assert _lived_records(rig, sid) == expected


class TestLedgerReplayBitIdentity:
    def test_replayed_payload_bytes_match_live_frames(self, tmp_path):
        epochs = 5

        async def main():
            server = await _start_server(ledger_dir=str(tmp_path))
            try:
                live = await RawWireClient.open(server.address)
                try:
                    info = await live.request(
                        "create_session",
                        workload="gups",
                        seed=11,
                        workload_kwargs=dict(SMALL),
                    )
                    sid = info["session"]
                    await live.request("subscribe", session=sid, max_queue=32)
                    await live.request("step", session=sid, epochs=epochs)
                    live_lines = [
                        await live.next_raw_event() for _ in range(epochs)
                    ]
                    replayer = await RawWireClient.open(server.address)
                    try:
                        await replayer.request(
                            "subscribe", session=sid, from_seq=0
                        )
                        replay_lines = [
                            await replayer.next_raw_event()
                            for _ in range(epochs)
                        ]
                    finally:
                        await replayer.close()
                    return live_lines, replay_lines
                finally:
                    await live.close()
            finally:
                await server.drain()

        live_lines, replay_lines = run_async(main())
        for line in live_lines + replay_lines:
            _assert_canonical(line)
        # Replay splices the ledger-stored payload bytes; only the
        # subscription envelope may differ from the live frame.
        for live_line, replay_line in zip(live_lines, replay_lines):
            assert _payload_of(replay_line) == _payload_of(live_line)
            live_frame = decode_frame(live_line)
            replay_frame = decode_frame(replay_line)
            assert replay_frame["seq"] == live_frame["seq"]
            assert replay_frame["data"] == live_frame["data"]
