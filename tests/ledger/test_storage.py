"""Unit tests for the append-only segmented session ledger."""

import json

import pytest

from repro.ledger.storage import SessionLedger
from repro.service.protocol import (
    encode_frame,
    encode_payload,
    event_frame,
    splice_event_frame,
)


def _fill(ledger, n, start=0):
    for i in range(start, start + n):
        ledger.append_many(
            [("epoch", encode_payload({"epoch": i, "hitrate": i / 10}))]
        )


class TestAppendRead:
    def test_appends_are_sequential_and_readable(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        seqs = [
            ledger.append_many([("epoch", encode_payload({"epoch": i}))])
            for i in range(5)
        ]
        assert seqs == [0, 1, 2, 3, 4]
        records = list(ledger.read())
        assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]
        assert [r["data"]["epoch"] for r in records] == [0, 1, 2, 3, 4]
        assert all(r["event"] == "epoch" for r in records)
        ledger.close()

    def test_read_window_is_half_open(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        _fill(ledger, 10)
        assert [r["seq"] for r in ledger.read(3, 7)] == [3, 4, 5, 6]
        assert [r["seq"] for r in ledger.read(8)] == [8, 9]
        assert list(ledger.read(10)) == []
        ledger.close()

    def test_concurrent_reader_sees_flushed_records(self, tmp_path):
        writer = SessionLedger(tmp_path)
        _fill(writer, 3)
        # A second handle over the same directory (the replay path
        # opens its own) sees everything the writer flushed.
        reader = SessionLedger(tmp_path)
        assert [r["seq"] for r in reader.read()] == [0, 1, 2]
        reader.close()
        writer.close()

    def test_append_after_close_raises(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        ledger.append_many([("epoch", encode_payload({"epoch": 0}))])
        ledger.close()
        with pytest.raises(ValueError):
            ledger.append_many([("epoch", encode_payload({"epoch": 1}))])

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SessionLedger(tmp_path, fsync="sometimes")


class TestBatchedAppend:
    def test_append_many_assigns_sequential_seqs(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        first = ledger.append_many(
            [("epoch", encode_payload({"epoch": i})) for i in range(5)]
        )
        assert first == 0
        assert ledger.next_seq == 5
        second = ledger.append_many([("error", encode_payload({"code": "x"}))])
        assert second == 5
        records = list(ledger.read())
        assert [r["seq"] for r in records] == [0, 1, 2, 3, 4, 5]
        assert [r["data"].get("epoch") for r in records[:5]] == [0, 1, 2, 3, 4]
        ledger.close()

    def test_empty_batch_is_a_noop(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        _fill(ledger, 3)
        assert ledger.append_many([]) == 3
        assert ledger.next_seq == 3
        ledger.close()

    def test_record_lines_are_a_function_of_the_records(self, tmp_path):
        items = [("epoch", encode_payload({"epoch": i})) for i in range(4)]
        items.append(("error", encode_payload({"code": "x"})))
        for name in ("a", "b"):  # two writers, at two different times
            ledger = SessionLedger(tmp_path / name)
            ledger.append_many(items[:3])
            ledger.append_many(items[3:])
            ledger.close()
        written = [
            (tmp_path / name / "seg-0000000000.jsonl").read_bytes()
            for name in ("a", "b")
        ]
        assert written[0] == written[1] == b"".join(
            b'{"seq":%d,"event":"%s","data":%s}\n' % (seq, event.encode(), payload)
            for seq, (event, payload) in enumerate(items)
        )

    def test_always_fsyncs_once_per_batch(self, tmp_path, monkeypatch):
        ledger = SessionLedger(tmp_path, fsync="always")
        calls = []
        monkeypatch.setattr(
            "repro.ledger.storage.os.fsync", lambda fd: calls.append(fd)
        )
        ledger.append_many(
            [("epoch", encode_payload({"epoch": i})) for i in range(16)]
        )
        assert len(calls) == 1  # one batch, one fsync
        ledger.append_many([("epoch", encode_payload({"epoch": 16}))])
        assert len(calls) == 2  # a 1-record batch still pays exactly one
        ledger.close()

    def test_append_encoded_is_bit_identical_to_append(self, tmp_path):
        data = {"epoch": 1, "hitrate": 0.5, "note": 'tricky ,"unix": text'}
        ledger = SessionLedger(tmp_path)
        ledger.append_many([("epoch", encode_payload(data))])
        ledger.close()
        # A line stamped the way records once were splits to the same
        # payload bytes as one appended now.
        seg = next(iter(sorted(tmp_path.glob("seg-*.jsonl"))))
        stamped = {"seq": 1, "event": "epoch", "data": data, "unix": 1760.25}
        with open(seg, "ab") as fh:
            fh.write(json.dumps(stamped, separators=(",", ":")).encode() + b"\n")
        reopened = SessionLedger(tmp_path)
        payloads = [p for _, _, p in reopened.read_encoded()]
        assert payloads == [encode_payload(data)] * 2
        reopened.close()

    def test_read_encoded_matches_read_across_segments(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=256)
        for i in range(20):
            ledger.append_many(
                [
                    (
                        "epoch" if i % 3 else "error",
                        encode_payload({"epoch": i, "s": f'","data": {i} ,"unix":'}),
                    )
                ]
            )
        decoded = list(ledger.read(3, 17))
        encoded = list(ledger.read_encoded(3, 17))
        assert [seq for seq, _, _ in encoded] == [r["seq"] for r in decoded]
        assert [event for _, event, _ in encoded] == [
            r["event"] for r in decoded
        ]
        for (_, _, payload), record in zip(encoded, decoded):
            assert json.loads(payload) == record["data"]
        ledger.close()

    def test_rotation_seals_without_rereading_the_segment(
        self, tmp_path, monkeypatch
    ):
        ledger = SessionLedger(tmp_path, segment_bytes=256)

        def bomb(self, seg, from_seq):
            raise AssertionError("append path re-read a segment file")

        with monkeypatch.context() as patch:
            patch.setattr(SessionLedger, "_iter_segment_lines", bomb)
            _fill(ledger, 30)  # rotates several times under the bomb
        assert ledger._sealed
        ledger.close()
        assert not list(tmp_path.glob("seg-*.idx"))

    def test_mixed_batch_counts_only_epochs(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        ledger.append_many(
            [
                ("epoch", encode_payload({"epoch": 0})),
                ("error", encode_payload({"code": "evicted"})),
                ("epoch", encode_payload({"epoch": 1})),
            ]
        )
        assert ledger.epoch_count == 2
        assert ledger.stats()["epochs"] == 2
        ledger.close()


class TestRotation:
    def test_rotation_seals_segments(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=256)
        _fill(ledger, 20)
        ledger.close()
        segments = sorted(tmp_path.glob("seg-*.jsonl"))
        assert len(segments) > 1
        assert not list(tmp_path.glob("seg-*.idx"))
        # Each segment is named by its first seq and holds the records
        # up to the next one's; each sealed one rotated on the append
        # that took it to segment_bytes.
        firsts = [int(path.stem.split("-")[1]) for path in segments]
        for path, first, end in zip(segments, firsts, firsts[1:] + [20]):
            lines = path.read_bytes().splitlines(keepends=True)
            assert [json.loads(line)["seq"] for line in lines] == list(
                range(first, end)
            )
            if path != segments[-1]:
                assert len(b"".join(lines[:-1])) < 256 <= path.stat().st_size
        # The close has the summary cover every record, all of them
        # epochs: into the active segment, when it holds any.
        summary = json.loads((tmp_path / "carried.json").read_text())
        expected = {"epochs": 20, "reconfigured": [], "through_seq": 20}
        if segments[-1].stat().st_size:
            expected["through_bytes"] = segments[-1].stat().st_size
        assert summary == expected

    def test_read_spans_segment_boundaries_in_order(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=128)
        _fill(ledger, 30)
        assert [r["seq"] for r in ledger.read()] == list(range(30))
        # Seek-by-seq lands mid-chain: a bisect, then lines skipped.
        assert [r["seq"] for r in ledger.read(17, 20)] == [17, 18, 19]
        ledger.close()


class TestRecovery:
    def test_reopen_resumes_numbering(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=128)
        _fill(ledger, 12)
        ledger.close()
        reopened = SessionLedger(tmp_path, segment_bytes=128)
        assert reopened.next_seq == 12
        assert reopened.epoch_count == 12
        assert reopened.append_many([("epoch", encode_payload({"epoch": 12}))]) == 12
        assert [r["seq"] for r in reopened.read()] == list(range(13))
        reopened.close()

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        _fill(ledger, 5)
        ledger.close()
        seg = next(iter(sorted(tmp_path.glob("seg-*.jsonl"))))
        with open(seg, "ab") as fh:
            fh.write(b'{"seq": 5, "event": "epo')  # killed mid-append
        torn = seg.read_bytes()
        reopened = SessionLedger(tmp_path)
        assert reopened.next_seq == 5
        assert [r["seq"] for r in reopened.read()] == [0, 1, 2, 3, 4]
        assert seg.read_bytes() == torn  # opening repairs nothing
        # The writer's first append drops the torn bytes and continues.
        assert reopened.append_many([("epoch", encode_payload({"epoch": 5}))]) == 5
        assert [r["seq"] for r in reopened.read()][-1] == 5
        assert all(
            json.loads(line)["seq"] == i
            for i, line in enumerate(seg.read_bytes().splitlines())
        )
        reopened.close()

    def test_misnumbered_record_truncates_the_rest(self, tmp_path):
        ledger = SessionLedger(tmp_path)
        _fill(ledger, 3)
        ledger.close()
        seg = next(iter(sorted(tmp_path.glob("seg-*.jsonl"))))
        with open(seg, "ab") as fh:
            fh.write(b'{"seq": 99, "event": "epoch", "data": {}}\n')
        reopened = SessionLedger(tmp_path)
        assert reopened.next_seq == 3
        reopened.close()

    def test_interior_segment_missing_sidecar_is_read_by_scanning(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=128)
        _fill(ledger, 20)
        ledger.close()
        # No segment has an offset sidecar any more.
        assert not list(tmp_path.glob("seg-*.idx"))
        names = sorted(p.name for p in tmp_path.iterdir())
        reopened = SessionLedger(tmp_path, segment_bytes=128)
        assert [r["seq"] for r in reopened.read()] == list(range(20))
        # A seek into a segment skips lines.
        assert [r["seq"] for r in reopened.read(1, 3)] == [1, 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        reopened.close()


class TestRetention:
    def test_size_retention_drops_oldest_sealed_segments(self, tmp_path):
        ledger = SessionLedger(
            tmp_path, segment_bytes=128, retention_bytes=512
        )
        _fill(ledger, 60)
        assert ledger.first_seq > 0
        remaining = [r["seq"] for r in ledger.read()]
        assert remaining == list(range(ledger.first_seq, 60))
        # Reading below first_seq just starts at the oldest survivor.
        assert [r["seq"] for r in ledger.read(0)][0] == ledger.first_seq
        total = sum(p.stat().st_size for p in tmp_path.glob("seg-*.jsonl"))
        assert total <= 512 + 256  # at most one overfull boundary
        ledger.close()

    def test_age_retention_drops_old_segments(self, tmp_path):
        import os
        import time

        ledger = SessionLedger(
            tmp_path, segment_bytes=128, retention_age_s=3600
        )
        _fill(ledger, 12)
        sealed = sorted(tmp_path.glob("seg-*.jsonl"))[0]
        old = time.time() - 7200
        os.utime(sealed, (old, old))
        assert ledger.compact() >= 1
        assert ledger.first_seq > 0
        ledger.close()

    def test_stats_reports_shape(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=128)
        _fill(ledger, 10)
        ledger.append_many([("error", encode_payload({"code": "evicted"}))])
        stats = ledger.stats()
        assert stats["next_seq"] == 11
        assert stats["epochs"] == 10
        assert stats["first_seq"] == 0
        assert stats["segments"] >= 1
        assert stats["bytes"] > 0
        ledger.close()


class TestRetentionCarriesForward:
    """What a rebuild reads — the epoch count and every ``reconfigured``
    record — describes the session's whole life, whatever retention
    has dropped and however often the ledger is reopened."""

    CHANGES = [
        {"changes": {"trace_sample_period": 8}, "epochs_run": 5},
        {"changes": {"abit_scan_interval_s": 0.5}, "epochs_run": 40},
    ]

    def _fill_with_reconfigures(self, ledger):
        _fill(ledger, 5)
        ledger.append_many([("reconfigured", encode_payload(self.CHANGES[0]))])
        _fill(ledger, 35, start=5)
        ledger.append_many([("reconfigured", encode_payload(self.CHANGES[1]))])
        _fill(ledger, 20, start=40)
        return [{"seq": 5, **self.CHANGES[0]}, {"seq": 41, **self.CHANGES[1]}]

    def test_counts_and_reconfigures_survive_compaction_and_reopen(self, tmp_path):
        kwargs = dict(segment_bytes=128, retention_bytes=512)
        ledger = SessionLedger(tmp_path, **kwargs)
        expected = self._fill_with_reconfigures(ledger)
        # Both reconfigures have been compacted away from the segments...
        assert ledger.first_seq > 41
        on_disk = [r["event"] for r in ledger.read()]
        assert "reconfigured" not in on_disk and len(on_disk) < 20
        # ...and neither they nor the dropped epochs are forgotten.
        assert ledger.epoch_count == 60
        assert ledger.reconfigured == expected
        ledger.close()
        for _ in range(2):  # a reopen reads it back; a second one still does
            reopened = SessionLedger(tmp_path, **kwargs)
            assert reopened.epoch_count == 60
            assert reopened.next_seq == 62
            assert reopened.reconfigured == expected
            reopened.close()

    def test_reconfigures_are_tracked_without_retention_too(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=128)
        expected = self._fill_with_reconfigures(ledger)
        assert ledger.reconfigured == expected
        ledger.close()
        # Sealing writes the summary whether or not retention is on.
        summary = json.loads((tmp_path / "carried.json").read_text())
        assert summary["through_seq"] > 41
        assert summary["reconfigured"] == expected
        reopened = SessionLedger(tmp_path, segment_bytes=128)
        assert reopened.reconfigured == expected
        assert reopened.epoch_count == 60
        reopened.close()

    def test_crash_between_carry_and_unlink_counts_nothing_twice(self, tmp_path):
        """The summary covers a segment before compaction unlinks it;
        dying in between leaves covered segments a reopen must not
        recount (nor remove: only the writer's compaction unlinks)."""
        import shutil

        ledger = SessionLedger(tmp_path, segment_bytes=128)
        expected = self._fill_with_reconfigures(ledger)
        kept = tmp_path / "kept"
        kept.mkdir()
        for path in tmp_path.glob("seg-*"):
            shutil.copy(path, kept)
        ledger.retention_bytes = 512
        assert ledger.compact() >= 1
        ledger.close()
        for path in kept.iterdir():  # as if no unlink ever happened
            shutil.copy(path, tmp_path / path.name)
        before = sorted(p.name for p in tmp_path.iterdir())
        reopened = SessionLedger(tmp_path, segment_bytes=128)
        assert reopened.epoch_count == 60
        assert reopened.reconfigured == expected
        assert reopened.first_seq == 0
        assert [r["seq"] for r in reopened.read()] == list(range(62))
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        reopened.close()

    def test_sidecar_sealed_before_the_facts_were_kept_is_rescanned(self, tmp_path):
        ledger = SessionLedger(tmp_path, segment_bytes=128)
        expected = self._fill_with_reconfigures(ledger)
        ledger.close()
        # The oldest layout: sidecars with counts and offsets only, and
        # no summary, so every segment is decoded again.
        (tmp_path / "carried.json").unlink()
        for path in sorted(tmp_path.glob("seg-*.jsonl"))[:-1]:
            lines = path.read_bytes().splitlines(keepends=True)
            path.with_suffix(".idx").write_text(
                json.dumps(
                    {
                        "first_seq": int(path.stem.split("-")[1]),
                        "count": len(lines),
                        "bytes": path.stat().st_size,
                        "offsets": [
                            sum(map(len, lines[:i])) for i in range(len(lines))
                        ],
                    }
                )
            )
        reopened = SessionLedger(tmp_path, segment_bytes=128)
        assert reopened.reconfigured == expected
        assert reopened.epoch_count == 60
        reopened.close()


def _history(ledger, start=0, stop=62):
    """Append records ``start..stop-1`` of one fixed history: epochs,
    with a ``reconfigured`` at seq 5 and at seq 41."""
    for seq in range(start, stop):
        if seq in (5, 41):
            item = ("reconfigured", encode_payload({"changes": {"n": seq}}))
        else:
            item = ("epoch", encode_payload({"epoch": seq, "hitrate": seq / 10}))
        ledger.append_many([item])


def _state(ledger):
    """What a rebuild and a replay read from a ledger."""
    return (
        ledger.epoch_count,
        ledger.reconfigured,
        ledger.next_seq,
        ledger.first_seq,
        [(r["seq"], r["event"], r["data"]) for r in ledger.read()],
    )


class _Crash(Exception):
    """Stands in for the process dying at a chosen point."""


def _abandon(ledger):
    """Drop a crashed writer: its file handle dies with the process."""
    if ledger._fh is not None:
        ledger._fh.close()


class TestCrashPoints:
    """A crash at each step of sealing or compaction reopens to the same
    ledger as an uninterrupted run: nothing lost, nothing counted twice."""

    KW = dict(segment_bytes=128)

    def _crash_in_summary_write(self, directory, monkeypatch, after_write):
        """Append the history until the third summary write dies, before
        (``after_write=False``) or after the summary reaches disk."""
        ledger = SessionLedger(directory, **self.KW)
        real = SessionLedger._write_summary
        calls = []

        def dying(self):
            calls.append(1)
            if len(calls) < 3:
                return real(self)
            if after_write:
                real(self)
            raise _Crash

        with monkeypatch.context() as patch:
            patch.setattr(SessionLedger, "_write_summary", dying)
            with pytest.raises(_Crash):
                _history(ledger)
        _abandon(ledger)
        return ledger.next_seq  # every record of the dying batch is on disk

    @pytest.mark.parametrize("after_write", [False, True], ids=["segment", "summary"])
    def test_crash_while_sealing(self, tmp_path, monkeypatch, after_write):
        crashed, clean = tmp_path / "crashed", tmp_path / "clean"
        reached = self._crash_in_summary_write(crashed, monkeypatch, after_write)
        ledger = SessionLedger(clean, **self.KW)
        _history(ledger, stop=reached)
        ledger.close()
        reopened = SessionLedger(crashed, **self.KW)
        expected = SessionLedger(clean, **self.KW)
        assert _state(reopened) == _state(expected)
        # The writer picks up where the dead one stopped.
        _history(reopened, start=reached)
        _history(expected, start=reached)
        assert _state(reopened) == _state(expected)
        assert reopened.epoch_count == 60 and len(reopened.reconfigured) == 2
        reopened.close()
        expected.close()

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_crash_after_k_of_n_compaction_unlinks(self, tmp_path, monkeypatch, k):
        from pathlib import Path

        kw = dict(self.KW, retention_bytes=512)
        crashed, clean = tmp_path / "crashed", tmp_path / "clean"
        for directory in (crashed, clean):
            ledger = SessionLedger(directory, **self.KW)
            _history(ledger)
            ledger.close()
        ledger = SessionLedger(clean, **kw)
        n = ledger.compact()
        ledger.close()
        assert n > k + 1
        ledger = SessionLedger(crashed, **kw)
        real_unlink = Path.unlink
        unlinks = []

        def dying(path, missing_ok=False):
            if len(unlinks) == 2 * k:  # a .jsonl and any stale .idx per segment
                raise _Crash
            unlinks.append(path)
            real_unlink(path, missing_ok=missing_ok)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "unlink", dying)
            with pytest.raises(_Crash):
                ledger.compact()
        _abandon(ledger)
        reopened = SessionLedger(crashed, **kw)
        expected = SessionLedger(clean, **kw)
        assert _state(reopened) == _state(expected)
        # The writer's next compaction unlinks what the crash left.
        assert reopened.compact() == n - k
        assert sorted(p.name for p in crashed.iterdir()) == sorted(
            p.name for p in clean.iterdir()
        )
        reopened.close()
        expected.close()


class TestOldLayout:
    def test_parent_layout_reopens_to_the_same_ledger(self, tmp_path):
        """Sidecars carrying per-segment facts, and a ``carried.json``
        retention wrote for the two segments it dropped."""
        per_segment, total = 7, 40
        records = []
        for seq in range(total):
            if seq in (3, 20):
                event, data = "reconfigured", {"changes": {"n": seq}, "epochs_run": seq}
            else:
                event, data = "epoch", {"epoch": seq}
            records.append((seq, event, data))

        def facts(chunk):
            return {
                "epochs": sum(event == "epoch" for _, event, _ in chunk),
                "reconfigured": [
                    {"seq": seq, **data}
                    for seq, event, data in chunk
                    if event == "reconfigured"
                ],
            }

        chunks = [
            records[i : i + per_segment] for i in range(0, total, per_segment)
        ]
        through_seq = 2 * per_segment
        (tmp_path / "carried.json").write_text(
            json.dumps({**facts(records[:through_seq]), "through_seq": through_seq})
        )
        for chunk in chunks[2:]:
            raw = [
                json.dumps(
                    {"seq": seq, "event": event, "data": data, "unix": 1.0},
                    separators=(",", ":"),
                ).encode()
                + b"\n"
                for seq, event, data in chunk
            ]
            path = tmp_path / f"seg-{chunk[0][0]:010d}.jsonl"
            path.write_bytes(b"".join(raw))
            if chunk is chunks[-1]:
                continue  # the active tail has no sidecar
            sidecar = {
                "first_seq": chunk[0][0],
                "count": len(chunk),
                "bytes": path.stat().st_size,
                **facts(chunk),
                "offsets": [sum(map(len, raw[:j])) for j in range(len(raw))],
            }
            path.with_suffix(".idx").write_text(json.dumps(sidecar))
        reopened = SessionLedger(tmp_path)
        assert reopened.epoch_count == total - 2
        assert reopened.reconfigured == facts(records)["reconfigured"]
        assert reopened.next_seq == total
        assert reopened.first_seq == through_seq
        assert [
            (r["seq"], r["event"], r["data"]) for r in reopened.read()
        ] == records[through_seq:]
        assert [r["seq"] for r in reopened.read(30, 33)] == [30, 31, 32]
        reopened.close()

    def test_stamped_lines_and_stale_sidecars_replay_byte_identical(self, tmp_path):
        """Segments from when every record carried a ``"unix"`` stamp and
        every sealed segment an ``.idx``: they open, replay and splice
        the stored payload bytes, take new-shape appends in the old
        active segment, and compaction unlinks a stale ``.idx``."""
        records = [
            ("epoch", {"epoch": 0, "note": 'tricky ,"unix": text'}),
            ("epoch", {"epoch": 1, "s": '","data": 1 ,"unix":'}),
            ("error", {"code": "evicted", "unix": 1760000000.5}),
            ("reconfigured", {"changes": {"n": 3}, "epochs_run": 2}),
            ("epoch", {"epoch": 2}),
            ("epoch", {"epoch": 3, "unix": 7}),
        ]
        lines = [
            b'{"seq":%d,"event":"%s","data":%s,"unix":%r}\n'
            % (seq, event.encode(), encode_payload(data), 1760000000.0 + seq / 7)
            for seq, (event, data) in enumerate(records)
        ]
        sealed = tmp_path / "seg-0000000000.jsonl"
        active = tmp_path / "seg-0000000003.jsonl"
        sealed.write_bytes(b"".join(lines[:3]))
        active.write_bytes(b"".join(lines[3:]))
        sealed.with_suffix(".idx").write_text('{"offsets":[0,1,2]}')  # stale
        (tmp_path / "carried.json").write_text(
            '{"epochs":2,"reconfigured":[],"through_seq":3}'
        )

        def expected(upto):
            return [
                (seq, event, encode_payload(data))
                for seq, (event, data) in enumerate(records[:upto])
            ]

        reopened = SessionLedger(tmp_path, segment_bytes=256)
        assert (reopened.next_seq, reopened.epoch_count) == (6, 4)
        assert reopened.reconfigured == [{"seq": 3, **records[3][1]}]
        assert list(reopened.read_encoded()) == expected(6)
        assert list(reopened.read_encoded(1, 4)) == expected(4)[1:]
        assert [(r["event"], r["data"]) for r in reopened.read()] == records
        for seq, event, payload in reopened.read_encoded():
            assert splice_event_frame(event, "s1", "sub1", seq, 0, payload) == (
                encode_frame(event_frame(event, "s1", "sub1", seq, records[seq][1]))
            )
        # New-shape lines follow the stamped ones in the same segment.
        records += [("epoch", {"epoch": 4}), ("error", {"code": "x", "unix": 2})]
        assert reopened.append_many(
            [(event, encode_payload(data)) for event, data in records[6:]]
        ) == 6
        assert active.read_bytes().startswith(b"".join(lines[3:]))
        assert b'{"seq":6,"event":"epoch","data":{"epoch":4}}\n' in active.read_bytes()
        assert list(reopened.read_encoded()) == expected(8)
        reopened.close()
        again = SessionLedger(tmp_path, segment_bytes=256)
        assert list(again.read_encoded()) == expected(8)
        assert (again.next_seq, again.epoch_count) == (8, 5)
        again.retention_bytes = 1
        assert again.compact() >= 1
        assert not sealed.exists() and not sealed.with_suffix(".idx").exists()
        again.close()


def _decoded(registry):
    return registry.counter("repro_ledger_records_decoded_total").value()


@pytest.fixture
def registry():
    from repro.obs import metrics as obs_metrics

    fresh = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_default_registry(fresh)
    try:
        yield fresh
    finally:
        obs_metrics.set_default_registry(previous)


class TestCloseWritesTheSummary:
    """A close covers the active segment, so a clean reopen reads no
    record; only a writer that crashed after a reopen leaves any to read."""

    def _filled(self, directory):
        ledger = SessionLedger(directory)
        _fill(ledger, 5)
        ledger.append_many([("reconfigured", encode_payload(
            {"changes": {"trace_sample_period": 8}, "epochs_run": 5}
        ))])
        _fill(ledger, 6, start=5)
        return ledger

    def test_clean_reopen_decodes_nothing(self, tmp_path, registry):
        ledger = self._filled(tmp_path)
        before = (ledger.next_seq, ledger.epoch_count, ledger.reconfigured)
        ledger.close()
        summary = json.loads((tmp_path / "carried.json").read_text())
        assert summary["through_seq"] == 12
        assert summary["through_bytes"] == sum(
            p.stat().st_size for p in tmp_path.glob("seg-*.jsonl")
        )
        segments = sorted(p.name for p in tmp_path.glob("seg-*"))
        reopened = SessionLedger(tmp_path)
        assert (
            reopened.next_seq, reopened.epoch_count, reopened.reconfigured
        ) == before
        assert _decoded(registry) == 0
        assert [r["seq"] for r in reopened.read()] == list(range(12))
        # The segment stays active: appends continue in it.
        assert reopened.append_many([("epoch", encode_payload({"epoch": 11}))]) == 12
        reopened.close()
        assert sorted(p.name for p in tmp_path.glob("seg-*")) == segments

    def test_reading_open_and_close_write_nothing(self, tmp_path):
        self._filled(tmp_path).close()
        stamps = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        SessionLedger(tmp_path).close()
        assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == stamps

    def test_crash_after_a_reopen_loses_no_record(self, tmp_path, registry):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        self._filled(tmp_path).close()
        # Another process reopens the closed ledger, appends, and dies
        # without closing: its records lie past ``through_bytes``.
        program = (
            "import os\n"
            "from repro.ledger.storage import SessionLedger\n"
            "from repro.service.protocol import encode_payload\n"
            f"ledger = SessionLedger({str(tmp_path)!r})\n"
            "for i in range(11, 14):\n"
            "    ledger.append_many([('epoch', encode_payload({'epoch': i}))])\n"
            "ledger.append_many([('reconfigured', encode_payload("
            "{'changes': {'n': 1}, 'epochs_run': 14}))])\n"
            "os._exit(0)\n"
        )
        subprocess.run(
            [sys.executable, "-c", program],
            cwd=Path(repro.__file__).parents[1],
            check=True, timeout=60,
        )
        seg = next(iter(sorted(tmp_path.glob("seg-*.jsonl"))))
        with open(seg, "ab") as fh:
            fh.write(b'{"seq":16,"event":"epo')  # and a torn tail
        reopened = SessionLedger(tmp_path)
        assert reopened.next_seq == 16
        assert reopened.epoch_count == 14
        assert [r["seq"] for r in reopened.reconfigured] == [5, 15]
        assert _decoded(registry) == 4
        assert [r["seq"] for r in reopened.read()] == list(range(16))
        # The writer's truncation drops the torn bytes and nothing else.
        assert reopened.append_many([("epoch", encode_payload({"epoch": 14}))]) == 16
        reopened.close()
        lines = seg.read_bytes().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == list(range(17))
        again = SessionLedger(tmp_path)
        assert (again.next_seq, again.epoch_count) == (17, 15)
        again.close()
        assert os.path.getsize(seg) == json.loads(
            (tmp_path / "carried.json").read_text()
        )["through_bytes"]

    def test_sealing_a_reopened_segment_reads_nothing(self, tmp_path, monkeypatch):
        ledger = SessionLedger(tmp_path, segment_bytes=4096)
        _fill(ledger, 10)
        ledger.close()
        reopened = SessionLedger(tmp_path, segment_bytes=4096)
        real_open = open

        def writing_only(path, mode="r", *args, **kwargs):
            assert "a" in mode or "w" in mode, f"the writer read {path}"
            return real_open(path, mode, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr("repro.ledger.storage.open", writing_only, raising=False)
            _fill(reopened, 200, start=10)  # seals the segment it reopened
        reopened.close()
        assert len(list(tmp_path.glob("seg-*.jsonl"))) > 1
        assert [r["seq"] for r in SessionLedger(tmp_path).read(7, 9)] == [7, 8]

    def test_crash_open_reads_envelopes_not_payloads(self, tmp_path, monkeypatch):
        ledger = self._filled(tmp_path)  # never closed: nothing is covered
        decoded = []
        real_loads = json.loads

        def counting_loads(blob, *args, **kwargs):
            decoded.append(blob)
            return real_loads(blob, *args, **kwargs)

        monkeypatch.setattr("repro.ledger.storage.json.loads", counting_loads)
        reopened = SessionLedger(tmp_path)
        # The summary read (absent here) aside, only the one
        # ``reconfigured`` payload, and each event name, are decoded.
        payloads = [b for b in decoded if isinstance(b, bytes) and b.startswith(b"{")]
        assert len(payloads) == 1
        assert reopened.epoch_count == 11 and reopened.next_seq == 12
        reopened.close()
        ledger.close()
