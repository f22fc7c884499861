"""One session's append-only segment chain.

A :class:`SessionLedger` owns a directory of JSONL segment files::

    meta.json                    # recorded config + provenance key
    seg-0000000000.jsonl         # records seq 0..136       (sealed)
    seg-0000000000.idx           # their byte offsets       (sealed)
    seg-0000000137.jsonl         # the active tail segment
    carried.json                 # summary of every record below through_seq

Each record is one JSON line ``{"seq": n, "event": "...", "data":
{...}, "unix": t}``.  Segments are named by the first seq they hold,
so seek-by-seq is a bisect over the sorted segment list (O(log n))
followed by an O(1) lookup in the sealed segment's ``.idx``
(``{"offsets": [...]}``, one byte offset per record and nothing else);
a segment without a usable ``.idx`` is skipped through line by line.

``carried.json`` is the ledger's one summary, ``{"epochs",
"reconfigured", "through_seq"}``: how many records below
``through_seq`` are epochs, and every ``reconfigured`` payload among
them with its seq — what a rebuild needs.  Sealing a segment fsyncs
it, writes its ``.idx``, then atomically rewrites the summary to cover
it, so :attr:`~SessionLedger.epoch_count` and
:attr:`~SessionLedger.reconfigured` describe the session's whole life
whatever retention has removed.  Opening a ledger reads the summary,
takes a covered segment's record count from the next segment's first
seq and its size from ``stat``, and decodes only the segments at or
past ``through_seq``: the active one, plus any that a crash sealed
before the summary was written.

Opening a ledger only reads.  A torn tail (process killed mid-append)
just ends the records a reader sees; the writer's first
:meth:`~SessionLedger.append_many` truncates it before writing — the
one repair, and only the writer makes it.  Sidecars, the summary and
meta are written atomically via :mod:`repro.ioutil`.  The fsync policy
is configurable: ``"rotate"`` (default) syncs a segment once when it
seals, ``"always"`` syncs every append, ``"never"`` leaves durability
to the OS.

Retention is size/age based and only unlinks: :meth:`~SessionLedger
.compact` (called on rotation) drops the oldest sealed segments while
the sealed ones hold more than ``retention_bytes`` or are older than
``retention_age_s``.  The summary already covers them, and
:attr:`~SessionLedger.first_seq` then reports the oldest record still
replayable so readers can account the gap as drops.  Opening a ledger
applies the same rule without unlinking, so a crash part-way through
the unlinks opens to the same ``first_seq`` as a finished compaction;
the writer unlinks what is left at its next compaction.
"""

from __future__ import annotations

import bisect
import io
import json
import os
import threading
import time
from pathlib import Path

from ..ioutil import atomic_write_bytes, fsync_dir, json_default
from ..obs import metrics as obs_metrics

__all__ = ["LEDGER_FORMAT_VERSION", "SessionLedger"]

#: Bump to invalidate every on-disk ledger at once (recorded in meta).
LEDGER_FORMAT_VERSION = 1

#: Rotate the active segment once it holds this many bytes.
DEFAULT_SEGMENT_BYTES = 1 << 18

_FSYNC_POLICIES = ("always", "rotate", "never")

#: The summary of every record below its ``through_seq`` (see the
#: module docstring).
_SUMMARY_NAME = "carried.json"


def _registry():
    return obs_metrics.default_registry()


def _encode_data(data) -> bytes:
    """One record's ``data`` as compact JSON bytes (numpy coerced)."""
    return json.dumps(data, separators=(",", ":"), default=json_default).encode(
        "utf-8"
    )


def _segment_name(first_seq: int) -> str:
    return f"seg-{first_seq:010d}.jsonl"


def _split_record(line: bytes):
    """Parse one record line's envelope without decoding the payload.

    Record lines are written by :meth:`SessionLedger.append_many` in a
    fixed shape — ``{"seq":N,"event":E,"data":P,"unix":T}`` — so the
    payload bytes can be sliced back out between the ``"data":`` marker
    and the trailing ``,"unix":`` (``rindex``: the real ``unix`` field
    always follows the payload, so the *last* occurrence is the field
    boundary even if the payload contains the marker text).  Returns
    ``(seq, event, payload_bytes)`` or ``None`` when the line doesn't
    match the shape (foreign writer, corruption) and needs a full JSON
    decode instead.
    """
    try:
        if not line.startswith(b'{"seq":'):
            return None
        event_at = line.index(b',"event":', 7)
        seq = int(line[7:event_at])
        data_at = line.index(b',"data":', event_at)
        event = json.loads(line[event_at + 9 : data_at])
        end = line.rindex(b',"unix":')
        payload = line[data_at + 8 : end]
        if not isinstance(event, str):
            return None
        return seq, event, payload
    except ValueError:
        return None


class _Segment:
    """One segment file: which seqs it holds and how many bytes.

    ``offsets`` (each record's byte offset) is kept only while the
    segment is active, tracked as records append so sealing writes the
    ``.idx`` without re-reading the file; it is dropped once the
    ``.idx`` is written, since readers seek through the file on disk.
    """

    def __init__(
        self,
        path: Path,
        first_seq: int,
        count: int = 0,
        nbytes: int = 0,
        offsets: list[int] | None = None,
    ):
        self.path = path
        self.first_seq = first_seq
        self.count = count
        self.nbytes = nbytes
        self.offsets = offsets

    @property
    def end_seq(self) -> int:
        """One past the last seq held (== first_seq when empty)."""
        return self.first_seq + self.count


class SessionLedger:
    """Append-only, seq-numbered event store for one session.

    Thread model: one writer (appends are serialized by an internal
    lock; the service fans out under its subscriber lock anyway) and
    any number of concurrent readers.  The active segment is flushed
    after every append so readers — which open their own file handles
    — always see every published record.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "rotate",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retention_bytes: int | None = None,
        retention_age_s: float | None = None,
    ):
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = int(segment_bytes)
        self.retention_bytes = retention_bytes
        self.retention_age_s = retention_age_s
        self._lock = threading.Lock()
        self._sealed: list[_Segment] = []
        self._active: _Segment | None = None
        #: Segments retention dropped when the ledger was opened whose
        #: files are still on disk; the next compaction unlinks them.
        self._expired: list[_Segment] = []
        #: Opened lazily on first append, so read-only uses (listing,
        #: replay) never write to the directory.
        self._fh: io.BufferedWriter | None = None
        self._closed = False
        self.next_seq = 0
        #: Count of ``epoch`` records ever appended (survives reopen and
        #: retention) — the epoch a rebuild of this session must reach.
        self.epoch_count = 0
        #: ``{"seq", "changes", "epochs_run"}`` of every ``reconfigured``
        #: record ever appended: what a rebuild re-applies.
        self._reconfigured: list[dict] = []
        self._recover()

    # ----------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Rebuild in-memory state from disk, writing nothing."""
        summary = self._load_summary()
        through_seq = summary["through_seq"]
        self.epoch_count = summary["epochs"]
        self._reconfigured = summary["reconfigured"]
        chain = []
        for path in self.directory.glob("seg-*.jsonl"):
            try:
                chain.append((int(path.stem.split("-", 1)[1]), path))
            except (IndexError, ValueError):
                continue
        chain.sort()
        for i, (first_seq, path) in enumerate(chain):
            last = i == len(chain) - 1
            if first_seq < through_seq:
                # Covered by the summary: nothing in it needs decoding.
                end_seq = through_seq if last else chain[i + 1][0]
                try:
                    nbytes = path.stat().st_size
                except FileNotFoundError:  # compacted since the glob
                    continue
                self._sealed.append(
                    _Segment(path, first_seq, end_seq - first_seq, nbytes)
                )
            elif last:
                self._active = self._scan(path, first_seq)
            else:
                seg = self._scan(path, first_seq)
                seg.offsets = None
                self._sealed.append(seg)
        if self._active is None:
            self._active = _Segment(
                self.directory / _segment_name(through_seq), through_seq, offsets=[]
            )
        self.next_seq = self._active.end_seq
        self._expired = self._expire()

    def _scan(self, path: Path, first_seq: int) -> _Segment:
        """Decode a segment the summary does not cover, counting its
        epochs and reconfigures; the records end at the first torn or
        misnumbered line."""
        nbytes = 0
        offsets: list[int] = []
        with open(path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break
                if record.get("seq") != first_seq + len(offsets):
                    break
                offsets.append(nbytes)
                nbytes += len(line)
                if record.get("event") == "epoch":
                    self.epoch_count += 1
                elif record.get("event") == "reconfigured":
                    self._reconfigured.append(
                        {"seq": record["seq"], **record["data"]}
                    )
        return _Segment(path, first_seq, len(offsets), nbytes, offsets)

    def _load_summary(self) -> dict:
        """Read ``carried.json``; absent means no segment ever sealed."""
        try:
            summary = json.loads((self.directory / _SUMMARY_NAME).read_text())
            return {
                "epochs": int(summary["epochs"]),
                "reconfigured": list(summary["reconfigured"]),
                "through_seq": int(summary["through_seq"]),
            }
        except (OSError, ValueError, KeyError, TypeError):
            return {"epochs": 0, "reconfigured": [], "through_seq": 0}

    def _write_summary(self) -> None:
        """Cover every record appended so far (lock held, between batches)."""
        blob = json.dumps(
            {
                "epochs": self.epoch_count,
                "reconfigured": self._reconfigured,
                "through_seq": self.next_seq,
            },
            separators=(",", ":"),
        ).encode()
        atomic_write_bytes(
            self.directory / _SUMMARY_NAME, blob, durable=self.fsync != "never"
        )

    # ------------------------------------------------------------ sidecars

    @staticmethod
    def _sidecar_path(path: Path) -> Path:
        return path.with_suffix(".idx")

    def _load_offsets(self, seg: _Segment) -> list[int] | None:
        """``seg``'s record offsets, or None when the ``.idx`` is
        absent or does not match the segment (a miss)."""
        try:
            index = json.loads(self._sidecar_path(seg.path).read_text())
            offsets = index["offsets"]
            if isinstance(offsets, list) and len(offsets) == seg.count:
                return offsets
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return None

    def _write_sidecar(self, seg: _Segment) -> None:
        blob = json.dumps({"offsets": seg.offsets}, separators=(",", ":")).encode()
        atomic_write_bytes(
            self._sidecar_path(seg.path), blob, durable=self.fsync != "never"
        )

    # ------------------------------------------------------------- writing

    def append_many(self, items) -> int:
        """Durably append a batch of ``(event, payload_bytes)`` records.

        The whole batch shares one timestamp, one ``write()``, one
        flush, and — under the ``always`` policy — one fsync at the
        batch boundary, amortizing the per-record overheads the
        telemetry hot path used to pay per subscriber frame.  Returns
        the seq assigned to the first record of the batch (``next_seq``
        for an empty batch).
        """
        items = list(items)
        with self._lock:
            if self._closed:
                raise ValueError("ledger is closed")
            if not items:
                return self.next_seq
            if self._fh is None:
                self._fh = open(self._active.path, "ab")
                if self._fh.tell() > self._active.nbytes:
                    # A crash tore the tail: drop it before appending.
                    self._fh.truncate(self._active.nbytes)
            unix = json.dumps(time.time()).encode("ascii")
            first_seq = self.next_seq
            lines = []
            offsets = self._active.offsets
            offset = self._active.nbytes
            nbytes = 0
            for event, payload in items:
                line = b"".join(
                    (
                        b'{"seq":',
                        str(self.next_seq).encode("ascii"),
                        b',"event":',
                        json.dumps(event).encode("utf-8"),
                        b',"data":',
                        payload,
                        b',"unix":',
                        unix,
                        b"}\n",
                    )
                )
                lines.append(line)
                offsets.append(offset + nbytes)
                nbytes += len(line)
                self.next_seq += 1
                if event == "epoch":
                    self.epoch_count += 1
                elif event == "reconfigured":
                    self._reconfigured.append(
                        {"seq": self.next_seq - 1, **json.loads(payload)}
                    )
            self._fh.write(b"".join(lines))
            # Flush unconditionally so same-process readers (the replay
            # path) see the records; fsync is the configurable part.
            self._fh.flush()
            if self.fsync == "always":
                self._fsync_active()
            self._active.count += len(items)
            self._active.nbytes += nbytes
            if self._active.nbytes >= self.segment_bytes:
                self._rotate()
        registry = _registry()
        registry.counter(
            "repro_ledger_appends_total", "Records appended to session ledgers"
        ).inc(len(items))
        registry.counter(
            "repro_ledger_bytes_total", "Bytes appended to session ledgers"
        ).inc(nbytes)
        return first_seq

    def _fsync_active(self) -> None:
        t0 = time.perf_counter()
        os.fsync(self._fh.fileno())
        _registry().histogram(
            "repro_ledger_fsync_seconds", "Latency of ledger fsync calls"
        ).observe(time.perf_counter() - t0)

    def _rotate(self) -> None:
        """Seal the active segment and open a fresh one (lock held).

        The order is what a reopen relies on: the segment is durable
        before its ``.idx``, and both before the summary covers it.
        """
        seg = self._active
        if self.fsync != "never":
            self._fsync_active()
        self._fh.close()
        self._write_sidecar(seg)
        seg.offsets = None
        self._sealed.append(seg)
        self._write_summary()
        self._active = _Segment(
            self.directory / _segment_name(self.next_seq), self.next_seq, offsets=[]
        )
        self._fh = open(self._active.path, "ab")
        if self.fsync != "never":
            fsync_dir(self.directory)
        self._compact_locked()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fh is None:
                return
            if self.fsync != "never" and self._active.count:
                self._fsync_active()
            self._fh.close()
            self._fh = None

    # ----------------------------------------------------------- retention

    def compact(self) -> int:
        """Apply the retention policy now; returns segments removed."""
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        dropped = self._expired + self._expire()
        self._expired = []
        for seg in dropped:  # oldest first: what is left stays a chain
            seg.path.unlink(missing_ok=True)
            self._sidecar_path(seg.path).unlink(missing_ok=True)
        return len(dropped)

    def _expire(self) -> list[_Segment]:
        """Pop the oldest sealed segments the retention policy drops."""
        if self.retention_bytes is None and self.retention_age_s is None:
            return []
        now = time.time()
        total = sum(s.nbytes for s in self._sealed)
        n = 0
        for seg in self._sealed:
            over_size = (
                self.retention_bytes is not None
                and total > self.retention_bytes
            )
            too_old = False
            if self.retention_age_s is not None:
                try:
                    too_old = (
                        now - seg.path.stat().st_mtime > self.retention_age_s
                    )
                except OSError:
                    too_old = True
            if not over_size and not too_old:
                break
            total -= seg.nbytes
            n += 1
        dropped = self._sealed[:n]
        del self._sealed[:n]
        return dropped

    # ------------------------------------------------------------- reading

    @property
    def reconfigured(self) -> list[dict]:
        """Every ``reconfigured`` record of the session's life, oldest
        first, as ``{"seq", "changes", "epochs_run"}`` — kept beside the
        records (and past their retention), so reading it scans nothing."""
        with self._lock:
            return list(self._reconfigured)

    @property
    def first_seq(self) -> int:
        """Oldest seq still on disk (retention may have dropped earlier)."""
        with self._lock:
            if self._sealed:
                return self._sealed[0].first_seq
            return self._active.first_seq

    def __len__(self) -> int:
        with self._lock:
            return self.next_seq - (
                self._sealed[0].first_seq
                if self._sealed
                else self._active.first_seq
            )

    def _iter_segment_lines(self, seg: _Segment, from_seq: int):
        """Yield ``seg``'s raw record lines starting at ``from_seq``."""
        start = max(from_seq - seg.first_seq, 0)
        if start >= seg.count:
            return
        offset = 0
        if start:
            offsets = self._load_offsets(seg)
            if offsets is not None:
                offset = offsets[start]
        try:
            with open(seg.path, "rb") as fh:
                if offset:
                    fh.seek(offset)
                    skip = 0
                else:
                    skip = start
                for _ in range(skip):
                    fh.readline()
                for _ in range(seg.count - start):
                    line = fh.readline()
                    if not line.endswith(b"\n"):
                        return
                    yield line
        except OSError:
            return

    def _iter_segment(self, seg: _Segment, from_seq: int, end_seq=None):
        """Yield ``seg``'s records with ``from_seq <= seq < end_seq``."""
        for line in self._iter_segment_lines(seg, from_seq):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return
            if end_seq is not None and record["seq"] >= end_seq:
                return
            yield record

    def _snapshot_segments(self, from_seq: int) -> list[_Segment]:
        """Consistent segment list (active copied) covering ``from_seq``."""
        with self._lock:
            segments = list(self._sealed)
            segments.append(
                _Segment(
                    self._active.path,
                    self._active.first_seq,
                    self._active.count,
                    self._active.nbytes,
                )
            )
        firsts = [seg.first_seq for seg in segments]
        start = max(bisect.bisect_right(firsts, from_seq) - 1, 0)
        return segments[start:]

    def read(self, from_seq: int = 0, end_seq: int | None = None):
        """Yield records with ``from_seq <= seq < end_seq``, in order.

        Safe against a concurrent writer: the segment list and record
        counts are snapshotted under the lock, so the iteration sees a
        consistent prefix of the ledger (records appended afterwards
        are simply not part of this read).
        """
        for seg in self._snapshot_segments(from_seq):
            if end_seq is not None and seg.first_seq >= end_seq:
                return
            yield from self._iter_segment(seg, from_seq, end_seq)

    def read_encoded(self, from_seq: int = 0, end_seq: int | None = None):
        """Yield ``(seq, event, payload_bytes)`` without decoding payloads.

        The replay hot path: payload bytes are sliced straight out of
        the record line (see :func:`_split_record`) and spliced into
        subscriber frames, so replaying N records costs zero JSON
        encodes of the payload.  Lines that don't match the canonical
        record shape fall back to a full decode + re-encode; the same
        snapshot/consistency guarantees as :meth:`read` apply.
        """
        for seg in self._snapshot_segments(from_seq):
            if end_seq is not None and seg.first_seq >= end_seq:
                return
            for line in self._iter_segment_lines(seg, from_seq):
                parsed = _split_record(line)
                if parsed is None:
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        return
                    parsed = (
                        record["seq"],
                        record["event"],
                        _encode_data(record["data"]),
                    )
                if end_seq is not None and parsed[0] >= end_seq:
                    return
                yield parsed

    def stats(self) -> dict:
        with self._lock:
            sealed_bytes = sum(s.nbytes for s in self._sealed)
            return {
                "directory": str(self.directory),
                "segments": len(self._sealed) + 1,
                "bytes": sealed_bytes + self._active.nbytes,
                "first_seq": self._sealed[0].first_seq
                if self._sealed
                else self._active.first_seq,
                "next_seq": self.next_seq,
                "epochs": self.epoch_count,
            }
