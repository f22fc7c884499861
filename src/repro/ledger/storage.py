"""One session's append-only segment chain.

A :class:`SessionLedger` owns a directory of JSONL segment files::

    meta.json                    # recorded config + provenance key
    seg-0000000000.jsonl         # records seq 0..k-1   (sealed)
    seg-0000000000.idx           # byte offsets sidecar  (sealed)
    seg-0000000137.jsonl         # the active tail segment
    carried.json                 # what retention dropped, carried forward

Each record is one JSON line ``{"seq": n, "event": "...", "data":
{...}, "unix": t}``.  Segments are named by the first seq they hold,
so seek-by-seq is a bisect over the sorted segment list (O(log n))
followed by an O(1) offset lookup in the sealed segment's ``.idx``
sidecar; only the bounded active segment is ever scanned linearly.

Durability follows the recorded-run cache's discipline via
:mod:`repro.ioutil`: sidecars and meta are written atomically, and a
torn tail (process killed mid-append) is detected on reopen and
truncated away — corruption is a miss, never an error.  The fsync
policy is configurable: ``"rotate"`` (default) syncs a segment once
when it seals, ``"always"`` syncs every append, ``"never"`` leaves
durability to the OS.

Retention is size/age based: :meth:`compact` (called opportunistically
on rotation) unlinks the oldest *sealed* segments while the session
exceeds ``retention_bytes`` or segments are older than
``retention_age_s``; :attr:`first_seq` then reports the oldest record
still replayable so readers can account the gap as drops.  What a
rebuild needs from the dropped records — how many were epochs, and the
``reconfigured`` payloads with their seqs — is carried forward in
``carried.json`` before the unlink, so :attr:`epoch_count` and
:attr:`reconfigured` describe the session's whole life whatever
retention has removed.
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

#: What retention dropped, carried forward (see the module docstring).
_CARRIED_NAME = "carried.json"


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
    """Bookkeeping for one sealed or active segment file.

    ``epochs``, ``reconfigured`` and ``offsets`` are tracked
    incrementally as records append, so sealing a segment writes its
    sidecar from memory instead of re-reading the whole file to
    count/locate records.  Sealed segments recovered from a healthy
    sidecar keep ``offsets`` empty — the on-disk index already holds
    them.
    """

    def __init__(
        self,
        path: Path,
        first_seq: int,
        count: int,
        nbytes: int,
        epochs: int = 0,
        offsets: list[int] | None = None,
        reconfigured: list[dict] | None = None,
    ):
        self.path = path
        self.first_seq = first_seq
        self.count = count
        self.nbytes = nbytes
        self.epochs = epochs
        self.offsets: list[int] = [] if offsets is None else offsets
        #: ``{"seq", "changes", "epochs_run"}`` of each ``reconfigured``
        #: record held: what a rebuild re-applies (see ``carried.json``).
        self.reconfigured: list[dict] = [] if reconfigured is None else reconfigured

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
        #: Opened lazily on first append, so read-only uses (listing,
        #: replay) never touch the filesystem beyond recovery scans.
        self._fh: io.BufferedWriter | None = None
        self._closed = False
        self.next_seq = 0
        #: Count of ``epoch`` records ever appended (survives reopen and
        #: retention) — the epoch a rebuild of this session must reach.
        self.epoch_count = 0
        #: What retention has dropped so far: ``epochs`` records that
        #: were epochs, their ``reconfigured`` payloads, and
        #: ``through_seq``, one past the last seq dropped.
        self._carried = {"epochs": 0, "reconfigured": [], "through_seq": 0}
        self._recover()

    # ----------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Rebuild in-memory state from disk, truncating any torn tail."""
        self._load_carried()
        self.epoch_count = self._carried["epochs"]
        paths = []
        for path in sorted(self.directory.glob("seg-*.jsonl")):
            try:
                first_seq = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if first_seq < self._carried["through_seq"]:
                # Carried forward, then the process died before the
                # unlink: finish the compaction instead of counting the
                # segment's records twice.
                self._unlink_segment(path)
                continue
            paths.append((path, first_seq))
        for i, (path, first_seq) in enumerate(paths):
            sidecar = self._load_sidecar(path, first_seq)
            if sidecar is not None and i < len(paths) - 1:
                # Sealed segment with a healthy index: trust it.
                seg = _Segment(
                    path,
                    first_seq,
                    sidecar["count"],
                    sidecar["bytes"],
                    epochs=sidecar["epochs"],
                    reconfigured=sidecar["reconfigured"],
                )
                self._sealed.append(seg)
                self.epoch_count += seg.epochs
                self.next_seq = seg.end_seq
                continue
            # Tail segment (or sealed one missing its sidecar): scan it
            # line by line and truncate at the first torn/misnumbered
            # record — everything before the tear is still good.
            good_bytes = 0
            count = 0
            epochs = 0
            offsets: list[int] = []
            reconfigured: list[dict] = []
            with open(path, "rb") as fh:
                for line in fh:
                    if not line.endswith(b"\n"):
                        break
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        break
                    if record.get("seq") != first_seq + count:
                        break
                    offsets.append(good_bytes)
                    good_bytes += len(line)
                    count += 1
                    if record.get("event") == "epoch":
                        epochs += 1
                    elif record.get("event") == "reconfigured":
                        reconfigured.append(
                            {"seq": record["seq"], **record["data"]}
                        )
            if good_bytes < path.stat().st_size:
                with open(path, "rb+") as fh:
                    fh.truncate(good_bytes)
            seg = _Segment(
                path,
                first_seq,
                count,
                good_bytes,
                epochs=epochs,
                offsets=offsets,
                reconfigured=reconfigured,
            )
            self.epoch_count += epochs
            self.next_seq = seg.end_seq
            if i < len(paths) - 1:
                # An interior segment without an index: reseal it so
                # later seeks stay O(1).
                self._write_sidecar(seg)
                self._sealed.append(seg)
            else:
                self._active = seg
        if self._active is None:
            self._active = _Segment(
                self.directory / _segment_name(self.next_seq),
                self.next_seq,
                0,
                0,
            )

    # ------------------------------------------------------------ sidecars

    @staticmethod
    def _sidecar_path(path: Path) -> Path:
        return path.with_suffix(".idx")

    def _load_sidecar(self, path: Path, first_seq: int) -> dict | None:
        """The segment's index, or None when absent/corrupt (a miss)."""
        sidecar = self._sidecar_path(path)
        try:
            index = json.loads(sidecar.read_text())
            if (
                index["first_seq"] == first_seq
                and len(index["offsets"]) == index["count"]
                # Sealed before segments recorded these: rescan it.
                and isinstance(index["epochs"], int)
                and isinstance(index["reconfigured"], list)
            ):
                return index
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return None

    def _write_sidecar(self, seg: _Segment) -> None:
        """Seal ``seg``'s index from its in-memory bookkeeping.

        Counts and offsets are tracked incrementally on every append
        (and rebuilt by the recovery scan), so sealing never re-reads
        the segment file.
        """
        blob = json.dumps(
            {
                "first_seq": seg.first_seq,
                "count": seg.count,
                "bytes": seg.nbytes,
                "epochs": seg.epochs,
                "reconfigured": seg.reconfigured,
                "offsets": seg.offsets,
            },
            separators=(",", ":"),
        ).encode()
        atomic_write_bytes(
            self._sidecar_path(seg.path), blob, durable=self.fsync != "never"
        )

    # ------------------------------------------------------------- writing

    def append(self, event: str, data: dict) -> int:
        """Durably append one record; returns the seq it was assigned."""
        return self.append_many(((event, _encode_data(data)),))

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
            unix = json.dumps(time.time()).encode("ascii")
            first_seq = self.next_seq
            lines = []
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
                self._active.offsets.append(offset + nbytes)
                nbytes += len(line)
                self.next_seq += 1
                if event == "epoch":
                    self.epoch_count += 1
                    self._active.epochs += 1
                elif event == "reconfigured":
                    self._active.reconfigured.append(
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
        """Seal the active segment and open a fresh one (lock held)."""
        seg = self._active
        if self.fsync != "never":
            self._fsync_active()
        self._fh.close()
        self._write_sidecar(seg)
        self._sealed.append(seg)
        self._active = _Segment(
            self.directory / _segment_name(self.next_seq),
            self.next_seq,
            0,
            0,
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
        if self.retention_bytes is None and self.retention_age_s is None:
            return 0
        removed = 0
        now = time.time()
        total = sum(s.nbytes for s in self._sealed) + self._active.nbytes
        while self._sealed:
            seg = self._sealed[0]
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
            self._sealed.pop(0)
            total -= seg.nbytes
            # Carried forward durably *before* the unlink: a crash
            # between the two leaves a segment :meth:`_recover` drops.
            carried = self._carried
            carried["epochs"] += seg.epochs
            carried["reconfigured"] += seg.reconfigured
            carried["through_seq"] = seg.end_seq
            atomic_write_bytes(
                self.directory / _CARRIED_NAME,
                json.dumps(carried, separators=(",", ":")).encode(),
                durable=self.fsync != "never",
            )
            self._unlink_segment(seg.path)
            removed += 1
        return removed

    def _unlink_segment(self, path: Path) -> None:
        path.unlink(missing_ok=True)
        self._sidecar_path(path).unlink(missing_ok=True)

    def _load_carried(self) -> None:
        """Read ``carried.json``; absent means nothing was ever dropped."""
        try:
            carried = json.loads((self.directory / _CARRIED_NAME).read_text())
            self._carried = {
                "epochs": int(carried["epochs"]),
                "reconfigured": list(carried["reconfigured"]),
                "through_seq": int(carried["through_seq"]),
            }
        except (OSError, ValueError, KeyError, TypeError):
            pass

    # ------------------------------------------------------------- reading

    @property
    def reconfigured(self) -> list[dict]:
        """Every ``reconfigured`` record of the session's life, oldest
        first, as ``{"seq", "changes", "epochs_run"}`` — kept beside the
        records (and past their retention), so reading it scans nothing."""
        with self._lock:
            out = list(self._carried["reconfigured"])
            for seg in (*self._sealed, self._active):
                out += seg.reconfigured
            return out

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
            sidecar = self._load_sidecar(seg.path, seg.first_seq)
            if sidecar is not None:
                offset = sidecar["offsets"][start]
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
