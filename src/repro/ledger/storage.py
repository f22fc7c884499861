"""One session's append-only segment chain.

A :class:`SessionLedger` owns a directory of JSONL segment files::

    meta.json                    # recorded config + provenance key
    seg-0000000000.jsonl         # records seq 0..136       (sealed)
    seg-0000000137.jsonl         # the active tail segment
    carried.json                 # summary of every record below through_seq

Each record is one JSON line ``{"seq":n,"event":"...","data":{...}}``
and nothing else, so a segment's bytes are a function of its records
(wall time lives in the lifecycle payloads, ``meta.json`` and
``checkpoint.json``).  Segments are named by the first seq they hold,
so seek-by-seq is a bisect over the sorted segment list, then skipping
lines within one segment.  Lines written when records still carried a
stamp end ``,"unix":t}``; they read the same, and the ``.idx`` offset
files that writer left beside sealed segments are ignored, and
unlinked with their segment by compaction.

``carried.json`` is the ledger's one summary, ``{"epochs",
"reconfigured", "through_seq"}``: how many records below
``through_seq`` are epochs, and every ``reconfigured`` payload among
them with its seq — what a rebuild needs.  Sealing a segment fsyncs
it, then atomically rewrites the summary to cover it.  Closing a
ledger that appended fsyncs the active segment and rewrites the
summary to cover it as well, adding ``"through_bytes"``: how far into
the active segment the summary reaches.  The segment stays active — a
close starts no new one.  Without ``through_bytes`` the last covered
segment ends at ``through_seq``.  So
:attr:`~SessionLedger.epoch_count` and
:attr:`~SessionLedger.reconfigured` describe the session's whole life
whatever retention has removed.

Opening a ledger reads the summary, takes a covered segment's record
count from the next segment's first seq (or the summary) and its size
from ``stat`` (or ``through_bytes``), and reads only what the summary
does not cover: bytes past ``through_bytes`` and segments at or past
``through_seq``, which exist only after a crash.  A cleanly closed
ledger therefore reopens without reading a record.  Every read parses
lines by envelope (:func:`_split_record`, the one parse path); an open
decodes only ``reconfigured`` payloads, and
``repro_ledger_records_decoded_total`` counts the records it read.

Opening a ledger only reads.  A torn tail (process killed mid-append)
or any unparseable line just ends the records a reader sees; the
writer's first :meth:`~SessionLedger.append_many` truncates it before
writing — the one repair, and only the writer makes it.

What a reader trusts: the envelope is checked, the payload is not.
Replay (:meth:`~SessionLedger.read_encoded`) splices payload bytes as
this writer wrote them, the way a resume trusts ``snapshot.bin``: a
torn or unparseable envelope ends the records, but a payload edited by
hand into something that is not JSON is not detected, and a replayed
frame carries it.  Checking would cost one ``json.loads`` per record —
about 13 µs for a 335-byte epoch payload on a 2-vCPU Xeon, against
12 µs for the envelope split and frame splice together, so twice the
replay CPU per frame.  :meth:`~SessionLedger.read` decodes every
payload and stops at one that does not parse.  The summary
and meta are written atomically via :mod:`repro.ioutil`.  The fsync
policy is configurable: ``"rotate"`` (default) syncs a segment once
when it seals or the ledger closes, ``"always"`` syncs every append,
``"never"`` leaves durability to the OS.

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
import itertools
import json
import os
import threading
import time
from pathlib import Path

from ..ioutil import atomic_write_bytes, fsync_dir
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


def _segment_name(first_seq: int) -> str:
    return f"seg-{first_seq:010d}.jsonl"


def _split_record(line: bytes):
    """Parse one record line's envelope without decoding the payload.

    :meth:`SessionLedger.append_many` writes every record in one shape,
    ``{"seq":N,"event":E,"data":P}``, so the payload is the bytes from
    the ``"data":`` marker to the closing brace.  A line written when
    records still carried a stamp ends ``,"unix":T}``: a number after
    the last ``,"unix":``, which no payload can end with, so each line
    says which shape it has (a resumed session appends new lines after
    old ones).  Returns ``(seq, event, payload_bytes)``, or ``None``
    for a torn or unparseable line, which ends the records.
    """
    try:
        if not (line.startswith(b'{"seq":') and line.endswith(b"}\n")):
            return None
        event_at = line.index(b',"event":', 7)
        seq = int(line[7:event_at])
        data_at = line.index(b',"data":', event_at)
        event = json.loads(line[event_at + 9 : data_at])
        if not isinstance(event, str):
            return None
        end = len(line) - 2
        stamp = line.rfind(b',"unix":', data_at, end)
        if stamp >= 0:
            try:
                float(line[stamp + 8 : end])
                end = stamp
            except ValueError:  # a payload key, not the stamp
                pass
        return seq, event, line[data_at + 8 : end]
    except ValueError:
        return None


class _Segment:
    """One segment file: which seqs it holds and how many bytes."""

    def __init__(self, path: Path, first_seq: int, count: int = 0, nbytes: int = 0):
        self.path = path
        self.first_seq = first_seq
        self.count = count
        self.nbytes = nbytes

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
        through_bytes = summary["through_bytes"]
        #: The seq the summary on disk covers up to; a close that
        #: appended nothing past it writes nothing.
        self._covered_seq = through_seq
        self.epoch_count = summary["epochs"]
        self._reconfigured = summary["reconfigured"]
        chain = []
        for path in self.directory.glob("seg-*.jsonl"):
            try:
                chain.append((int(path.stem.split("-", 1)[1]), path))
            except (IndexError, ValueError):
                continue
        chain.sort()
        decoded = 0
        for i, (first_seq, path) in enumerate(chain):
            last = i == len(chain) - 1
            next_first = None if last else chain[i + 1][0]
            if first_seq < through_seq and (
                through_bytes is None
                or (next_first is not None and next_first <= through_seq)
            ):
                # Sealed and covered: nothing in it needs reading.
                end_seq = through_seq if last else next_first
                try:
                    nbytes = path.stat().st_size
                except FileNotFoundError:  # compacted since the glob
                    continue
                self._sealed.append(
                    _Segment(path, first_seq, end_seq - first_seq, nbytes)
                )
                continue
            if first_seq < through_seq:
                # The segment a close left active, covered up to
                # ``through_bytes``: only a later writer's records,
                # appended before it crashed, lie past that.
                seg = self._scan(path, first_seq, through_seq, through_bytes)
                decoded += seg.end_seq - through_seq
            else:
                seg = self._scan(path, first_seq)
                decoded += seg.count
            if last:
                self._active = seg
            else:
                self._sealed.append(seg)
        if decoded:
            _registry().counter(
                "repro_ledger_records_decoded_total",
                "Records a ledger open read past its summary",
            ).inc(decoded)
        if self._active is None:
            self._active = _Segment(
                self.directory / _segment_name(through_seq), through_seq
            )
        self.next_seq = self._active.end_seq
        self._expired = self._expire()

    def _scan(
        self, path: Path, first_seq: int, seq: int | None = None, offset: int = 0
    ) -> _Segment:
        """Read what the summary does not cover of a segment — from
        byte ``offset``, where record ``seq`` (default ``first_seq``)
        starts — counting its epochs and reconfigures.

        Envelopes only (:func:`_split_record`); of the payloads, only
        ``reconfigured`` ones are decoded.  The records end at the
        first torn, unparseable or misnumbered line.
        """
        expected = first_seq if seq is None else seq
        nbytes = offset
        with open(path, "rb") as fh:
            fh.seek(offset)
            for line in fh:
                record = _split_record(line)
                if record is None or record[0] != expected:
                    break
                _, event, payload = record
                if event == "epoch":
                    self.epoch_count += 1
                elif event == "reconfigured":
                    try:
                        data = json.loads(payload)
                        self._reconfigured.append({"seq": expected, **data})
                    except (ValueError, TypeError):
                        break
                nbytes += len(line)
                expected += 1
        return _Segment(path, first_seq, expected - first_seq, nbytes)

    def _load_summary(self) -> dict:
        """Read ``carried.json``; absent means no segment ever sealed
        and the ledger was never closed after an append."""
        try:
            summary = json.loads((self.directory / _SUMMARY_NAME).read_text())
            through_bytes = summary.get("through_bytes")
            return {
                "epochs": int(summary["epochs"]),
                "reconfigured": list(summary["reconfigured"]),
                "through_seq": int(summary["through_seq"]),
                "through_bytes": None
                if through_bytes is None
                else int(through_bytes),
            }
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return {
                "epochs": 0,
                "reconfigured": [],
                "through_seq": 0,
                "through_bytes": None,
            }

    def _write_summary(self) -> None:
        """Cover every record appended so far (lock held, between
        batches); into the active segment, when it holds any."""
        summary = {
            "epochs": self.epoch_count,
            "reconfigured": self._reconfigured,
            "through_seq": self.next_seq,
        }
        if self._active.count:
            summary["through_bytes"] = self._active.nbytes
        blob = json.dumps(summary, separators=(",", ":")).encode()
        atomic_write_bytes(
            self.directory / _SUMMARY_NAME, blob, durable=self.fsync != "never"
        )
        self._covered_seq = self.next_seq

    # ------------------------------------------------------------- writing

    def append_many(self, items) -> int:
        """Durably append a batch of ``(event, payload_bytes)`` records.

        The whole batch shares one ``write()``, one flush, and — under
        the ``always`` policy — one fsync at the batch boundary,
        amortizing the per-record overheads the telemetry hot path used
        to pay per subscriber frame.  Returns
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
            first_seq = self.next_seq
            lines = []
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
                        b"}\n",
                    )
                )
                lines.append(line)
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
        before the summary covers it, and the summary before the next
        segment's file exists.
        """
        if self.fsync != "never":
            self._fsync_active()
        self._fh.close()
        self._sealed.append(self._active)
        self._active = _Segment(
            self.directory / _segment_name(self.next_seq), self.next_seq
        )
        self._write_summary()
        self._fh = open(self._active.path, "ab")
        if self.fsync != "never":
            fsync_dir(self.directory)
        self._compact_locked()

    def close(self) -> None:
        """Stop appending.  A ledger that appended since its summary was
        last written makes the active segment durable and has the
        summary cover it, so the next open reads no record."""
        with self._lock:
            self._closed = True
            if self._fh is None:
                return
            if self.fsync != "never" and self._active.count:
                self._fsync_active()
            self._fh.close()
            self._fh = None
            if self.next_seq != self._covered_seq:
                self._write_summary()

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
            # An offset file an older writer sealed beside it.
            seg.path.with_suffix(".idx").unlink(missing_ok=True)
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
        try:
            with open(seg.path, "rb") as fh:
                yield from itertools.islice(fh, start, seg.count)
        except OSError:
            return

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
        """Yield records ``{"seq", "event", "data"}`` with ``from_seq <=
        seq < end_seq``, in order: :meth:`read_encoded` with each
        payload decoded."""
        for seq, event, payload in self.read_encoded(from_seq, end_seq):
            try:
                data = json.loads(payload)
            except ValueError:
                return
            yield {"seq": seq, "event": event, "data": data}

    def read_encoded(self, from_seq: int = 0, end_seq: int | None = None):
        """Yield ``(seq, event, payload_bytes)`` with ``from_seq <= seq <
        end_seq``, in order, without decoding payloads.

        The replay hot path: payload bytes are sliced straight out of
        the record line (see :func:`_split_record`) and spliced into
        subscriber frames, so replaying N records costs zero JSON
        encodes of the payload.  Safe against a concurrent writer: the
        segment list and record counts are snapshotted under the lock,
        so the iteration sees a consistent prefix of the ledger
        (records appended afterwards are simply not part of this read).
        """
        for seg in self._snapshot_segments(from_seq):
            if end_seq is not None and seg.first_seq >= end_seq:
                return
            for line in self._iter_segment_lines(seg, from_seq):
                record = _split_record(line)
                if record is None or (end_seq is not None and record[0] >= end_seq):
                    return
                yield record

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
