"""repro.ledger — the durable event-sourced telemetry ledger.

The service streams per-epoch telemetry only to live subscribers: a
frame that misses every queue is gone, and a session that dies with
its worker loses its whole history.  This subsystem makes the frame
stream *durable*: every fan-out appends one seq-numbered record to an
append-only, segmented-JSONL ledger on disk, so

* a reconnecting subscriber can ``subscribe(from_seq=N)`` and replay
  every missed frame before switching to the live tail,
* a ``worker_crashed`` session can be re-materialized from its
  recorded config plus the ledger's epoch count (the simulator is
  deterministic, so the catch-up run is bit-identical), and
* offline analysis (``repro ledger list/cat/replay``) can rebuild a
  full :class:`~repro.tiering.simulator.SimulationResult` from disk
  long after the server exited.

Layering:

``storage``
    :class:`SessionLedger` — one session's append-only segment chain:
    one record shape, rotation, fsync policy, seek-by-seq, torn-tail
    recovery, size/age retention.
``ledger``
    :class:`Ledger` — the root directory of session ledgers plus
    content-addressed config provenance (:func:`config_key`).
``snapshot``
    The checked envelope (:func:`write_snapshot` / :func:`read_snapshot`)
    around the state a checkpointed session leaves beside its marker,
    so a rebuild replays the tail since the snapshot, not the whole life.
``replay``
    Records → :class:`SimulationResult` / epoch dicts for offline use.

Durability reuses :mod:`repro.ioutil` (the same write-temp/fsync/
rename discipline as the recorded-run cache) and the reader side
treats anything unparseable as absent, never as an error.
"""

from .ledger import Ledger, config_key
from .replay import iter_epoch_dicts, replay_result
from .snapshot import SnapshotError, read_snapshot, write_snapshot
from .storage import LEDGER_FORMAT_VERSION, SessionLedger

__all__ = [
    "LEDGER_FORMAT_VERSION",
    "Ledger",
    "SessionLedger",
    "SnapshotError",
    "config_key",
    "iter_epoch_dicts",
    "read_snapshot",
    "replay_result",
    "write_snapshot",
]
