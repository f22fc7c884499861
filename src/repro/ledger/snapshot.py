"""The session snapshot file: a checked envelope around opaque bytes.

A checkpointed session's state is written beside its eviction marker
as ``snapshot.bin``: one JSON header line, then the payload.  The
ledger owns the *file* — where it lives, that it appears whole or not
at all (:func:`~repro.ioutil.atomic_write_bytes`), and that a reader
gets the payload back only after the header, the length and the SHA-256
all check out.  What the payload *is* belongs to the writer
(:meth:`repro.service.session.ProfilingSession.snapshot` pickles its
simulator), which is also the only one to decode it.

The header is self-describing — what wrote it (``repro``, ``python``
and ``numpy`` versions), for which session recipe (``config_key``) and
at which moment (``epochs``, ``frame_seq``) — so a reader can refuse a
snapshot from another build, another session or a later epoch than it
wants *before* touching the payload.  Every refusal is a
:class:`SnapshotError` whose ``reason`` is one word for logs and frames;
the caller falls back to replaying from epoch 0.

Trust: the checks catch truncation, bit rot and mix-ups, not an
adversary — whoever can write the ledger directory can write a
matching digest.  The directory is the server's private state
(``docs/service.md``, "Checkpoint & resume").
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from ..ioutil import atomic_write_bytes

__all__ = ["SNAPSHOT_FORMAT", "SnapshotError", "read_snapshot", "write_snapshot"]

#: Bump when the header or the payload's meaning changes.  2: the
#: payload holds no per-epoch history (the ledger does).
SNAPSHOT_FORMAT = 2

#: A header line longer than this is not one of ours.
_MAX_HEADER_BYTES = 4096


class SnapshotError(Exception):
    """A snapshot that cannot be used; ``reason`` says why in one word."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def _environment() -> dict:
    """What must match between the writer and the reader of a payload."""
    # Not at import time: ``repro/__init__`` sets it after its imports.
    from .. import __version__

    return {
        "format": SNAPSHOT_FORMAT,
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_snapshot(
    path: str | Path,
    payload: bytes,
    *,
    config_key: str,
    epochs: int,
    frame_seq: int,
    durable: bool,
) -> dict:
    """Atomically publish ``payload`` under its header; returns the header."""
    header = {
        **_environment(),
        "config_key": config_key,
        "epochs": int(epochs),
        "frame_seq": int(frame_seq),
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    line = json.dumps(header, sort_keys=True).encode() + b"\n"
    atomic_write_bytes(path, line + payload, durable=durable)
    return header


def read_snapshot(
    path: str | Path, *, config_key: str, max_epochs: int
) -> tuple[dict, bytes]:
    """The verified ``(header, payload)`` of the snapshot at ``path``.

    Raises :class:`SnapshotError` unless the file exists, was written
    by this build for the session recipe ``config_key`` at or before
    epoch ``max_epochs``, and holds exactly the bytes its header
    promises.
    """
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise SnapshotError("missing", str(exc)) from exc
    except OSError as exc:
        raise SnapshotError("unreadable", str(exc)) from exc
    line, newline, payload = blob.partition(b"\n")
    expected = _environment()
    try:
        if not newline or len(line) > _MAX_HEADER_BYTES:
            raise ValueError("no header line")
        header = json.loads(line)
        written_by = {key: header[key] for key in expected}
        key, digest = header["config_key"], header["sha256"]
        for field in ("epochs", "frame_seq", "payload_bytes"):
            header[field] = int(header[field])
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotError("corrupt", f"unreadable header ({exc})") from exc
    epochs, nbytes = header["epochs"], header["payload_bytes"]
    if written_by != expected:
        raise SnapshotError("version", f"written by {written_by}, not {expected}")
    if key != config_key:
        raise SnapshotError("config_key", f"snapshot of {key}, not {config_key}")
    if epochs > max_epochs:
        raise SnapshotError("ahead", f"taken at epoch {epochs}, past {max_epochs}")
    if len(payload) < nbytes:
        raise SnapshotError("short", f"{len(payload)} of {nbytes} payload bytes")
    if len(payload) > nbytes or hashlib.sha256(payload).hexdigest() != digest:
        raise SnapshotError("corrupt", "payload does not match its digest")
    return header, payload
