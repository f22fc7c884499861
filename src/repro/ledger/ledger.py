"""The ledger root: a directory of session ledgers plus provenance.

One :class:`Ledger` owns ``<root>/<session_id>/`` directories, each a
:class:`~repro.ledger.storage.SessionLedger` with a ``meta.json``
recording the exact session-creation config and its content-addressed
:func:`config_key` — the same canonical-JSON/SHA-256 discipline as the
recorded-run cache, so provenance survives the server process and a
recovered session can prove it was rebuilt from the right recipe.

Every path below the root is derived here, from a session id that
:meth:`Ledger.session_dir` has validated: ids reach this module from
the wire (``resume_session``), and what lives in a session directory
is trusted state — ``meta.json`` is re-run and ``snapshot.bin`` is
unpickled — so an id must never name anything but one directory
directly under the root.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path

from ..ioutil import atomic_write_bytes, canonical
from .storage import DEFAULT_SEGMENT_BYTES, LEDGER_FORMAT_VERSION, SessionLedger

__all__ = ["Ledger", "config_key"]

#: One path component of the shape the session manager mints (``s12``)
#: or :meth:`Ledger.create_session` archives (``s12.1712345678901``):
#: never empty, ``.``/``..``, absolute, or holding a separator or NUL.
_SESSION_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")


def config_key(config: dict) -> str:
    """Content hash of a session-creation config (provenance key)."""
    payload = {
        "ledger_format": LEDGER_FORMAT_VERSION,
        "config": canonical(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Ledger:
    """Directory of per-session ledgers sharing one durability policy."""

    def __init__(
        self,
        root: str | Path,
        *,
        fsync: str = "rotate",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retention_bytes: int | None = None,
        retention_age_s: float | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = int(segment_bytes)
        self.retention_bytes = retention_bytes
        self.retention_age_s = retention_age_s

    # ------------------------------------------------------------ sessions

    def session_dir(self, session_id: str) -> Path:
        """``<root>/<session_id>``; ``ValueError`` for an id that is
        not a single well-formed path component."""
        if not isinstance(session_id, str) or not _SESSION_ID.fullmatch(session_id):
            raise ValueError(f"invalid session id: {session_id!r}")
        return self.root / session_id

    def _make(self, directory: Path) -> SessionLedger:
        return SessionLedger(
            directory,
            fsync=self.fsync,
            segment_bytes=self.segment_bytes,
            retention_bytes=self.retention_bytes,
            retention_age_s=self.retention_age_s,
        )

    def create_session(
        self, session_id: str, config: dict, info: dict | None = None
    ) -> SessionLedger:
        """Open a *fresh* ledger for ``session_id``, recording its config.

        ``config`` is the exact ``create_session`` params (the recipe a
        recovery re-runs); ``info`` is optional derived context (e.g.
        ``tier1_capacity``) kept for offline replay summaries.

        Session ids restart at ``s1`` across server launches, so a
        leftover directory from a previous run is archived aside
        (``<id>.<stamp>``) rather than appended to — seq numbering
        must stay continuous within exactly one session life.
        """
        directory = self.session_dir(session_id)
        if directory.exists():
            stamp = int(time.time() * 1000)
            directory.rename(directory.with_name(f"{session_id}.{stamp}"))
        directory.mkdir(parents=True)
        meta = {
            "format": LEDGER_FORMAT_VERSION,
            "session": str(session_id),
            "config": canonical(config),
            "config_key": config_key(config),
            "info": canonical(info or {}),
            "created_unix": time.time(),
        }
        atomic_write_bytes(
            directory / "meta.json",
            json.dumps(meta, indent=2, sort_keys=True).encode(),
            durable=self.durable,
        )
        return self._make(directory)

    def open_session(self, session_id: str) -> SessionLedger:
        """Attach to an existing session ledger (recovery/replay path)."""
        directory = self.session_dir(session_id)
        if not directory.is_dir():
            raise FileNotFoundError(f"no ledger for session {session_id!r}")
        return self._make(directory)

    # --------------------------------------------------------- checkpoints

    def checkpoint_path(self, session_id: str) -> Path:
        return self.session_dir(session_id) / "checkpoint.json"

    def write_checkpoint(self, session_id: str, data: dict) -> dict:
        """Persist an idle-eviction checkpoint marker for ``session_id``.

        The marker pins the *moment* of eviction — epoch count, frame
        seq, tenant — and is what makes the session resumable; the
        state itself is in the snapshot written beside it
        (:meth:`snapshot_path`), the recipe in ``meta.json`` and the
        history in the segment chain, either of which can stand in for
        a snapshot that is missing or refused.  Written atomically so a
        crash mid-eviction leaves either no marker (session not
        resumable, nothing lost but the voluntary eviction) or a
        complete one.
        """
        directory = self.session_dir(session_id)
        if not directory.is_dir():
            raise FileNotFoundError(f"no ledger for session {session_id!r}")
        marker = {
            "format": LEDGER_FORMAT_VERSION,
            "session": str(session_id),
            "checkpoint_unix": time.time(),
            **canonical(data),
        }
        atomic_write_bytes(
            self.checkpoint_path(session_id),
            json.dumps(marker, indent=2, sort_keys=True).encode(),
            durable=self.durable,
        )
        return marker

    def load_checkpoint(self, session_id: str) -> dict | None:
        """The eviction checkpoint marker, or None when absent/corrupt."""
        path = self.checkpoint_path(session_id)
        try:
            marker = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(marker, dict) or "session" not in marker:
            return None
        return marker

    def clear_checkpoint(self, session_id: str) -> bool:
        """Drop the marker (the session resumed); True when one existed."""
        try:
            self.checkpoint_path(session_id).unlink()
            return True
        except OSError:
            return False

    # ----------------------------------------------------------- snapshots

    @property
    def durable(self) -> bool:
        """Whether files written beside the segments are fsynced."""
        return self.fsync != "never"

    def snapshot_path(self, session_id: str) -> Path:
        """Where ``session_id``'s state snapshot lives (see
        :mod:`repro.ledger.snapshot` for what the file holds).  It
        outlives :meth:`clear_checkpoint` — a resumed session that
        later loses its worker rebuilds from it — and is replaced by
        the next eviction's."""
        return self.session_dir(session_id) / "snapshot.bin"

    def clear_snapshot(self, session_id: str) -> bool:
        """Drop the snapshot (the session was closed); True when one existed."""
        try:
            self.snapshot_path(session_id).unlink()
            return True
        except OSError:
            return False

    def load_meta(self, session_id: str) -> dict | None:
        """The recorded creation config, or None when absent/corrupt."""
        path = self.session_dir(session_id) / "meta.json"
        try:
            meta = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(meta, dict) or "config" not in meta:
            return None
        return meta

    def _session_dirs(self):
        """``(directory, meta)`` of each session directory under the
        root that holds a readable ``meta.json``, in name order."""
        for directory in sorted(self.root.iterdir()):
            if not directory.is_dir() or not _SESSION_ID.fullmatch(directory.name):
                continue
            meta = self.load_meta(directory.name)
            if meta is not None:
                yield directory, meta

    def count_sessions(self) -> int:
        """How many session ledgers the root holds, opening none."""
        return sum(1 for _ in self._session_dirs())

    def list_sessions(self) -> list[dict]:
        """Every session ledger under the root, with summary stats."""
        out = []
        for directory, meta in self._session_dirs():
            ledger = self._make(directory)
            try:
                stats = ledger.stats()
            finally:
                ledger.close()
            out.append(
                {
                    "session": directory.name,
                    "workload": meta["config"].get("workload"),
                    "config_key": meta.get("config_key"),
                    "created_unix": meta.get("created_unix"),
                    **{
                        k: stats[k]
                        for k in ("segments", "bytes", "first_seq",
                                  "next_seq", "epochs")
                    },
                }
            )
        return out
