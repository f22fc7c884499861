"""Shared file and JSON primitives: atomic writes, one JSON coercion,
one canonical form.

Both on-disk subsystems — the content-addressed recorded-run cache
(:mod:`repro.runner.cache`) and the event-sourced telemetry ledger
(:mod:`repro.ledger`) — need the same discipline: a file must either
appear complete under its final name or not appear at all, regardless
of concurrent writers or a process killed mid-write.  The recipe is
the classic one (write to a same-directory temp file, flush+fsync,
``os.replace``), and it lives here exactly once so both subsystems
stay tested against the same implementation.

Readers complete the contract with *corruption-is-a-miss*: anything
that fails to parse under its final name is treated as absent (and
usually deleted), never as an error surfaced to the caller.

The same two subsystems hash what they store and the service encodes
what they persist, so the numpy coercion every ``json.dumps`` uses
(:func:`json_default`) and the canonical form every content hash is
taken over (:func:`canonical`) live here too, once each.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from pathlib import Path

__all__ = [
    "atomic_output",
    "atomic_write_bytes",
    "canonical",
    "fsync_dir",
    "fsync_file",
    "json_default",
]


def json_default(obj):
    """``json.dumps(default=)``: numpy scalars/arrays become vanilla JSON."""
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def canonical(obj):
    """Reduce ``obj`` to a deterministic JSON-encodable form.

    The shared input of every content hash (:func:`repro.runner.cache
    .cache_key`, :func:`repro.ledger.config_key`): dataclasses become
    field dicts, dict keys are stringified and sorted, tuples become
    lists, numpy scalars/arrays become Python values.  Anything else
    raises ``TypeError`` — a ``repr()`` fallback would embed memory
    addresses, hash differently in every process and leave a cache
    that silently never hits.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):  # numpy scalars/arrays
        return tolist()
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cannot build a stable cache key or ledger config key from "
        f"{type(obj).__name__!s}: values must be JSON-like "
        "(None/str/int/float/bool), numpy scalars/arrays, dataclasses, "
        "or containers of those"
    )


def fsync_file(path: str | Path) -> None:
    """fsync an existing file by path (open read-only, sync, close)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a rename/create inside it is durable.

    Silently skipped on platforms that refuse to open directories
    (Windows) — the rename itself is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_output(path: str | Path, *, durable: bool = False):
    """Yield a same-directory temp path that becomes ``path`` on success.

    The caller writes the temp file however it likes (binary, text,
    ``np.savez`` …).  On normal exit the temp file is atomically
    renamed over ``path``; on exception it is removed and ``path`` is
    untouched.  ``durable=True`` additionally fsyncs the temp file
    before the rename and the parent directory after it, so the
    replacement survives power loss, not just process death.

    The temp name keeps ``path``'s suffix (``.<stem>.<pid>.tmp<suffix>``)
    so suffix-sniffing writers like ``np.savez`` don't append their own.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp{path.suffix}")
    try:
        yield tmp
        if durable and tmp.exists():
            fsync_file(tmp)
        os.replace(tmp, path)
        if durable:
            fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_bytes(
    path: str | Path, data: bytes, *, durable: bool = False
) -> Path:
    """Atomically publish ``data`` as the complete contents of ``path``."""
    path = Path(path)
    with atomic_output(path, durable=durable) as tmp:
        tmp.write_bytes(data)
    return path
