"""Content-addressed on-disk cache of recorded runs.

Recording is the expensive half of every offline experiment (one full
machine simulation per workload); evaluation is the cheap half.  The
cache makes recording *amortized*: a run is stored once under a key
derived from everything that determines its content — workload identity
and kwargs, the full :class:`~repro.memsim.machine.MachineConfig` and
:class:`~repro.core.config.TMPConfig`, epoch count, seed, and the
serialization format version — so any configuration change is an
automatic miss and stale entries can never be served.

Entries are the existing :mod:`repro.tiering.serialize` ``.npz``
archives, written atomically (temp file + ``os.replace``) so concurrent
writers and killed processes cannot leave a torn entry under a live
key.  A corrupted entry is treated as a miss: it is deleted and the
caller re-records.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..core.config import TMPConfig
from ..ioutil import atomic_output, canonical
from ..memsim.machine import MachineConfig
from ..obs import metrics as obs_metrics
from ..tiering import serialize as _serialize
from ..tiering.recorded import RecordedRun

__all__ = ["RunCache", "cache_key"]


def _count(outcome: str) -> None:
    obs_metrics.default_registry().counter(
        "repro_cache_lookups_total",
        "Recorded-run cache lookups by outcome",
        labelnames=("outcome",),
    ).inc(outcome=outcome)


def cache_key(spec) -> str:
    """Stable content hash for a :class:`~repro.runner.executor.RecordSpec`.

    ``None`` configs hash as the defaults :func:`~repro.tiering.recorded
    .record_run` would substitute, so ``RecordSpec("gups")`` and
    ``RecordSpec("gups", machine_config=MachineConfig.scaled())`` share
    an entry.  The serializer's format version participates so a format
    bump invalidates every existing entry at once.
    """
    payload = {
        "format_version": _serialize._FORMAT_VERSION,
        "workload": spec.workload,
        "workload_kw": canonical(dict(spec.workload_kw)),
        "machine_config": canonical(spec.machine_config or MachineConfig.scaled()),
        "tmp_config": canonical(spec.tmp_config or TMPConfig()),
        "epochs": spec.epochs,
        "seed": spec.seed,
        "init": spec.init,
        "epoch_slices": spec.epoch_slices,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class RunCache:
    """Directory of ``<sha256>.npz`` recorded-run entries."""

    def __init__(self, root: str | Path, *, include_samples: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.include_samples = include_samples
        self.hits = 0
        self.misses = 0
        self.errors = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> RecordedRun | None:
        """Load an entry, or ``None`` on miss *or* corruption.

        A corrupted/unreadable entry (torn write, wrong format version,
        truncated archive) is deleted so the re-recorded run can take
        its slot — callers never crash on cache state.
        """
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            _count("miss")
            return None
        try:
            run = _serialize.load_recorded(path)
        except Exception:
            self.errors += 1
            self.misses += 1
            _count("error")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        _count("hit")
        return run

    def put(self, key: str, recorded: RecordedRun) -> Path:
        """Atomically store ``recorded`` under ``key``."""
        path = self.path_for(key)
        with atomic_output(path) as tmp:
            _serialize.save_recorded(
                recorded, tmp, include_samples=self.include_samples
            )
        return path

    def stats(self) -> dict:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "entries": sum(1 for _ in self.root.glob("*.npz")),
        }
