"""Rebuild cost against session age: snapshot restore vs full replay.

A session of the e2e ``svc_*`` shape (``gups``, 256 pages, 1 000
accesses per epoch, one ``reconfigure`` in its history) is stepped to
each age, evicted to disk and rebuilt, with no socket in the way: a
``SessionManager`` over a tmp ``Ledger``, in-process and behind a
``WorkerPool(1)``.  Per backend and age it prints

* ``snapshot_bytes`` / ``evict_ms`` — what the eviction wrote, and how
  long the whole eviction (snapshot included) took;
* ``ledger_open_ms`` — reopening the session's ledger after the
  eviction closed it, the first step of every rebuild;
* ``resume_ms`` — ``resume`` restoring that snapshot (0 epochs replayed);
* ``recover_ms`` (pool) — one more epoch, SIGKILL the worker, crash
  recovery from the same snapshot (1 epoch replayed);
* ``replay_ms`` — ``resume`` with the snapshot deleted: the fallback,
  which is what every rebuild cost before snapshots existed.

    PYTHONPATH=src python benchmarks/rebuild_age.py
    PYTHONPATH=src python benchmarks/rebuild_age.py --ages 100,1000 --backends inproc

docs/performance.md ("A rebuild costs what the state costs") holds the
numbers measured with it.  The 10 000-epoch rows step ~20 s each.
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import tempfile
import time

from repro.ledger import Ledger
from repro.service.manager import SessionManager
from repro.service.session import ProfilingSession
from repro.service.workers import WorkerPool

PARAMS = {
    "workload": "gups",
    "seed": 0,
    "workload_kwargs": {"footprint_pages": 256, "accesses_per_epoch": 1000},
}
IDLE_TTL_S = 10.0


def _ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def measure(backend: str, age: int, directory: str) -> dict:
    now = [0.0]
    crashes: queue.Queue = queue.Queue()
    pool = None
    factory = ProfilingSession
    if backend == "pool":
        pool = WorkerPool(1, on_session_crash=lambda ids, message: crashes.put(ids))
        factory = pool.session_factory
    manager = SessionManager(
        idle_ttl_s=IDLE_TTL_S,
        clock=lambda: now[0],
        session_factory=factory,
        ledger=Ledger(directory),
        evict_to_disk=True,
    )

    def evict():
        now[0] += IDLE_TTL_S + 1
        assert manager.evict_idle() == [sid]

    try:
        session = manager.create(**PARAMS)
        sid = session.session_id
        session.step(5)
        session.reconfigure({"trace_sample_period": 8})
        session.step(age - 5)
        row = {"backend": backend, "age": age}
        row["evict_ms"] = _ms(evict)
        snapshot = manager.ledger.snapshot_path(sid)
        row["snapshot_bytes"] = snapshot.stat().st_size
        row["ledger_open_ms"] = _ms(lambda: manager.ledger.open_session(sid).close())
        row["resume_ms"] = _ms(lambda: manager.resume(sid))
        if pool is not None:
            session = manager.get(sid)
            session.step(1)
            worker = session.worker
            os.kill(worker.process.pid, signal.SIGKILL)
            assert crashes.get(timeout=30) == [sid]
            while worker.generation == 0 or not worker.process.is_alive():
                time.sleep(0.01)
            worker.request("ping", timeout_s=30)  # the respawn's imports
            row["recover_ms"] = _ms(lambda: manager.recover(sid))
            assert manager.get(sid).crashed is None
        evict()
        snapshot.unlink()
        row["replay_ms"] = _ms(lambda: manager.resume(sid))
        assert manager.get(sid).info()["epochs_run"] == age + (pool is not None)
        return row
    finally:
        manager.close_all()
        if pool is not None:
            pool.shutdown()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ages", default="100,1000,10000")
    parser.add_argument("--backends", default="inproc,pool")
    args = parser.parse_args()
    columns = (
        "backend", "age", "snapshot_bytes", "evict_ms", "ledger_open_ms",
        "resume_ms", "recover_ms", "replay_ms",
    )
    print(" ".join(f"{c:>14}" for c in columns))
    for backend in args.backends.split(","):
        for age in map(int, args.ages.split(",")):
            with tempfile.TemporaryDirectory() as directory:
                row = measure(backend, age, directory)
            print(
                " ".join(
                    f"{row[c]:>14.1f}" if isinstance(row.get(c), float)
                    else f"{row.get(c, '-'):>14}"
                    for c in columns
                ),
                flush=True,
            )


if __name__ == "__main__":
    main()
