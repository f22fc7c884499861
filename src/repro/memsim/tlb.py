"""Translation lookaside buffer model.

The TLB is the pivot of the paper's A-bit mechanics: the hardware
page-table walker only runs — and only sets PTE accessed bits — on TLB
*misses*.  When the A-bit driver clears accessed bits without a
shootdown (the paper's default, §III-B.4), translations still resident
in the TLB keep servicing accesses without walks, so the A bit stays
stale until natural eviction.  Modeling that window requires a TLB whose
state persists across profiler scan intervals, which this class
provides.

Entries are tagged ``(pid, vpn)`` (PID plays the role of the ASID), so
no flush is needed on simulated context switches and per-PID shootdowns
are possible.

Per-CPU privacy is modeled with engine *shards* rather than per-CPU
Python objects: :class:`TLBArray` owns one engine whose set space is
replicated per CPU, so a mixed-CPU batch resolves in a single
vectorized call with no per-CPU loop, while shootdowns broadcast to
every shard exactly as IPI rounds hit every core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .address import ADDR_DTYPE, pow2_floor
from .vecsim import fold_shards, make_engine

__all__ = ["TLBArray", "TLBStats"]

_PID_SHIFT = ADDR_DTYPE(48)
_VPN_MASK = ADDR_DTYPE((1 << 48) - 1)


def _keys(pids: np.ndarray, vpns: np.ndarray) -> np.ndarray:
    """Pack (pid, vpn) pairs into single uint64 tags, vpn in low bits."""
    return (pids.astype(ADDR_DTYPE) << _PID_SHIFT) | (
        vpns.astype(ADDR_DTYPE) & _VPN_MASK
    )


@dataclass
class TLBStats:
    """Cumulative TLB event counters."""

    lookups: int = 0
    hits: int = 0
    shootdowns: int = 0
    entries_invalidated: int = 0
    ipis: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


class TLBArray:
    """Per-CPU private TLBs, as on every real multicore.

    One sharded engine holds every CPU's private set space: lookups
    carry their CPU as the shard index (one vectorized call for a
    mixed-CPU batch), and shootdowns broadcast to every shard (that is
    precisely why they cost IPIs).  Aggregate statistics are summed
    over CPUs, with shootdown rounds counted once (one IPI round
    invalidates on all CPUs).  ``entries`` is per CPU and rounds down
    to a power of two; ``ways`` and ``exact_assoc`` pick the
    lookup engine (see :func:`~repro.memsim.vecsim.make_engine`).
    """

    def __init__(
        self,
        n_cpus: int = 6,
        entries: int = 1536,
        ways: int = 1,
        *,
        exact_assoc: bool = False,
    ):
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        self.n_cpus = n_cpus
        self.entries = pow2_floor(entries)
        self._engine = make_engine(
            self.entries, ways, exact_assoc=exact_assoc, shards=n_cpus
        )
        self.stats = TLBStats()

    def access(
        self,
        pids: np.ndarray,
        vpns: np.ndarray,
        cpus: np.ndarray | None = None,
        *,
        shard: np.ndarray | None = None,
    ) -> np.ndarray:
        """Route each access to its CPU's shard; return the global hit mask.

        ``cpus`` are raw CPU ids and are folded onto the CPUs here.  A
        caller that has folded the batch's CPU column already
        (``Machine.run_batch`` does, once for the TLB and the caches)
        passes it as ``shard`` instead and nothing is re-derived.
        """
        if shard is None and cpus is not None:
            shard = fold_shards(cpus, self.n_cpus)
        keys = _keys(np.asarray(pids), np.asarray(vpns))
        hits = self._engine.access(keys, shard=shard)
        self.stats.lookups += int(keys.size)
        self.stats.hits += int(np.count_nonzero(hits))
        return hits

    def contains(self, pids: np.ndarray, vpns: np.ndarray) -> np.ndarray:
        """True where *any* CPU's TLB holds the translation."""
        return self._engine.contains_any(_keys(np.asarray(pids), np.asarray(vpns)))

    def _account(self, invalidated: int) -> None:
        self.stats.shootdowns += 1
        self.stats.entries_invalidated += invalidated
        self.stats.ipis += self.n_cpus - 1

    def shootdown_all(self) -> None:
        """Flush every CPU's TLB (one IPI round)."""
        n = self._engine.occupancy()
        self._engine.flush()
        self._account(n)

    def shootdown_pid(self, pid: int) -> None:
        """Invalidate one PID's translations on every CPU."""
        p = ADDR_DTYPE(pid)
        n = self._engine.flush_where(lambda tags: (tags >> _PID_SHIFT) == p)
        self._account(n)

    def shootdown_pages(self, pids: np.ndarray, vpns: np.ndarray) -> None:
        """Invalidate specific translations everywhere (one IPI round)."""
        n = self._engine.flush_keys(_keys(np.asarray(pids), np.asarray(vpns)))
        self._account(n)

    def occupancy(self) -> int:
        """Live translations summed over CPUs."""
        return self._engine.occupancy()
