"""Physically indexed cache hierarchy.

Three levels (L1D / L2 / shared LLC) of line-granular caches decide
which accesses reach a memory tier.  The hierarchy's job in this
reproduction is to produce the event streams the profilers observe:

* the per-access *data source* (L1/L2/LLC/memory) recorded by IBS/PEBS
  samples,
* LLC-miss counts for the PMU (TMP's gating signal and Fig. 2's
  denominator),
* the set of accesses that actually reach memory, which defines the
  tier-1 hitrate of Fig. 6.

Caches are modeled as capacity-equivalent direct-mapped structures by
default (exactly vectorizable; see ``vecsim``), with an optional exact
set-associative LRU engine (``exact_assoc=True``) for fidelity studies.
Per-CPU private levels are engine *shards* — one dense engine per
level, so a mixed-CPU batch resolves without per-CPU Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .address import ADDR_DTYPE, LINE_SIZE, pow2_floor
from .events import DataSource
from .vecsim import fold_shards, make_engine

__all__ = ["CacheLevel", "CacheHierarchy", "CacheLevelStats"]


@dataclass
class CacheLevelStats:
    """Cumulative per-level event counters (summed over CPUs)."""

    name: str
    lookups: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


class CacheLevel:
    """One cache level operating on physical line numbers.

    ``shards > 1`` replicates the level per CPU (private L1/L2):
    ``access(lines, shard=...)`` routes each access to its CPU's copy
    in a single vectorized call.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int = 1,
        *,
        exact_assoc: bool = False,
        shards: int = 1,
    ):
        cap = pow2_floor(size_bytes // LINE_SIZE)
        self._engine = make_engine(cap, ways, exact_assoc=exact_assoc, shards=shards)
        self.name = name
        self.capacity_lines = cap
        self.shards = shards
        self.stats = CacheLevelStats(name)

    def access(self, lines: np.ndarray, shard: np.ndarray | None = None) -> np.ndarray:
        """Resolve line accesses in order; return the hit mask."""
        hits = self._engine.access(np.asarray(lines, dtype=ADDR_DTYPE), shard=shard)
        self.stats.lookups += int(lines.size)
        self.stats.hits += int(np.count_nonzero(hits))
        return hits

    def fill(self, lines: np.ndarray, shard: np.ndarray | None = None) -> None:
        """Install lines brought up from a lower level (no hit accounting)."""
        self._engine.fill(np.asarray(lines, dtype=ADDR_DTYPE), shard=shard)

    def flush(self) -> None:
        """Invalidate the whole level (every CPU's copy)."""
        self._engine.flush()


class CacheHierarchy:
    """Private per-CPU L1/L2 caches in front of one shared LLC.

    Mirrors the Ryzen-class topology the paper runs on: each core owns
    its L1D and L2; cores share the LLC.  ``access`` classifies every
    access with its :class:`DataSource`; each level's ``access()``
    installs its misses (fill-on-miss), so a line serviced from below
    is resident at every upper level afterwards — no separate refill
    pass is needed.  Write-allocate is assumed, so loads and stores
    probe identically.
    """

    def __init__(
        self,
        l1_bytes: int = 32 * 1024,
        l2_bytes: int = 512 * 1024,
        llc_bytes: int = 32 * 1024 * 1024,
        *,
        n_cpus: int = 1,
        ways: int = 1,
        exact_assoc: bool = False,
    ):
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        self.n_cpus = n_cpus
        kw = dict(ways=ways, exact_assoc=exact_assoc)
        self.l1 = CacheLevel("L1", l1_bytes, shards=n_cpus, **kw)
        self.l2 = CacheLevel("L2", l2_bytes, shards=n_cpus, **kw)
        self._llc = CacheLevel("LLC", llc_bytes, **kw)

    @property
    def llc(self) -> CacheLevel:
        """The shared last-level cache."""
        return self._llc

    @property
    def levels(self) -> list[CacheLevel]:
        """The three levels, upper first."""
        return [self.l1, self.l2, self._llc]

    def miss_counts(self) -> dict[str, int]:
        """Aggregate miss counts per level across CPUs."""
        return {
            "l1": self.l1.stats.misses,
            "l2": self.l2.stats.misses,
            "llc": self._llc.stats.misses,
        }

    def access(
        self,
        lines: np.ndarray,
        cpus: np.ndarray | None = None,
        *,
        shard: np.ndarray | None = None,
    ) -> np.ndarray:
        """Classify each line access with its data source.

        ``cpus`` routes each access to its core's private L1/L2 (all on
        CPU 0 when omitted): raw CPU ids, folded onto the cores here.
        A caller that has folded the batch's CPU column already
        (``Machine.run_batch``) passes it as ``shard`` instead.
        Returns a ``uint8`` array of :class:`DataSource` values aligned
        with ``lines``; ``DataSource.MEMORY`` marks accesses that
        missed every level.
        """
        lines = np.asarray(lines, dtype=ADDR_DTYPE)
        n = lines.size
        source = np.full(n, np.uint8(DataSource.MEMORY), dtype=np.uint8)
        if n == 0:
            return source
        if shard is None and cpus is not None and self.n_cpus > 1:
            shard = fold_shards(cpus, self.n_cpus)

        hits1 = self.l1.access(lines, shard)
        source[hits1] = np.uint8(DataSource.L1)
        rem = np.flatnonzero(~hits1)  # ascending == program order
        if rem.size:
            hits2 = self.l2.access(lines[rem], None if shard is None else shard[rem])
            source[rem[hits2]] = np.uint8(DataSource.L2)
            rem = rem[~hits2]
        if rem.size:
            hits3 = self._llc.access(lines[rem])
            source[rem[hits3]] = np.uint8(DataSource.LLC)
        return source

    def flush(self) -> None:
        """Invalidate every cache on every CPU."""
        self.l1.flush()
        self.l2.flush()
        self._llc.flush()
