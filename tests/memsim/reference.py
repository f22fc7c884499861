"""The scalar golden reference for the lookup engines, and the hook that
puts it into a whole ``Machine``.

``SequentialSetAssoc`` resolves one access at a time on per-set
MRU-ordered Python lists — trivially auditable, and what
``repro.memsim.vecsim``'s two vectorized engines are held to.  It is
test code: nothing under ``src/`` can select it.  The suites that compare
whole machines substitute it where ``tlb.py`` / ``cache.py`` look
``make_engine`` up (the ``reference_engines`` fixture in ``conftest.py``).
"""

import numpy as np

from repro.memsim.address import ADDR_DTYPE, is_pow2
from repro.memsim.vecsim import make_engine

__all__ = ["SequentialSetAssoc", "reference_engine"]


class SequentialSetAssoc:
    """Reference set-associative structure with true-LRU replacement.

    Processed one access at a time in Python; the golden reference the
    vectorized engines are cross-checked against.  ``ways=1``
    reproduces ``VectorDirectMapped`` exactly; any ``ways`` reproduces
    ``VectorSetAssoc``.
    """

    def __init__(self, nsets: int, ways: int, shards: int = 1):
        if not is_pow2(nsets):
            raise ValueError(f"nsets must be a power of two, got {nsets}")
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.nsets = nsets
        self.ways = ways
        self.shards = shards
        self._mask = nsets - 1
        # Each set is a list of keys ordered MRU-first.
        self._sets: list[list[int]] = [[] for _ in range(nsets * shards)]

    @property
    def capacity(self) -> int:
        """Number of entries one shard can hold."""
        return self.nsets * self.ways

    def _resident_keys(self) -> np.ndarray:
        """All resident keys, concatenated in set order."""
        total = sum(len(s) for s in self._sets)
        return np.fromiter(
            (k for s in self._sets for k in s), dtype=ADDR_DTYPE, count=total
        )

    def flush(self) -> None:
        """Invalidate every entry on every shard (full shootdown)."""
        for s in self._sets:
            s.clear()

    def flush_where(self, predicate) -> int:
        """Invalidate entries (all shards) whose tag satisfies ``predicate``."""
        n = 0
        for i, s in enumerate(self._sets):
            if not s:
                continue
            keep_mask = ~predicate(np.asarray(s, dtype=ADDR_DTYPE))
            kept = [k for k, keep in zip(s, keep_mask) if keep]
            n += len(s) - len(kept)
            self._sets[i] = kept
        return n

    def flush_keys(self, keys: np.ndarray) -> int:
        """Invalidate entries matching any of ``keys`` on every shard.

        One ``np.isin`` over the materialized resident keys replaces
        the old per-element Python set lookups; only sets that actually
        hold a doomed entry are rebuilt.
        """
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        if keys.size == 0:
            return 0
        resident = self._resident_keys()
        if resident.size == 0:
            return 0
        doomed = np.isin(resident, keys)
        n = int(np.count_nonzero(doomed))
        if n == 0:
            return 0
        lens = np.fromiter((len(s) for s in self._sets), dtype=np.intp)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        set_ids = np.repeat(np.arange(lens.size), lens)
        for i in np.unique(set_ids[doomed]):
            d = doomed[offsets[i] : offsets[i + 1]]
            s = self._sets[i]
            self._sets[i] = [k for k, dead in zip(s, d) if not dead]
        return n

    def contains(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Non-mutating membership probe for ``keys`` on their shard.

        A key only ever resides in its own set (and, with ``shard``
        given, its own shard), so a vectorized membership test over the
        materialized resident keys is exact for unsharded engines; the
        sharded probe falls back to per-set lookups.
        """
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        if self.shards == 1 or shard is None:
            return np.isin(keys, self._resident_keys())
        shard = np.asarray(shard, dtype=np.intp)
        out = np.zeros(keys.size, dtype=bool)
        for i, k in enumerate(keys):
            row = (int(k) & self._mask) + int(shard[i]) * self.nsets
            out[i] = int(k) in self._sets[row]
        return out

    def contains_any(self, keys: np.ndarray) -> np.ndarray:
        """Non-mutating probe: resident on *any* shard?"""
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        return np.isin(keys, self._resident_keys())

    def access_one(self, key: int, shard: int = 0) -> bool:
        """Resolve a single access; return True on hit."""
        key = int(key)
        s = self._sets[(key & self._mask) + int(shard) * self.nsets]
        try:
            s.remove(key)
            hit = True
        except ValueError:
            hit = False
            if len(s) >= self.ways:
                s.pop()  # evict LRU (tail)
        s.insert(0, key)
        return hit

    def access(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Resolve a batch of accesses in order; return the hit mask."""
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        out = np.empty(keys.size, dtype=bool)
        access_one = self.access_one
        if shard is None:
            for i, k in enumerate(keys):
                out[i] = access_one(k)
        else:
            shard = np.asarray(shard, dtype=np.intp)
            for i, k in enumerate(keys):
                out[i] = access_one(k, shard[i])
        return out

    def fill(self, keys: np.ndarray, shard=None) -> None:
        """Install ``keys`` without hit/miss accounting (refill path)."""
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        shard = None if shard is None else np.asarray(shard, dtype=np.intp)
        for i, k in enumerate(keys):
            key = int(k)
            row = key & self._mask
            if shard is not None:
                row += int(shard[i]) * self.nsets
            s = self._sets[row]
            if key in s:
                s.remove(key)
            elif len(s) >= self.ways:
                s.pop()
            s.insert(0, key)

    def occupancy(self) -> int:
        """Number of currently valid entries (all shards)."""
        return sum(len(s) for s in self._sets)


def reference_engine(capacity_entries, ways=1, *, exact_assoc=False, shards=1):
    """``make_engine``'s signature and checks, the reference's class: the
    geometry is whatever the vectorized engine would have had."""
    vec = make_engine(capacity_entries, ways, exact_assoc=exact_assoc, shards=shards)
    return SequentialSetAssoc(vec.nsets, vec.ways, shards)
