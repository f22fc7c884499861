"""Lookup-structure engines shared by the TLB and cache models.

Two engines implement the same ``access`` contract (each class says
how): ``VectorDirectMapped``, exact and fully vectorized — one stable
sort of the batch's row indices, 16-bit while ``nsets * shards`` fits;
``VectorSetAssoc``, exact true-LRU set-associative, vectorized in
conflict-free rounds over per-set segments.  The scalar reference both
are held to, one access at a time in Python, lives with the tests
(``tests/memsim/reference.py``).

Both engines are *stateful* across batches — essential for the paper's
no-shootdown A-bit semantics, where a translation that stays resident in
the TLB suppresses page-walks (and therefore A-bit re-sets) across scan
intervals.

Keys are ``uint64`` identities (e.g. ``pid << 48 | vpn`` for a TLB,
physical line number for a cache).  The set index is taken from the low
bits of the key, so callers should place the locality-carrying bits
(vpn / line number) at the bottom.

Sharding: passing ``shards=k`` gives an engine ``k`` independent
replicas of its set space inside the same dense arrays — the model for
per-CPU private TLBs/L1/L2.  ``access``/``fill``/``contains`` take an
optional per-access ``shard`` array routing each access to its
replica; ``flush_keys``/``flush_where``/``flush`` act on *every* shard
at once (shootdowns broadcast to all CPUs — that is precisely why they
cost IPIs).  Because a key can only ever reside in its own set of its
own shard, sharded processing is bit-identical to running ``k``
separate engines.
"""

from __future__ import annotations

import numpy as np

from .address import ADDR_DTYPE, is_pow2

__all__ = [
    "fold_shards",
    "VectorDirectMapped",
    "VectorSetAssoc",
    "make_engine",
]


def fold_shards(cpus, shards: int) -> np.ndarray:
    """Fold raw CPU ids onto the shard indices ``[0, shards)``.

    A column already in range comes back as it is — no copy and no
    (slow, 64-bit) modulo.  Engines take shard indices on trust, so a
    batch is folded once, by whoever first holds its CPU column.
    """
    cpus = np.asarray(cpus)
    if cpus.size and (cpus.min() < 0 or cpus.max() >= shards):
        return cpus.astype(np.intp) % shards
    return cpus


#: Row counts up to this fit ``uint16``, which numpy's stable sort
#: handles as a radix sort (~8x faster than the ``intp`` merge sort).
_NARROW_ROWS = 1 << 16


def _argsort_rows(rows: np.ndarray, nrows: int) -> np.ndarray:
    """Stable argsort of ``intp`` row indices (the set-associative
    engine's; the direct-mapped one never widens its rows)."""
    if nrows <= _NARROW_ROWS:
        return np.argsort(rows.astype(np.uint16), kind="stable")
    return np.argsort(rows, kind="stable")


#: Composite-priority constants for LRU victim selection: a matching
#: way always beats a free way, a free way always beats eviction, and
#: ties fall back to the smallest recency stamp.  Stamps stay far below
#: 2**60, so the bands can never collide.
_PRIO_HIT = np.int64(1) << np.int64(62)
_PRIO_FREE = np.int64(1) << np.int64(61)

#: Below this many live segments, a vector round's fixed cost (~15 µs of
#: numpy dispatch) exceeds scalar per-touch replay, so the rounds loop
#: hands the stragglers to ``_replay_segments``.
_SCALAR_CUTOVER = 64

#: Touches the scalar tail takes at a time: 64 pointers are 512 bytes,
#: the largest block Python's own allocator serves.
_REPLAY_PIECE = 64


class _RoundScratch:
    """Everything one round of :class:`VectorSetAssoc` gathers or derives.

    A round touches each row at most once, so ``rows`` entries hold any
    round and the rounds allocate no array.  That is for the allocator:
    a round's arrays shrink from batch length to a few dozen entries,
    numpy keeps every freed block under 1 KiB for reuse by exact size,
    and such a block, first asked for while the call's batch-length
    arrays lie below it, keeps the heap from shrinking back over them —
    megabytes resident on some runs and not on others
    (docs/performance.md, "Resident memory").
    """

    def __init__(self, rows: int, ways: int):
        self.act = np.empty(rows, dtype=np.intp)
        self.rows = np.empty(rows, dtype=np.intp)
        self.keys = np.empty(rows, dtype=ADDR_DTYPE)
        self.stamps = np.empty(rows, dtype=np.int64)
        self.tags = np.empty((rows, ways), dtype=ADDR_DTYPE)
        self.valid = np.empty((rows, ways), dtype=bool)
        self.match = np.empty((rows, ways), dtype=bool)
        self.prio = np.empty((rows, ways), dtype=np.int64)
        self.way = np.empty(rows, dtype=np.intp)
        self.hit = np.empty(rows, dtype=bool)


class _DenseEngine:
    """What the two engines share: ``_tags`` / ``_valid`` arrays over
    ``nsets * shards`` rows (one column or ``ways``), and everything
    that reads them across shards — the shootdowns and the any-shard
    probes, which look a key up in its own set of every shard."""

    def __init__(self, nsets: int, shards: int):
        if not is_pow2(nsets):
            raise ValueError(f"nsets must be a power of two, got {nsets}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.nsets = nsets
        self.shards = shards
        self._mask = ADDR_DTYPE(nsets - 1)

    @property
    def capacity(self) -> int:
        """Number of entries one shard can hold."""
        return self.nsets * self.ways

    def flush(self) -> None:
        """Invalidate every entry on every shard (full shootdown)."""
        self._valid[:] = False

    def flush_where(self, predicate) -> int:
        """Invalidate entries (all shards) whose tag satisfies ``predicate``.

        ``predicate`` maps an array of tags to a boolean mask.  Returns
        the number of entries invalidated.  Used for per-PID and
        per-page shootdowns.
        """
        doomed = self._valid & predicate(self._tags)
        n = int(np.count_nonzero(doomed))
        self._valid[doomed] = False
        return n

    def _probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's own set on every shard: the flat entry indices,
        one row of ``shards * ways`` per key, and where the key is held.

        A key can only reside in its own set, so probing those entries
        finds everything a membership test over every resident tag
        would, at a cost that follows the keys, not the capacity.
        """
        ways = self.ways
        shard_way = np.arange(0, self.nsets * self.shards * ways, self.nsets * ways)
        shard_way = (shard_way[:, None] + np.arange(ways)).ravel()
        entry = ((keys & self._mask).astype(np.intp) * ways)[:, None] + shard_way
        held = self._valid.reshape(-1)[entry]
        held &= self._tags.reshape(-1)[entry] == keys[:, None]
        return entry, held

    def flush_keys(self, keys: np.ndarray) -> int:
        """Invalidate entries matching any of ``keys`` on every shard."""
        keys = np.sort(np.asarray(keys, dtype=ADDR_DTYPE))
        if keys.size > 1:
            keys = keys[np.append(True, keys[1:] != keys[:-1])]  # each entry once
        entry, held = self._probe(keys)
        doomed = entry[held]
        self._valid.reshape(-1)[doomed] = False
        return int(doomed.size)

    def contains_any(self, keys: np.ndarray) -> np.ndarray:
        """Non-mutating probe: resident on *any* shard?"""
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        return self._probe(keys)[1].any(axis=1)

    def occupancy(self) -> int:
        """Number of currently valid entries (all shards)."""
        return int(np.count_nonzero(self._valid))


class VectorDirectMapped(_DenseEngine):
    """Exact direct-mapped lookup structure with vectorized batch access.

    Parameters
    ----------
    nsets:
        Number of sets (must be a power of two); equals per-shard
        capacity in entries since the structure is direct-mapped.
    shards:
        Number of independent replicas sharing the dense arrays (one
        per CPU for private structures).
    """

    ways = 1

    def __init__(self, nsets: int, shards: int = 1):
        super().__init__(nsets, shards)
        self._row_dtype = np.uint16 if nsets * shards <= _NARROW_ROWS else np.intp
        self._tags = np.zeros(nsets * shards, dtype=ADDR_DTYPE)
        self._valid = np.zeros(nsets * shards, dtype=bool)

    def _rows(self, keys: np.ndarray, shard) -> np.ndarray:
        """Row (shard-major set index) per key, in the narrowest of
        ``uint16`` / ``intp`` that holds ``nsets * shards``.

        ``shard`` must already be a valid shard index per key (callers
        with raw CPU ids fold them first, see :func:`fold_shards`).
        """
        if self._row_dtype is np.uint16:
            # Truncating the key to 16 bits *is* most of the mask.
            rows = keys.astype(np.uint16)
            if self.nsets < _NARROW_ROWS:
                rows &= np.uint16(self.nsets - 1)
        else:
            rows = (keys & self._mask).astype(np.intp)
        if shard is not None and self.shards > 1:
            # Cast before multiplying: an int16 cpu column times nsets
            # would wrap long before the row dtype does.
            rows += np.asarray(shard).astype(self._row_dtype) * self._row_dtype(
                self.nsets
            )
        return rows

    def contains(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Non-mutating membership probe for ``keys`` on their shard."""
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        rows = self._rows(keys, shard).astype(np.intp, copy=False)
        return self._valid[rows] & (self._tags[rows] == keys)

    def access(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Resolve a batch of accesses in order; return the hit mask.

        Each miss installs its key, evicting the set's previous
        occupant, exactly as a sequential direct-mapped structure
        would.  The final resident state after the batch matches the
        sequential semantics as well.
        """
        keys = np.ascontiguousarray(keys, dtype=ADDR_DTYPE)
        n = keys.size
        if n == 0:
            return np.zeros(0, dtype=bool)

        rows = self._rows(keys, shard)
        # Stable sort groups accesses by set while preserving program
        # order within each set (a radix sort while rows are 16-bit).
        order = np.argsort(rows, kind="stable")
        s_rows = rows[order]
        s_keys = keys[order]

        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        np.not_equal(s_rows[1:], s_rows[:-1], out=run_start[1:])

        hit_sorted = np.empty(n, dtype=bool)
        # Within a run: hit iff the immediately preceding access to the
        # same set used the same key (direct-mapped ⇒ single occupant).
        hit_sorted[1:] = (~run_start[1:]) & (s_keys[1:] == s_keys[:-1])
        hit_sorted[0] = False
        # First access of each run consults the carried-in state.  One
        # row per run is all that ever indexes the state arrays, so
        # this is the only place narrow rows widen (numpy index-casts
        # non-intp arrays on a slow path).
        first_idx = np.flatnonzero(run_start)
        run_rows = s_rows[first_idx].astype(np.intp, copy=False)
        hit_sorted[first_idx] = self._valid[run_rows] & (
            self._tags[run_rows] == s_keys[first_idx]
        )

        # Carry-out: the last access of each run is the set's new occupant.
        last_idx = np.empty(first_idx.size, dtype=np.intp)
        last_idx[:-1] = first_idx[1:] - 1
        last_idx[-1] = n - 1
        self._tags[run_rows] = s_keys[last_idx]
        self._valid[run_rows] = True

        hits = np.empty(n, dtype=bool)
        hits[order] = hit_sorted
        return hits

    def fill(self, keys: np.ndarray, shard=None) -> None:
        """Install ``keys`` without hit/miss semantics (refill path).

        When the same set appears multiple times, the latest key in
        batch order wins — matching sequential fill order.
        """
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        if keys.size == 0:
            return
        rows = self._rows(keys, shard).astype(np.intp, copy=False)
        # Keep only the last occurrence of each set.
        _, last = np.unique(rows[::-1], return_index=True)
        pick = keys.size - 1 - last
        self._tags[rows[pick]] = keys[pick]
        self._valid[rows[pick]] = True


class VectorSetAssoc(_DenseEngine):
    """Exact set-associative true-LRU structure, vectorized over batches.

    State is three dense ``[nsets * shards, ways]`` matrices: tags,
    valid bits, and a per-entry recency *stamp*.  Stamps are assigned
    from a monotonically increasing clock in program order, so "way
    with the smallest stamp" is exactly the LRU way no matter how the
    batch was regrouped for vectorization.

    Batch resolution (:meth:`access` / :meth:`fill`):

    1. stable-sort the batch by set row (program order preserved
       within each set);
    2. collapse adjacent same-key repeats inside a set — after the
       first touch the key is resident, so repeats are guaranteed hits
       and only move the entry's stamp forward;
    3. resolve the surviving touches in rounds: round ``r`` handles
       the ``r``-th surviving touch of every set simultaneously.  Each
       round touches each set row at most once, so the gather /
       compare / scatter is plain numpy with no write conflicts, into
       buffers the engine owns (``_RoundScratch``).

    The round count equals the longest per-set *alternation* sequence
    in the batch, which is short for realistic streams (hot keys
    collapse in step 2); adversarial alternating traces degrade to one
    tiny vector op per access but stay exact.
    """

    def __init__(self, nsets: int, ways: int, shards: int = 1):
        super().__init__(nsets, shards)
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        self.ways = ways
        rows = nsets * shards
        self._tags = np.zeros((rows, ways), dtype=ADDR_DTYPE)
        self._valid = np.zeros((rows, ways), dtype=bool)
        self._stamp = np.zeros((rows, ways), dtype=np.int64)
        self._clock = 1
        self._scratch = _RoundScratch(rows, ways)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_scratch"]  # no state in it: a snapshot need not carry it
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = _RoundScratch(self.nsets * self.shards, self.ways)

    def _rows(self, keys: np.ndarray, shard) -> np.ndarray:
        rows = (keys & self._mask).astype(np.intp)
        if shard is not None and self.shards > 1:
            rows += np.asarray(shard, dtype=np.intp) * self.nsets
        return rows

    # -------------------------------------------------------------- mutation

    def access(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Resolve a batch of accesses in order; return the hit mask."""
        keys = np.ascontiguousarray(keys, dtype=ADDR_DTYPE)
        n = keys.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        hits = np.empty(n, dtype=bool)
        self._resolve(keys, self._rows(keys, shard), hits)
        return hits

    def fill(self, keys: np.ndarray, shard=None) -> None:
        """Install ``keys`` without hit/miss accounting (refill path):
        the same touches as :meth:`access`, its answer unread."""
        self.access(keys, shard)

    def _resolve(self, keys: np.ndarray, rows: np.ndarray, hits: np.ndarray) -> None:
        n = keys.size
        order = _argsort_rows(rows, self.nsets * self.shards)
        s_rows = rows[order]
        s_keys = keys[order]
        # Program-order recency stamps; the clock advances per batch so
        # stamps stay unique and monotonic across the engine lifetime.
        s_stamp = self._clock + order
        self._clock += n

        # Adjacent same-key repeats inside a set are guaranteed hits …
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.logical_or(
            s_rows[1:] != s_rows[:-1], s_keys[1:] != s_keys[:-1], out=keep[1:]
        )
        hit_sorted = np.empty(n, dtype=bool)
        hit_sorted[~keep] = True
        kidx = np.flatnonzero(keep)
        m = kidx.size
        # … and the surviving touch carries the run's *last* stamp, so
        # the collapsed stream leaves identical recency state.
        run_end = np.empty(m, dtype=np.intp)
        run_end[:-1] = kidx[1:] - 1
        run_end[-1] = n - 1
        c_rows = s_rows[kidx]
        c_keys = s_keys[kidx]
        c_stamp = s_stamp[run_end]
        del s_rows, s_keys, s_stamp, run_end  # not held through the rounds

        seg_start = np.empty(m, dtype=bool)
        seg_start[0] = True
        np.not_equal(c_rows[1:], c_rows[:-1], out=seg_start[1:])
        first = np.flatnonzero(seg_start)
        seg_len = np.diff(np.append(first, m))
        c_hits = np.empty(m, dtype=bool)
        # Rounds: the r-th surviving touch of every set resolves
        # together; rows within a round are distinct, so fancy-indexed
        # scatters are conflict-free.  Longest segments first: those
        # live in round r are the first ``k``.  Once too few stay live
        # to amortize a round's fixed numpy cost, the stragglers finish
        # on the scalar tail instead (heavily aliased streams would
        # otherwise degrade to one tiny vector op per access).
        by_len = np.argsort(seg_len)[::-1]
        first = first[by_len]
        lens = seg_len[by_len].tolist()
        scratch = self._scratch
        k = len(lens)
        for r in range(lens[0]):
            while lens[k - 1] <= r:
                k -= 1
            if r and k < _SCALAR_CUTOVER:
                self._replay_segments(
                    first[:k], lens[:k], r, c_rows, c_keys, c_stamp, c_hits
                )
                break
            act = np.add(first[:k], r, out=scratch.act[:k])
            c_hits[act] = self._touch_rows(
                c_rows.take(act, out=scratch.rows[:k], mode="clip"),
                c_keys.take(act, out=scratch.keys[:k], mode="clip"),
                c_stamp.take(act, out=scratch.stamps[:k], mode="clip"),
            )
        hit_sorted[kidx] = c_hits
        hits[order] = hit_sorted

    def _replay_segments(
        self,
        starts: np.ndarray,
        lens: list[int],
        r: int,
        c_rows: np.ndarray,
        c_keys: np.ndarray,
        c_stamp: np.ndarray,
        c_hits: np.ndarray,
    ) -> None:
        """Scalar tail: finish the few segments that outlive the rounds.

        Each surviving segment is one set row touched many times; its
        remaining touches (from round ``r`` on) replay sequentially on
        plain Python lists — the same per-touch cost as the reference
        engine, without the per-round numpy overhead.  Victim selection
        mirrors :meth:`_touch_rows` (free way with the stalest stamp,
        else true LRU).
        """
        W = self.ways
        for s0, sl in zip(starts.tolist(), lens):
            row = int(c_rows[s0])
            tags = self._tags[row].tolist()
            valid = self._valid[row].tolist()
            stamp = self._stamp[row].tolist()
            # In pieces: Python keeps a list this short in its own
            # pools; a longer one is a malloc block, which once freed
            # can hold the heap up as a round's arrays could.
            for lo in range(s0 + r, s0 + sl, _REPLAY_PIECE):
                hi = min(lo + _REPLAY_PIECE, s0 + sl)
                seg_hits = []
                for k, st in zip(c_keys[lo:hi].tolist(), c_stamp[lo:hi].tolist()):
                    w = -1
                    for j in range(W):
                        if valid[j] and tags[j] == k:
                            w = j
                            break
                    if w >= 0:
                        seg_hits.append(True)
                    else:
                        seg_hits.append(False)
                        for j in range(W):
                            if not valid[j] and (w < 0 or stamp[j] < stamp[w]):
                                w = j
                        if w < 0:
                            w = 0
                            for j in range(1, W):
                                if stamp[j] < stamp[w]:
                                    w = j
                        tags[w] = k
                        valid[w] = True
                    stamp[w] = st
                c_hits[lo:hi] = seg_hits
            self._tags[row] = tags
            self._valid[row] = valid
            self._stamp[row] = stamp

    def _touch_rows(
        self, rows: np.ndarray, keys: np.ndarray, stamps: np.ndarray
    ) -> np.ndarray:
        """One access per (distinct) row: hit → touch, miss → install.
        The hit mask returned is round scratch: read it before the next."""
        scratch = self._scratch
        k = rows.size
        tags = self._tags.take(rows, axis=0, out=scratch.tags[:k], mode="clip")
        valid = self._valid.take(rows, axis=0, out=scratch.valid[:k], mode="clip")
        match = np.equal(tags, keys[:, None], out=scratch.match[:k])
        match &= valid
        free = np.logical_not(valid, out=valid)
        # One argmax over banded priorities picks the way: the matched
        # way on hits, any invalid way while the set still has room,
        # else the true-LRU (min-stamp) way.
        prio = self._stamp.take(rows, axis=0, out=scratch.prio[:k], mode="clip")
        np.negative(prio, out=prio)
        np.add(prio, _PRIO_HIT, out=prio, where=match)
        np.add(prio, _PRIO_FREE, out=prio, where=free)
        way = prio.argmax(axis=1, out=scratch.way[:k])
        hit = match.any(axis=1, out=scratch.hit[:k])
        self._tags[rows, way] = keys
        self._valid[rows, way] = True
        self._stamp[rows, way] = stamps
        return hit

    # ---------------------------------------------------------------- probes

    def contains(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Non-mutating membership probe for ``keys`` on their shard."""
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        rows = self._rows(keys, shard)
        return (self._valid[rows] & (self._tags[rows] == keys[:, None])).any(axis=1)


def make_engine(
    capacity_entries: int,
    ways: int = 1,
    *,
    exact_assoc: bool = False,
    shards: int = 1,
):
    """Build a lookup engine of ``capacity_entries`` entries per shard.

    By default a capacity-equivalent :class:`VectorDirectMapped` engine
    is returned.  ``exact_assoc=True`` selects the exact vectorized
    set-associative engine (:class:`VectorSetAssoc`) with the requested
    associativity; ``ways`` without it is an error, not a no-op.
    """
    if not is_pow2(capacity_entries):
        raise ValueError(f"capacity must be a power of two, got {capacity_entries}")
    if not exact_assoc:
        if ways != 1:
            raise ValueError(
                f"ways={ways} needs exact_assoc=True: the default engine is "
                "direct-mapped (MachineConfig: tlb_ways / cache_ways with "
                "exact_assoc)"
            )
        return VectorDirectMapped(capacity_entries, shards)
    if capacity_entries % ways:
        raise ValueError("capacity must be divisible by ways")
    nsets = capacity_entries // ways
    if not is_pow2(nsets):
        raise ValueError("capacity/ways must be a power of two")
    return VectorSetAssoc(nsets, ways, shards)
