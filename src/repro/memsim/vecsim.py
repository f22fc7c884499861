"""Lookup-structure engines shared by the TLB and cache models.

Two engines implement the same ``access`` contract (each class says
how), both after one stable sort of the batch's row indices, 16-bit
while ``nsets * shards`` fits: ``VectorDirectMapped``, exact and fully
vectorized; ``VectorSetAssoc``, exact true-LRU set-associative, decided
by LRU stack distance in a few shifted vector passes per batch.  The
scalar reference both are held to, one access at a time in Python,
lives with the tests (``tests/memsim/reference.py``).

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

import threading

import numpy as np

from .address import ADDR_DTYPE, is_pow2

__all__ = [
    "engine_sets",
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


#: Collapsed touches one look-back block takes at most, and row pieces
#: it spans at most: a block's arrays stay under 1 MiB whatever the
#: batch, as ``VMAIndex.translate``'s blocks do.  A row cut by a block
#: boundary goes on in the next block from the state the first part left.
_BLOCK = 1 << 15
_BLOCK_ROWS = 1 << 10

#: How far the look-back goes, in multiples of ``ways``, before a row
#: is handed to the scalar tail.  A touch resolves at the first of: its
#: own key (a hit), ``ways`` other distinct keys or the row's start (a
#: miss).  Only a key recurring behind a long run of fewer than ``ways``
#: hot keys is still open this deep.
_DEPTH_PER_WAY = 16

#: Touches the scalar tail takes at a time: 64 pointers are 512 bytes,
#: the largest block Python's own allocator serves.
_REPLAY_PIECE = 64


class _LookBackScratch:
    """The working arrays of :meth:`VectorSetAssoc._look_back`: one set
    per thread, shared by every engine the thread runs, grown to an
    engine's geometry when it is built (or first runs on another
    thread), never in the middle of a batch.

    A block's arrays would otherwise be allocated while the call's
    batch-length arrays are live, and numpy keeps every freed block
    under 1 KiB for reuse by exact size: one such block above the batch
    arrays keeps the heap from shrinking back over them, megabytes
    resident on some runs and not on others (docs/performance.md,
    "Resident memory").  Shared, they cost one block's worth per thread,
    not per engine, and no engine's pickle holds them.
    """

    positions = pieces = piece_ways = ways = 0

    def reserve(self, positions: int, pieces: int, ways: int) -> None:
        need = (
            max(positions, self.positions),
            max(pieces, self.pieces),
            max(pieces * ways, self.piece_ways),
            max(ways, self.ways),
        )
        if need == (self.positions, self.pieces, self.piece_ways, self.ways):
            return
        self.positions, self.pieces, self.piece_ways, self.ways = need
        positions, pieces, piece_ways, ways = need
        count = np.min_scalar_type(ways)  # distinct keys passed: <= ways
        # Per layout position.
        self.keys = np.empty(positions, dtype=ADDR_DTYPE)
        self.seen = np.empty(positions, dtype=count)
        self.eq, self.fresh, self.touch, self.open, self.wall = np.empty(
            (5, positions), dtype=bool
        )
        self.hit, self.new, self.same = np.empty((3, positions), dtype=bool)
        # Per row piece (``first`` has one more entry: it also closes
        # the last piece).
        self.first = np.empty(pieces + 1, dtype=np.intp)
        self.rows, self.base, self.end, self.slot, self.src = np.empty(
            (5, pieces), dtype=np.intp
        )
        self.rows16 = np.empty(pieces, dtype=np.uint16)
        self.got = np.empty(pieces, dtype=bool)
        self.count = np.empty(pieces, dtype=count)
        self.key = np.empty(pieces, dtype=ADDR_DTYPE)
        # Per way of a row piece (``state`` has one spare slot at the end).
        self.arange = np.arange(piece_ways + 1)
        self.slots, self.prev = np.empty((2, piece_ways), dtype=np.intp)
        self.held, self.lead = np.empty((2, piece_ways), dtype=bool)
        self.tags = np.empty(piece_ways, dtype=ADDR_DTYPE)
        self.state = np.empty(piece_ways + 1, dtype=ADDR_DTYPE)


_THREAD = threading.local()


def _thread_scratch() -> _LookBackScratch:
    scratch = getattr(_THREAD, "scratch", None)
    if scratch is None:
        scratch = _THREAD.scratch = _LookBackScratch()
    return scratch


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

    @property
    def _row_dtype(self):
        return np.uint16 if self.nsets * self.shards <= _NARROW_ROWS else np.intp

    def _rows(self, keys: np.ndarray, shard) -> np.ndarray:
        """Row (shard-major set index) per key, in the narrowest of
        ``uint16`` / ``intp`` that holds ``nsets * shards``.

        ``shard`` must already be a valid shard index per key (callers
        with raw CPU ids fold them first, see :func:`fold_shards`).
        """
        dtype = self._row_dtype
        if dtype is np.uint16:
            # Truncating the key to 16 bits *is* most of the mask.
            rows = keys.astype(np.uint16)
            if self.nsets < _NARROW_ROWS:
                rows &= np.uint16(self.nsets - 1)
        else:
            rows = (keys & self._mask).astype(np.intp)
        if shard is not None and self.shards > 1:
            # Cast before multiplying: an int16 cpu column times nsets
            # would wrap long before the row dtype does.
            rows += np.asarray(shard).astype(dtype) * dtype(self.nsets)
        return rows

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
        self._tags = np.zeros(nsets * shards, dtype=ADDR_DTYPE)
        self._valid = np.zeros(nsets * shards, dtype=bool)

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

    State is two dense ``[nsets * shards, ways]`` matrices, tags and
    valid bits, each row in recency order: least recently used way
    first, most recent last, holes (never filled, or shot down)
    anywhere.  Way order is the engine's own bookkeeping; nothing
    outside it can observe it.

    A batch (:meth:`access` / :meth:`fill`) is decided by LRU stack
    distance (Mattson et al., "Evaluation techniques for storage
    hierarchies", 1970): a touch hits iff its key comes up again,
    looking back through its set, before ``ways`` other distinct keys
    do.

    1. stable-sort the batch by set row (program order preserved
       within each set);
    2. collapse adjacent same-key repeats inside a set — after the
       first touch the key is the set's most recent, so repeats are
       hits and change nothing;
    3. look back from every remaining touch at once, one shifted pass
       per depth, in blocks of whole rows (:meth:`_look_back`): a batch
       costs about ``ways`` passes, however many touches its busiest
       set takes.  Rows still undecided after ``_DEPTH_PER_WAY * ways``
       passes replay on a scalar tail (:meth:`_replay_segments`).
    """

    def __init__(self, nsets: int, ways: int, shards: int = 1):
        super().__init__(nsets, shards)
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        self.ways = ways
        rows = nsets * shards
        self._tags = np.zeros((rows, ways), dtype=ADDR_DTYPE)
        self._valid = np.zeros((rows, ways), dtype=bool)
        self._scratch()  # grown here, not inside a call

    @property
    def _block_rows(self) -> int:
        return min(_BLOCK_ROWS, self.nsets * self.shards)

    def _scratch(self) -> _LookBackScratch:
        """This thread's look-back arrays, large enough for this engine."""
        pieces = self._block_rows
        scratch = _thread_scratch()
        scratch.reserve(1 + _BLOCK + pieces * (self.ways + 1), pieces, self.ways)
        return scratch

    # -------------------------------------------------------------- mutation

    def access(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Resolve a batch of accesses in order; return the hit mask."""
        keys = np.ascontiguousarray(keys, dtype=ADDR_DTYPE)
        n = keys.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        rows = self._rows(keys, shard)
        # Stable: each set's touches stay in program order.
        order = np.argsort(rows, kind="stable")
        s_rows = rows[order]
        s_keys = keys[order]
        # Adjacent same-key repeats inside a set are hits and change
        # nothing: only the first of each run is looked up.
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(s_keys[1:], s_keys[:-1], out=first[1:])
        first[1:] |= s_rows[1:] != s_rows[:-1]
        kidx = np.flatnonzero(first)
        c_rows = s_rows[kidx]
        c_keys = s_keys[kidx]
        del s_rows, s_keys  # not held through the look-back
        c_hits = np.empty(kidx.size, dtype=bool)
        self._look_back_blocks(c_rows, c_keys, c_hits)
        hit_sorted = np.logical_not(first, out=first)
        hit_sorted[kidx] = c_hits
        hits = np.empty(n, dtype=bool)
        hits[order] = hit_sorted
        return hits

    def fill(self, keys: np.ndarray, shard=None) -> None:
        """Install ``keys`` without hit/miss accounting (refill path):
        the same touches as :meth:`access`, its answer unread."""
        self.access(keys, shard)

    def _look_back_blocks(
        self, c_rows: np.ndarray, c_keys: np.ndarray, c_hits: np.ndarray
    ) -> None:
        """Cut the row-sorted touches into even blocks of at most
        ``_BLOCK`` touches and ``_BLOCK_ROWS`` row pieces, in order."""
        m = c_keys.size
        cut = np.empty(m, dtype=bool)
        cut[0] = True
        np.not_equal(c_rows[1:], c_rows[:-1], out=cut[1:])
        starts = np.flatnonzero(cut)  # where each row's touches begin
        del cut
        scratch = self._scratch()
        pieces = self._block_rows
        size = -(-m // -(-m // _BLOCK))  # even blocks, none over _BLOCK
        lo = 0
        while lo < m:
            p = int(np.searchsorted(starts, lo, side="right")) - 1
            hi = min(lo + size, m)
            if p + pieces < starts.size:
                hi = min(hi, int(starts[p + pieces]))
            g = int(np.searchsorted(starts, hi)) - p
            first = scratch.first[: g + 1]
            first[:g] = starts[p : p + g]
            first[0] = lo
            first[g] = hi
            rows = scratch.rows[:g]
            if c_rows.dtype == rows.dtype:
                np.take(c_rows, first[:g], out=rows, mode="clip")
            else:
                narrow = scratch.rows16[:g]
                np.copyto(rows, np.take(c_rows, first[:g], out=narrow, mode="clip"))
            first -= lo
            self._look_back(c_keys[lo:hi], first, rows, c_hits[lo:hi], scratch)
            lo = hi

    def _look_back(
        self,
        keys: np.ndarray,
        first: np.ndarray,
        rows: np.ndarray,
        hits: np.ndarray,
        scratch: _LookBackScratch,
    ) -> None:
        """Decide one block of collapsed touches by LRU stack distance and
        leave each of its rows' state after them.

        The block is ``g`` row pieces: piece ``p`` is ``keys[first[p] :
        first[p + 1]]``, touches of row ``rows[p]``.  Each is laid out
        as the row's ways (least recent first), its touches and one end
        marker, behind a *wall*: the previous piece's marker, position
        0, or a hole with no held way before it (a later hole reads as
        the held key before it, which moves no distance).  Pass ``d``
        looks ``d`` positions back from every open position at once.
        The key at ``j`` is new to a look-back from ``j + d`` iff no
        earlier pass matched ``X[j]`` with ``X[j + d']`` (``fresh``); a
        touch closes on its own key (a hit), on ``ways`` new keys or
        the wall (a miss).  The marker matches nothing: it collects the
        new keys it passes, newest last, up to ``ways`` — the row's new
        state.  Rows still open after ``_DEPTH_PER_WAY * ways`` passes
        replay on the scalar tail instead.  Every array here is a view
        of ``scratch``, but for the gather into ``hits`` and the rare
        scalar tail.
        """
        W = self.ways
        b, g = keys.size, rows.size
        gw = g * W
        n = 1 + b + g * (W + 1)
        ar = scratch.arange
        # Piece p: ways from base[p], touches from base[p] + W, marker
        # at end[p]; position 0 is a wall before them all.
        base = np.multiply(ar[:g], W + 1, out=scratch.base[:g])
        base += first[:-1]
        base += 1
        end = np.multiply(ar[1 : g + 1], W + 1, out=scratch.end[:g])
        end += first[1:]
        slots = scratch.slots[:gw].reshape(g, W)
        held = scratch.held[:gw].reshape(g, W)
        np.take(self._valid, rows, axis=0, out=held, mode="clip")
        np.multiply(held, ar[1 : W + 1], out=slots)
        prev = scratch.prev[:gw].reshape(g, W)
        np.maximum.accumulate(slots, axis=1, out=prev)  # 1 + last held way so far
        lead = np.equal(prev, 0, out=scratch.lead[:gw].reshape(g, W))
        prev += ar[:gw:W, None]  # flat index of that way's key, or -1
        prev -= 1
        tags = scratch.tags[:gw].reshape(g, W)
        np.take(self._tags, rows, axis=0, out=tags, mode="clip")
        state = scratch.state[: gw + 1]
        X = scratch.keys[:n]
        np.add(base[:, None], ar[:W], out=slots)
        X[slots] = np.take(tags, prev, out=state[:gw].reshape(g, W), mode="clip")
        touch = scratch.touch[:n]
        touch[:] = True
        touch[0] = False
        touch[slots] = False
        touch[end] = False
        X[touch] = keys  # what the wall and the markers hold decides nothing
        wall = scratch.wall[:n]
        wall[:] = False
        wall[0] = True
        wall[slots] = lead
        wall[end] = True
        open_ = scratch.open[:n]
        np.copyto(open_, touch)
        open_[end] = True
        fresh = scratch.fresh[:n]
        fresh[:] = True
        seen = scratch.seen[:n]
        seen[:] = 0
        hit, new = scratch.hit[:n], scratch.new[:n]
        hit[:] = False
        new[:] = False
        eq, same = scratch.eq[:n], scratch.same[:n]
        state[:] = 0
        stop = ar[W : gw + 1 : W]  # one past each piece's last way

        cap = _DEPTH_PER_WAY * W
        lo = 1 + W  # every open position lies in [lo, n)
        for d in range(1, cap + 1):
            I, J = slice(lo, n), slice(lo - d, n - d)
            # ``fresh`` is kept for every position a later pass reads.
            q = max(lo - cap, 0)
            Q = slice(q, n - d)
            np.equal(X[Q], X[q + d : n], out=eq[Q])
            o, w = open_[I], wall[J]
            np.greater(fresh[J], w, out=new[I])
            new[I] &= o
            np.logical_and(eq[J], touch[I], out=same[I])
            same[I] &= o
            np.greater(same[I], w, out=same[I])
            np.greater(fresh[Q], eq[Q], out=fresh[Q])
            seen[I] += new[I]
            hit[I] |= same[I]
            done = np.greater_equal(seen[I], W, out=eq[I])
            done |= same[I]
            done |= w
            np.greater(o, done, out=o)
            # A marker that passed a new key keeps it, in way W - seen.
            np.greater(new[I], touch[I], out=new[I])
            got = np.take(new, end, out=scratch.got[:g], mode="clip")
            if got.any():
                count = np.take(seen, end, out=scratch.count[:g], mode="clip")
                slot = np.subtract(stop, count, out=scratch.slot[:g])
                np.copyto(slot, gw, where=np.logical_not(got, out=got))
                src = np.subtract(end, d, out=scratch.src[:g])
                key = np.take(X, src, out=scratch.key[:g], mode="clip")
                state.put(slot, key, mode="clip")
                new[end] = False
            if not o.any():
                lo = n
                break
            lo += int(o.argmax())
        hits[:] = hit[touch]

        # Each row's new state: the ``count`` keys its marker kept, in
        # the last ``count`` ways.
        count = np.take(seen, end, out=scratch.count[:g], mode="clip")
        valid = np.add(ar[:W], count[:, None], out=prev)
        valid = np.greater_equal(valid, W, out=held)
        state = state[:gw].reshape(g, W)
        if lo == n:
            self._tags[rows] = state
            self._valid[rows] = valid
            return
        deep = np.zeros(g, dtype=bool)
        deep[np.searchsorted(end, np.flatnonzero(open_[lo:]) + lo)] = True
        kept = np.flatnonzero(~deep)
        self._tags[rows[kept]] = state[kept]
        self._valid[rows[kept]] = valid[kept]
        deep = np.flatnonzero(deep)
        lens = first[deep + 1] - first[deep]
        self._replay_segments(rows[deep], first[deep], lens, keys, hits)

    def _replay_segments(
        self,
        rows: np.ndarray,
        starts: np.ndarray,
        lens: np.ndarray,
        keys: np.ndarray,
        hits: np.ndarray,
    ) -> None:
        """Scalar tail: replay the rows the look-back left open.

        Each segment is one row's touches in the block,
        ``keys[start : start + len]``, replayed one at a time on the
        row's ways as a Python list, least recent first — the reference
        engine's per-touch cost, from the row's state before the block.
        """
        W = self.ways
        for row, s0, sl in zip(rows.tolist(), starts.tolist(), lens.tolist()):
            lru = self._tags[row, self._valid[row]].tolist()
            # In pieces: Python keeps a list this short in its own
            # pools; a longer one is a malloc block, which once freed
            # can hold the heap up.
            for lo in range(s0, s0 + sl, _REPLAY_PIECE):
                hi = min(lo + _REPLAY_PIECE, s0 + sl)
                seg_hits = []
                for k in keys[lo:hi].tolist():
                    hit = k in lru
                    if hit:
                        lru.remove(k)
                    elif len(lru) == W:
                        del lru[0]
                    lru.append(k)
                    seg_hits.append(hit)
                hits[lo:hi] = seg_hits
            self._valid[row] = False
            self._valid[row, W - len(lru) :] = True
            self._tags[row, W - len(lru) :] = lru

    # ---------------------------------------------------------------- probes

    def contains(self, keys: np.ndarray, shard=None) -> np.ndarray:
        """Non-mutating membership probe for ``keys`` on their shard."""
        keys = np.asarray(keys, dtype=ADDR_DTYPE)
        rows = self._rows(keys, shard).astype(np.intp, copy=False)
        return (self._valid[rows] & (self._tags[rows] == keys[:, None])).any(axis=1)


def engine_sets(
    capacity_entries: int, ways: int = 1, *, exact_assoc: bool = False
) -> int:
    """The set count of an engine of ``capacity_entries`` entries per
    shard and ``ways`` ways; a ``ValueError`` if there is none."""
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    if not is_pow2(capacity_entries):
        raise ValueError(f"capacity must be a power of two, got {capacity_entries}")
    if ways != 1 and not exact_assoc:
        raise ValueError(
            f"ways={ways} needs exact_assoc=True: the default engine is "
            "direct-mapped (MachineConfig: tlb_ways / cache_ways with "
            "exact_assoc)"
        )
    if capacity_entries % ways:
        raise ValueError(f"capacity {capacity_entries} is not divisible by ways={ways}")
    return capacity_entries // ways


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
    nsets = engine_sets(capacity_entries, ways, exact_assoc=exact_assoc)
    if not exact_assoc:
        return VectorDirectMapped(nsets, shards)
    return VectorSetAssoc(nsets, ways, shards)
