"""Synthetic access-pattern building blocks.

The Table III workloads are composed from a handful of primitives:
bounded Zipfian page popularity (key-value skew, graph-degree skew),
uniform random sparsity (GUPS, Monte Carlo lookups), sequential and
strided sweeps (scans, stencils), and read-modify-write expansion;
:class:`StreamBuilder` turns them into one interleaved access stream.
"""

from __future__ import annotations

import numpy as np

from ..memsim.address import ADDR_DTYPE, LINE_SHIFT, LINES_PER_PAGE, PAGE_SHIFT
from ..memsim.events import AccessBatch
from ..memsim.page_table import VMA

__all__ = [
    "BoundedZipf",
    "uniform_pages",
    "sequential_sweep",
    "windowed_sweep",
    "strided_sweep",
    "rmw_expand",
    "CHUNK",
    "interleave_pieces",
    "StreamBuilder",
]

#: Accesses per interleave piece: one process's turn on the machine.
CHUNK = 256


class BoundedZipf:
    """Zipfian sampling over ranks ``0..n-1`` with exponent ``alpha``.

    ``P(rank=k) ∝ 1/(k+1)^alpha``.  Rank 0 is hottest.  A fixed random
    permutation (drawn once from ``perm_rng``) maps ranks to page
    indices so the hot set is scattered through the address space, as
    hash-distributed keys or degree-skewed graph nodes would be.
    """

    def __init__(
        self,
        n: int,
        alpha: float = 1.0,
        perm_rng: np.random.Generator | None = None,
    ):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.n = int(n)
        self.alpha = float(alpha)
        weights = 1.0 / np.power(np.arange(1, self.n + 1, dtype=np.float64), alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if perm_rng is None:
            self._perm = None
        else:
            self._perm = perm_rng.permutation(self.n)

    def sample_ranks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` ranks (0 = hottest)."""
        return np.searchsorted(self._cdf, rng.random(size), side="right")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` page indices in ``[0, n)``."""
        ranks = self.sample_ranks(rng, size)
        if self._perm is None:
            return ranks
        return self._perm[ranks]


def uniform_pages(rng: np.random.Generator, n_pages: int, size: int) -> np.ndarray:
    """Uniform random page indices in ``[0, n_pages)`` (GUPS-style)."""
    return rng.integers(0, n_pages, size=size, dtype=np.int64)


def sequential_sweep(n_pages: int, size: int, start: int = 0) -> np.ndarray:
    """``size`` page indices sweeping ``[0, n_pages)`` circularly.

    Each page is visited in order, possibly multiple consecutive times
    when ``size > n_pages`` (dwell), or as a truncated prefix otherwise.
    """
    if n_pages < 1:
        raise ValueError(f"n_pages must be >= 1, got {n_pages}")
    if size <= n_pages:
        return (np.arange(size, dtype=np.int64) + start) % n_pages
    dwell = size // n_pages
    idx = np.repeat(np.arange(n_pages, dtype=np.int64), dwell)
    rem = size - idx.size
    if rem:
        idx = np.concatenate([idx, np.arange(rem, dtype=np.int64)])
    return (idx + start) % n_pages


def windowed_sweep(
    n_pages: int, size: int, dwell: int, start: int = 0
) -> np.ndarray:
    """Sequential sweep with ``dwell`` consecutive accesses per page.

    Models a scan that reads multiple cache lines from each page before
    advancing (the dominant pattern of streaming/stencil codes): a
    dwell of *d* means only 1-in-*d* accesses can TLB-miss.  The window
    covered is ``size // dwell`` pages starting at ``start`` (circular).
    """
    if dwell < 1:
        raise ValueError(f"dwell must be >= 1, got {dwell}")
    n_window = max(1, size // dwell)
    pages = (start + np.arange(n_window, dtype=np.int64)) % n_pages
    out = np.repeat(pages, dwell)
    if out.size < size:
        out = np.concatenate([out, np.full(size - out.size, pages[-1], dtype=np.int64)])
    return out[:size]


def strided_sweep(n_pages: int, size: int, stride: int, start: int = 0) -> np.ndarray:
    """Strided circular sweep (column-major stencil sweeps, SoA codes)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return (start + np.arange(size, dtype=np.int64) * stride) % n_pages


def rmw_expand(pages: np.ndarray, rng: np.random.Generator, store_fraction: float = 1.0):
    """Expand update targets into read-modify-write (load, store) pairs.

    Returns ``(pages2, is_store)`` where each input page appears twice
    consecutively: a load then (with probability ``store_fraction``) a
    store.
    """
    pages = np.asarray(pages, dtype=np.int64)
    pages2 = np.repeat(pages, 2)
    is_store = np.zeros(pages2.size, dtype=bool)
    writes = rng.random(pages.size) < store_fraction
    is_store[1::2] = writes
    return pages2, is_store


def _runs(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The runs ``[first, first + length)``, concatenated (at least one
    run): one ``arange`` over them all, each run shifted to its first
    value."""
    end = length.cumsum()
    idx = np.arange(end[-1], dtype=np.int64)
    idx += (first - end + length).repeat(length)
    return idx


def interleave_pieces(
    lengths, rng: np.random.Generator, chunk: int = CHUNK
) -> tuple[np.ndarray, np.ndarray | None]:
    """Streams laid end to end, cut for interleaving: where each piece
    starts, in stream order (the pieces tile the streams), and the
    ``order`` the pieces run in.

    Each stream is cut into ``chunk``-sized pieces; pieces are merged in
    a random global order that preserves each stream's internal order —
    a round-robin-with-jitter model of concurrent execution.  With fewer
    than two non-empty streams there is nothing to interleave: ``order``
    is None, and nothing is drawn.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    first = lengths.cumsum()
    first -= lengths
    live = lengths > 0
    first, lengths = first[live], lengths[live]
    if lengths.size < 2:
        return first, None
    wide = -(-np.maximum.reduce(lengths) // chunk)
    if wide == 1:
        # One piece per stream: its jitter is its position.
        order = rng.uniform(0.5, 1.5, lengths.size).argsort(kind="stable")
        return first, order
    # One row per stream, one column per piece: piece k starts at
    # ``k * chunk`` if the stream is that long.
    skip = np.arange(wide) * chunk
    grid = skip < lengths[:, None]
    # Jittered timeline position of each piece: cumulative within its
    # stream, so each keeps its order, while shuffling across them.  One
    # draw, in stream order; a row's running sum adds in sequence, just
    # as a cumsum per stream would.  Ties fall to the earlier stream
    # (stable sort).
    jitter = np.zeros(grid.shape)
    jitter[grid] = rng.uniform(0.5, 1.5, np.count_nonzero(grid))
    order = jitter.cumsum(axis=1)[grid].argsort(kind="stable")
    return (first[:, None] + skip)[grid], order


class StreamBuilder:
    """One access stream — an epoch's, or a population phase's — built
    once.

    A workload records *segments* with :meth:`add` (page indices on one
    VMA, with a ``pid``, ``cpu``, ``ip`` tag and store flag or column)
    and closes one interleave stream, a process's epoch or one region
    of the population phase, with :meth:`end_stream`.  :meth:`build`
    then checks, joins and interleaves the segments' columns once: a
    segment costs a list entry until then, whatever the workload's
    process count.

    Every access gets a random line offset, and every draw a workload
    makes goes through :attr:`rng`, which first draws the offsets of
    the segments added since the last draw, in one call.  The offsets
    therefore sit in the generator's sequence exactly where one draw
    per segment, right after its pages, would put them: bounded
    ``int64`` integers below 2**32 take one 32-bit word per value and
    carry nothing between calls but the generator's state, so one call
    over a run of segments equals one call each.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        #: Per segment, in the order added: ``(pages, VMA, pid, cpu, ip,
        #: store flag or column, at)``.
        self._segments: list[tuple] = []
        #: Per closed stream: segments added by its end, and its length.
        self._streams: list[tuple[int, int]] = []
        self._n_segments = 0
        # Accesses added, and where the open stream and the line
        # offsets drawn so far end in them.
        self._added = self._closed = self._drawn = 0
        self._offsets: list[np.ndarray] = []
        # Whether a segment was placed with ``at``.
        self._moved = False

    @property
    def rng(self) -> np.random.Generator:
        """The generator, once the pending line offsets are drawn."""
        if self._added > self._drawn:
            self._offsets.append(
                self._rng.integers(
                    0, LINES_PER_PAGE, size=self._added - self._drawn, dtype=np.int64
                )
            )
            self._drawn = self._added
        return self._rng

    def add(
        self,
        vma: VMA,
        pages: np.ndarray,
        *,
        pid: int,
        cpu: int,
        is_store=False,
        ip: int = 0,
        at: int | None = None,
    ) -> None:
        """Record accesses to ``pages``, an integer array of offsets into
        ``vma`` (``0..npages-1``).  Nothing is drawn or checked here:
        :meth:`build` reads ``pages`` and an ``is_store`` column, so
        leave them be until then.

        The segment goes last in the open stream, or at position ``at``
        of it; its offsets are still drawn in the order segments are
        added.
        """
        self._segments.append((pages, vma, pid, cpu, ip, is_store, at))
        self._n_segments += 1
        self._added += pages.size
        if at is not None:
            self._moved = True

    def end_stream(self) -> None:
        """Close the open stream; what is added next is another one."""
        self._streams.append((self._n_segments, self._added - self._closed))
        self._closed = self._added

    def build(self) -> AccessBatch:
        """The streams, interleaved.  Segments still open form the last
        stream.

        Every page index is checked against its VMA first, all at once:
        one out of range, or negative, raises ``ValueError`` naming the
        VMA, as does an ``is_store`` column of the wrong length, before
        anything is drawn.
        """
        segments = self._segments
        if not self._streams or self._streams[-1][0] < self._n_segments:
            self.end_stream()
        total = self._added
        if not total:
            return AccessBatch.empty()
        pages, vmas, pid, cpu, ip, store, at = zip(*segments)
        segments.clear()
        sizes = [p.size for p in pages]
        n = np.array(sizes)
        added_at = n.cumsum()
        added_at -= n
        region = np.array(
            [(vma.start_vpn, vma.npages) for vma in vmas], dtype=ADDR_DTYPE
        )

        # The address column as added, and one range check over it: each
        # segment's largest index against its VMA.  Unsigned, a negative
        # index is a huge one, so the one bound covers both ends.
        vaddr = np.concatenate(pages, dtype=np.int64).view(ADDR_DTYPE)
        del pages
        live = (n > 0).nonzero()[0]
        outside = np.maximum.reduceat(vaddr, added_at[live]) >= region[live, 1]
        if outside.any():
            vma = vmas[live[outside.argmax()]]
            raise ValueError(
                f"page indices out of range for VMA {vma.name!r} "
                f"({vma.npages} pages)"
            )
        vaddr += region[:, 0].repeat(n)
        is_store = np.zeros(total, dtype=bool)
        lo = 0
        for size, flag in zip(sizes, store):
            if flag is not False:
                if not isinstance(flag, (bool, np.bool_)) and len(flag) != size:
                    raise ValueError(
                        f"column 'is_store' has length {len(flag)}, expected {size}"
                    )
                is_store[lo : lo + size] = flag
            lo += size

        rng = self.rng  # the last offsets are drawn before the interleave's
        offsets = np.concatenate(self._offsets)
        self._offsets.clear()
        offsets <<= LINE_SHIFT
        vaddr <<= ADDR_DTYPE(PAGE_SHIFT)
        vaddr |= offsets.view(ADDR_DTYPE)
        del offsets

        # Where each access of the interleaved stream comes from, as
        # runs that each lie in one piece and one segment.  The pieces
        # cut the streams laid end to end, each in its own order of
        # segments: the order added, unless one was placed with ``at``.
        laid = np.array(self._layout(at)) if self._moved else None
        if laid is None:
            seg_at = added_at
        else:
            seg_at = n[laid].cumsum()
            seg_at -= n[laid]
        first, order = interleave_pieces([length for _, length in self._streams], rng)
        # Of equal starts (a stream's first piece and segment, empty
        # segments) the last is kept, and the end mark goes.
        cut = np.concatenate((first, seg_at, [total]))
        cut.sort()
        keep = cut[1:] != cut[:-1]
        start = cut[:-1][keep]
        length = cut[1:][keep]
        length -= start
        seg = seg_at.searchsorted(start, side="right") - 1
        if order is not None:
            # Runs in output order: by their piece's turn, in order
            # within it.
            turn = np.empty_like(order)
            turn[order] = np.arange(order.size)
            piece = first.searchsorted(start, side="right") - 1
            by_turn = turn[piece].argsort(kind="stable")
            start, length, seg = start[by_turn], length[by_turn], seg[by_turn]
        if laid is not None:
            start += (added_at[laid] - seg_at)[seg]
            seg = laid[seg]
        if order is not None or laid is not None:
            idx = _runs(start, length)
            vaddr, is_store = vaddr.take(idx), is_store.take(idx)

        def per_run(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype)[seg].repeat(length)

        return AccessBatch.of_columns(
            vaddr,
            is_store,
            per_run(pid, np.int32),
            per_run(cpu, np.int16),
            per_run(ip, ADDR_DTYPE),
        )

    def _layout(self, at) -> list[int]:
        """Every stream's segment numbers in the order it runs them."""
        laid, lo = [], 0
        for hi, _ in self._streams:
            stream: list[int] = []
            for segment in range(lo, hi):
                where = at[segment]
                stream.insert(len(stream) if where is None else where, segment)
            laid += stream
            lo = hi
        return laid
