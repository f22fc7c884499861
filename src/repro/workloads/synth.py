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
    """The runs ``[first, first + length)``, concatenated: one
    ``arange`` over them all, each run shifted to its first value."""
    at = np.cumsum(length)
    at -= length
    idx = np.arange(int(length.sum()), dtype=np.int64)
    idx += np.repeat(first - at, length)
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
    # One row per stream, one column per piece: piece k starts at
    # ``k * chunk`` if the stream is that long.
    skip = np.arange(-(-lengths.max() // chunk)) * chunk
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


def _placement(first, order, n, layout, total):
    """Where each access of the interleaved stream comes from: the
    gather index into the columns as built (segments in the order
    added, ``n`` accesses each), and the stream as runs of one segment
    each (``seg``, ``length``).

    The pieces' ``first`` are "laid" positions: streams end to end, each
    in its ``layout`` order of segments.  ``shift`` takes a segment's
    laid positions to its added ones.
    """
    layout = np.array(layout)
    layout = layout[n[layout] > 0]
    seg_at = n[layout].cumsum()
    seg_at -= n[layout]
    shift = n.cumsum()
    shift -= n
    shift[layout] -= seg_at
    # Cut the pieces where segments start: each run then lies in one
    # piece and one segment.  (A stream's first piece and segment start
    # together; keeping the last of equal starts drops the end mark.)
    at = np.concatenate((first, seg_at, [total]))
    at.sort()
    at = at[np.flatnonzero(at[1:] != at[:-1])]
    length = np.append(at[1:], total) - at
    seg = layout[seg_at.searchsorted(at, side="right") - 1]
    if order is not None:
        # Runs in output order: by their piece's turn, in order within it.
        turn = np.empty_like(order)
        turn[order] = np.arange(order.size)
        by_turn = turn[first.searchsorted(at, side="right") - 1].argsort(kind="stable")
        at, length, seg = at[by_turn], length[by_turn], seg[by_turn]
    return _runs(at + shift[seg], length), seg, length


class StreamBuilder:
    """One access stream — an epoch's, or a population phase's — built
    once.

    A workload records *segments* with :meth:`add` (page indices on one
    VMA, with a ``pid``, ``cpu``, ``ip`` tag and store flag or column)
    and closes one interleave stream, a process's epoch or one region
    of the population phase, with :meth:`end_stream`.  :meth:`build`
    then makes each column once, interleaved.

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
        #: Per segment, in the order added: ``(pages, VMA base, pid,
        #: cpu, ip, store flag or column)``.
        self._segments: list[tuple] = []
        # Line offsets drawn so far, and accesses added since the last draw.
        self._offsets: list[np.ndarray] = []
        self._pending = 0
        # Streams as segment numbers in layout order: the closed ones
        # with their lengths, and the open one.
        self._streams: list[list[int]] = []
        self._lengths: list[int] = []
        self._open: list[int] = []
        self._open_length = 0

    @property
    def rng(self) -> np.random.Generator:
        """The generator, once the pending line offsets are drawn."""
        if self._pending:
            self._offsets.append(
                self._rng.integers(0, LINES_PER_PAGE, size=self._pending, dtype=np.int64)
            )
            self._pending = 0
        return self._rng

    def add(
        self,
        vma: VMA,
        pages,
        *,
        pid: int,
        cpu: int,
        is_store=False,
        ip: int = 0,
        at: int | None = None,
    ) -> None:
        """Record accesses to ``pages``, offsets into ``vma``
        (``0..npages-1``).  Nothing is drawn here, and ``pages`` is kept
        as given until :meth:`build` copies it: do not write to it.

        The segment goes last in the open stream, or at position ``at``
        of it; its offsets are still drawn in the order segments are
        added.
        """
        pages = np.asarray(pages, dtype=np.int64)
        # Unsigned, a negative index is a huge one: a single bound
        # covers both ends.
        if pages.size and pages.view(ADDR_DTYPE).max() >= vma.npages:
            raise ValueError(
                f"page indices out of range for VMA {vma.name!r} "
                f"({vma.npages} pages)"
            )
        if not isinstance(is_store, (bool, np.bool_)):
            is_store = np.asarray(is_store, dtype=bool)
            if is_store.shape != pages.shape:
                raise ValueError(
                    f"column 'is_store' has length {is_store.size}, "
                    f"expected {pages.size}"
                )
        self._open.insert(len(self._open) if at is None else at, len(self._segments))
        self._segments.append((pages, vma.start_vpn, pid, cpu, ip, is_store))
        self._open_length += pages.size
        self._pending += pages.size

    def end_stream(self) -> None:
        """Close the open stream; what is added next is another one."""
        self._streams.append(self._open)
        self._lengths.append(self._open_length)
        self._open, self._open_length = [], 0

    def build(self) -> AccessBatch:
        """The streams, interleaved.  Segments still open form the last
        stream."""
        if self._open:
            self.end_stream()
        rng = self.rng  # the last offsets are drawn before the interleave's
        total = sum(self._lengths)
        if not total:
            return AccessBatch.empty()
        first, order = interleave_pieces(self._lengths, rng)
        pages, base, pid, cpu, ip, store = zip(*self._segments)
        self._segments.clear()
        n = np.array([p.size for p in pages], dtype=np.int64)
        layout = [seg for stream in self._streams for seg in stream]
        idx, seg, length = _placement(first, order, n, layout, total)

        def per_segment(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype)[seg].repeat(length)

        # The address and store columns as added, then one gather each;
        # the constant columns come straight out in output order.
        vaddr = np.concatenate(pages).view(ADDR_DTYPE)
        del pages
        vaddr += np.array(base, dtype=ADDR_DTYPE).repeat(n)
        vaddr <<= ADDR_DTYPE(PAGE_SHIFT)
        lo = 0
        for offsets in self._offsets:
            offsets <<= LINE_SHIFT
            vaddr[lo : lo + offsets.size] |= offsets.view(ADDR_DTYPE)
            lo += offsets.size
        self._offsets.clear()
        is_store = np.zeros(total, dtype=bool)
        lo = 0
        for size, flag in zip(n.tolist(), store):
            if flag is not False:
                is_store[lo : lo + size] = flag
            lo += size
        return AccessBatch.of_columns(
            vaddr.take(idx),
            is_store.take(idx),
            per_segment(pid, np.int32),
            per_segment(cpu, np.int16),
            per_segment(ip, ADDR_DTYPE),
        )
