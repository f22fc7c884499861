"""Physical frame allocation and per-frame bookkeeping.

The machine hands out physical frames eagerly when a VMA is mapped, in
ascending PFN order, and frames are never recycled within a simulation
run.  PFNs therefore double as stable global page identities: the page
descriptor store (``repro.core.page_stats``), the tier placement map
(``repro.tiering.placement``) and the heatmap/CDF analyses all index by
PFN.

``FrameStats`` counts the *ground truth* of each batch per frame,
regardless of which profilers are armed, and stamps every frame's first
touch.  Ground truth feeds the Oracle policy and the accuracy metrics;
the profilers under evaluation only ever see their own (partial)
sampled views.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .address import ADDR_DTYPE

__all__ = ["BatchFrameCounts", "FrameAllocator", "FrameStats", "GrowableArray"]


class BatchFrameCounts(NamedTuple):
    """One batch's per-frame counts (PFN-indexed, read-only).

    Computed once, by :meth:`FrameStats.record`; the machine hands the
    same arrays to :class:`~repro.memsim.machine.BatchResult`.
    """

    access: np.ndarray
    mem: np.ndarray
    tlb_miss: np.ndarray


def _count_frames(pf: np.ndarray, n_frames: int) -> np.ndarray:
    counts = np.bincount(pf, minlength=n_frames)
    counts.flags.writeable = False
    return counts


class GrowableArray:
    """A 1-D numpy array that grows geometrically as frames are added.

    Reads and vectorized updates go through :meth:`data`, which returns
    a view trimmed to the current logical length.
    """

    def __init__(self, dtype, fill=0, initial_capacity: int = 1024):
        self._dtype = np.dtype(dtype)
        self._fill = fill
        self._buf = np.full(int(initial_capacity), fill, dtype=self._dtype)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def resize(self, n: int) -> None:
        """Grow the logical length to ``n`` (no-op if already larger)."""
        if n <= self._len:
            return
        if n > self._buf.size:
            cap = max(n, self._buf.size * 2)
            newbuf = np.full(cap, self._fill, dtype=self._dtype)
            newbuf[: self._len] = self._buf[: self._len]
            self._buf = newbuf
        self._len = n

    def data(self) -> np.ndarray:
        """View of the live portion of the array."""
        return self._buf[: self._len]

    def fill(self, value) -> None:
        """Set every live element to ``value``."""
        self._buf[: self._len] = value


class FrameAllocator:
    """Monotonic physical-frame allocator.

    Parameters
    ----------
    total_frames:
        Hard cap on the number of frames (the machine's physical memory
        size in pages); exceeding it raises ``MemoryError``.
    """

    def __init__(self, total_frames: int):
        if total_frames <= 0:
            raise ValueError(f"total_frames must be positive, got {total_frames}")
        self.total_frames = int(total_frames)
        self._next = 0

    @property
    def allocated(self) -> int:
        """Number of frames handed out so far."""
        return self._next

    @property
    def free(self) -> int:
        """Number of frames still available."""
        return self.total_frames - self._next

    def alloc(self, n: int) -> int:
        """Allocate ``n`` contiguous frames; return the base PFN."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if self._next + n > self.total_frames:
            raise MemoryError(
                f"out of physical frames: requested {n}, "
                f"free {self.free} of {self.total_frames}"
            )
        base = self._next
        self._next += n
        return base


class FrameStats:
    """The machine's ground truth: per-batch frame counts and first touches.

    ``first_touch_op`` is PFN-indexed, grown as frames are allocated:
    the global op index of the frame's first access (``UINT64_MAX``
    until touched).  It drives the first-come-first-allocate baseline.
    Counts are per batch only (:meth:`record` returns them); whoever
    needs them over a span sums them, as ``ProfiledRun`` does per epoch.
    """

    _NEVER = np.uint64(np.iinfo(np.uint64).max)

    def __init__(self):
        self._first = GrowableArray(ADDR_DTYPE, fill=self._NEVER)

    def resize(self, n_frames: int) -> None:
        """Ensure stamps exist for PFNs ``[0, n_frames)``."""
        self._first.resize(n_frames)

    def __len__(self) -> int:
        return len(self._first)

    @property
    def first_touch_op(self) -> np.ndarray:
        return self._first.data()

    def touched_mask(self) -> np.ndarray:
        """Boolean mask of frames that have ever been accessed."""
        return self._first.data() != self._NEVER

    def record(
        self,
        pfns: np.ndarray,
        mem_mask: np.ndarray,
        tlb_miss_mask: np.ndarray,
        op_base: int,
    ) -> BatchFrameCounts:
        """Count one executed batch per frame and stamp its first touches.

        ``pfns`` are per-access frame numbers; the masks are per-access
        booleans aligned with ``pfns``; ``op_base`` is the global op
        index of the batch's first access (used for first-touch
        stamps).  Returns the batch's own per-frame counts, so nobody
        downstream has to count the batch again.
        """
        n = len(self._first)
        pf = pfns.astype(np.intp, copy=False)
        counts = BatchFrameCounts(
            access=_count_frames(pf, n),
            mem=_count_frames(pf[mem_mask], n),
            tlb_miss=_count_frames(pf[tlb_miss_mask], n),
        )
        if pfns.size == 0:
            return counts

        # First touches: a frame the batch counted that has no stamp
        # yet.  Asked per frame first, so a batch over known frames
        # (every batch after warm-up) never scans its accesses.
        first = self._first.data()
        if ((counts.access != 0) & (first == self._NEVER)).any():
            untouched = np.flatnonzero(first[pf] == self._NEVER)
            # First position in the batch at which each new frame appears.
            new_pfns, first_pos = np.unique(pf[untouched], return_index=True)
            first[new_pfns] = ADDR_DTYPE(op_base) + untouched[first_pos].astype(
                ADDR_DTYPE
            )
        return counts
