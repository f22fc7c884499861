"""Per-page profile accumulation — the extended page descriptor.

The paper stores TMP's per-page counters by extending the kernel's page
descriptor (``struct page``) and reaching it via ``phys_to_page()``
(§III-B.1).  Our analogue: PFN-indexed numpy arrays, with both
*cumulative* (whole-run) and *epoch-local* accumulators per mechanism.
The epoch-local view is what policies consume (Table II's policies are
epoch-based); the cumulative view feeds the CDFs and Table IV counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memsim.frames import GrowableArray

__all__ = ["PageStatsStore", "EpochProfile"]


@dataclass
class EpochProfile:
    """Frozen per-page profile for one finished epoch."""

    epoch: int
    #: Pages detected by the A-bit scan this epoch (count of scans that
    #: found the bit set), PFN-indexed.
    abit: np.ndarray
    #: Trace (IBS/PEBS) samples attributed to each page this epoch.
    trace: np.ndarray

    def rank(self, abit_weight: float = 1.0, trace_weight: float = 1.0) -> np.ndarray:
        """Fused hotness rank for the epoch (§IV step 1)."""
        return abit_weight * self.abit + trace_weight * self.trace


class PageStatsStore:
    """PFN-indexed accumulation of profiling observations."""

    def __init__(self):
        self._abit_total = GrowableArray(np.int64)
        self._trace_total = GrowableArray(np.int64)
        self._abit_epoch = GrowableArray(np.int64)
        self._trace_epoch = GrowableArray(np.int64)
        self._epoch = 0

    def resize(self, n_frames: int) -> None:
        """Ensure counters exist for PFNs ``[0, n_frames)``."""
        for a in (
            self._abit_total,
            self._trace_total,
            self._abit_epoch,
            self._trace_epoch,
        ):
            a.resize(n_frames)

    def __len__(self) -> int:
        return len(self._abit_total)

    # ------------------------------------------------------------- recording

    def record_abit(self, pfns: np.ndarray) -> None:
        """Credit one A-bit observation to each PFN (duplicates allowed)."""
        self._bump(pfns, self._abit_total, self._abit_epoch)

    def record_trace(self, pfns: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Credit trace samples to PFNs (``weights`` defaults to 1 each)."""
        self._bump(pfns, self._trace_total, self._trace_epoch, weights)

    def _bump(self, pfns, total, epoch, weights=None) -> None:
        pfns = np.asarray(pfns)
        if pfns.size == 0:
            return
        pf = pfns.astype(np.intp, copy=False)
        n = len(total)
        if pf.max() >= n:
            self.resize(int(pf.max()) + 1)
            n = len(total)
        counts = np.bincount(pf, weights=weights, minlength=n)
        if counts.dtype != np.int64:
            counts = counts.astype(np.int64)
        total.data()[:] += counts
        epoch.data()[:] += counts

    # ----------------------------------------------------------------- views

    @property
    def abit_total(self) -> np.ndarray:
        """Cumulative A-bit detections per PFN."""
        return self._abit_total.data()

    @property
    def trace_total(self) -> np.ndarray:
        """Cumulative trace samples per PFN."""
        return self._trace_total.data()

    @property
    def epoch(self) -> int:
        """Index of the epoch currently accumulating."""
        return self._epoch

    def detected_pages(self, method: str = "both") -> int:
        """Cumulative count of distinct pages seen by a mechanism.

        ``method`` ∈ {"abit", "trace", "both", "either"} — "both" is
        Table IV's overlap column (pages with at least one sample from
        *each* method).
        """
        a = self.abit_total > 0
        t = self.trace_total > 0
        if method == "abit":
            mask = a
        elif method == "trace":
            mask = t
        elif method == "both":
            mask = a & t
        elif method == "either":
            mask = a | t
        else:
            raise ValueError(f"unknown method {method!r}")
        return int(np.count_nonzero(mask))

    # ---------------------------------------------------------------- epochs

    def end_epoch(self) -> EpochProfile:
        """Freeze and return this epoch's profile; start the next."""
        profile = EpochProfile(
            epoch=self._epoch,
            abit=self._abit_epoch.data().copy(),
            trace=self._trace_epoch.data().copy(),
        )
        self._abit_epoch.fill(0)
        self._trace_epoch.fill(0)
        self._epoch += 1
        return profile
