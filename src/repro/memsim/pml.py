"""Intel Page-Modification Logging.

When PML is active, each write that transitions a page's D bit from 0
to 1 also appends the write's physical address (4 KiB-aligned) to an
in-memory log; when the 512-entry log fills, the CPU notifies system
software (§II-B).  The machine feeds this logger with the newly-dirtied
PFNs reported by the page-table walker.

PML is a write-set mechanism: the log only grows while D bits keep
*transitioning*, so a consumer that wants a write-rate signal must
periodically clear D bits (the hypervisor pattern the Intel white paper
describes).  :meth:`clear_dirty` provides that reset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .address import ADDR_DTYPE
from .page_table import PageTable, PTEColumns
from .pte import PTE_DIRTY

__all__ = ["PMLogger", "PMLStats", "PML_LOG_ENTRIES"]

#: Architectural PML log size (512 entries of 8 bytes — one 4K page).
PML_LOG_ENTRIES = 512


@dataclass
class PMLStats:
    """Cumulative PML event counters."""

    logged: int = 0
    notifications: int = 0


class PMLogger:
    """Accumulates D-bit-set events into a bounded log."""

    def __init__(self, log_entries: int = PML_LOG_ENTRIES):
        if log_entries < 1:
            raise ValueError(f"log_entries must be >= 1, got {log_entries}")
        self.log_entries = int(log_entries)
        self.enabled = True
        self.stats = PMLStats()
        self._pending: list[np.ndarray] = []
        self._pending_n = 0

    def observe_dirty(self, pfns: np.ndarray) -> None:
        """Log newly-dirtied frames (one entry per D-bit 0→1 transition)."""
        if not self.enabled:
            return
        pfns = np.asarray(pfns, dtype=ADDR_DTYPE)
        if pfns.size == 0:
            return
        before = self._pending_n
        self._pending.append(pfns)
        self._pending_n += pfns.size
        self.stats.logged += int(pfns.size)
        self.stats.notifications += (
            self._pending_n // self.log_entries - before // self.log_entries
        )

    def drain(self) -> np.ndarray:
        """Return and clear all logged PFNs (in log order)."""
        if not self._pending:
            return np.zeros(0, dtype=ADDR_DTYPE)
        out = np.concatenate(self._pending)
        self._pending = []
        self._pending_n = 0
        return out

    @property
    def pending(self) -> int:
        """Entries currently in the log."""
        return self._pending_n

    @staticmethod
    def clear_dirty(pt: PageTable | PTEColumns) -> int:
        """Clear every D bit in a page table, or in a whole machine's
        column (``Machine.pte``); return how many were set.

        Re-arms the log for the next write-tracking interval.
        """
        flags = pt.flags
        was_dirty = (flags & PTE_DIRTY) != 0
        flags &= ~PTE_DIRTY
        return int(np.count_nonzero(was_dirty))
