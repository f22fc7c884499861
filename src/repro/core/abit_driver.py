"""TMP's A-bit driver: periodic page-table scans.

Mirrors §III-B.2: an ``mm_walk``-registered callback
(``gather_a_history``) visits valid PTEs, test-and-clears the accessed
bit (``TestClearPageReferenced``), and credits set bits to the page
descriptor.  Two design points the paper calls out are modeled
faithfully:

* **No TLB shootdown after clearing** (default).  Translations still
  resident in a TLB keep servicing accesses without page walks, so the
  A bit's next setting is delayed until natural eviction — cheap but
  slightly lossy.  A config flag restores the shootdown for software
  that needs precision (at IPI cost).
* **Bounded scan budget.**  Walk overhead is proportional to the number
  of PTEs traversed (Table I), so each scan pass visits at most
  ``abit_scan_budget_pages`` PTEs per process, resuming from a cursor
  on the next pass.  This keeps overhead flat for huge-footprint
  processes — and explains why a budgeted scan detects a near-constant
  page count for the 4-120 GB HPC runs in Table IV while IBS keeps
  finding more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memsim.machine import Machine
from ..memsim.pte import PTE_ACCESSED
from .config import TMPConfig
from .page_stats import PageStatsStore

__all__ = ["ABitDriver", "ABitScanStats"]


@dataclass
class ABitScanStats:
    """Cumulative A-bit driver counters."""

    scans: int = 0
    processes_scanned: int = 0
    ptes_visited: int = 0
    bits_found_set: int = 0
    shootdowns: int = 0
    time_s: float = 0.0


class ABitDriver:
    """Scans tracked processes' page tables for accessed bits."""

    def __init__(self, machine: Machine, config: TMPConfig, store: PageStatsStore):
        self.machine = machine
        self.config = config
        self.store = store
        self.enabled = config.abit_enabled
        self.stats = ABitScanStats()
        #: Resumable per-PID scan cursor (slot index).
        self._cursors: dict[int, int] = {}

    def scan(self, pids) -> int:
        """Run one scan pass over ``pids``; return pages found accessed.

        Each process contributes at most the configured budget of PTEs;
        the cursor wraps so successive passes cover the whole table.
        The walk itself is per process (PTE flags are, and so is the
        cost model: its float additions happen per process, in walk
        order); what the pass found is credited to the store once.
        """
        if not self.enabled:
            return 0
        costs = self.config.costs
        budget = self.config.abit_scan_budget_pages
        found: list[np.ndarray] = []
        self.stats.scans += 1
        for pid in pids:
            pt = self.machine.page_tables.get(int(pid))
            if pt is None or pt.n_pages == 0:
                continue
            self.stats.processes_scanned += 1
            self.stats.time_s += costs.abit_per_scan_s

            n = pt.n_pages
            if self.config.abit_scan_resumable:
                start = self._cursors.get(pid, 0) % n
            else:
                start = 0  # head-restart: the same bounded window each pass
            span = n if budget is None else min(budget, n)
            self._cursors[pid] = (start + span) % n

            flags = pt.flags
            # gather_a_history: test-and-clear the accessed bit.
            if start + span <= n:
                # The window does not wrap (it never does from the table
                # head): test and clear it in place, as a slice.
                window = flags[start : start + span]
                set_slots = (window & PTE_ACCESSED).nonzero()[0]
                window &= ~PTE_ACCESSED
                if start:
                    set_slots += start
            else:
                idx = (start + np.arange(span, dtype=np.int64)) % n
                visited = flags[idx]
                set_slots = idx[(visited & PTE_ACCESSED) != 0]
                flags[idx] = visited & ~PTE_ACCESSED

            self.stats.ptes_visited += span
            self.stats.time_s += span * costs.abit_per_pte_s

            if set_slots.size == 0:
                continue
            found.append(pt.slot_to_pfn(set_slots))
            if self.config.abit_shootdown:
                # Precise mode: flush the cleared translations so the
                # very next access walks again (one IPI round per PID).
                vpns = pt.slot_to_vpn(set_slots)
                self.machine.tlb.shootdown_pages(
                    np.full(vpns.size, pid, dtype=np.int32), vpns
                )
                self.stats.shootdowns += 1
                self.stats.time_s += costs.shootdown_s

        if not found:
            return 0
        pfns = np.concatenate(found)
        self.store.record_abit(pfns)
        self.stats.bits_found_set += int(pfns.size)
        return int(pfns.size)

    def reset_cursors(self) -> None:
        """Restart all scan cursors from slot 0."""
        self._cursors.clear()
