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
from ..memsim.page_table import PageTable
from ..memsim.pte import PTE_ACCESSED
from .config import TMPConfig
from .page_stats import PageStatsStore

__all__ = ["ABitDriver", "ABitScanStats"]


def _runs(first: list[int], length: list[int]) -> np.ndarray:
    """The runs ``[first, first + length)``, concatenated: one
    ``arange`` over them all, each run shifted to its first value."""
    shift, at = [], 0
    for f, n in zip(first, length):
        shift.append(f - at)
        at += n
    idx = np.arange(at, dtype=np.int64)
    idx += np.repeat(np.array(shift, dtype=np.int64), length)
    return idx


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
        Cursors and the cost model stay per process (its float additions
        happen in walk order); the walk itself is one gather and one
        test-and-clear over every window at once in the machine's PTE
        column, and what it found is credited to the store once.
        """
        if not self.enabled:
            return 0
        costs = self.config.costs
        budget = self.config.abit_scan_budget_pages
        pte = self.machine.pte
        self.stats.scans += 1
        # Each visited process's window, as column runs: [from, from +
        # length), two when the window wraps past the table's end.
        windows: list[tuple[int, PageTable, int]] = []
        run_from: list[int] = []
        run_len: list[int] = []
        page_tables = self.machine.page_tables
        resumable = self.config.abit_scan_resumable
        for pid in pids:
            pt = page_tables.get(int(pid))
            n = 0 if pt is None else pt.n_pages
            if n == 0:
                continue
            if resumable:
                start = self._cursors.get(pid, 0) % n
            else:
                start = 0  # head-restart: the same bounded window each pass
            span = n if budget is None or budget > n else budget
            self._cursors[pid] = (start + span) % n
            windows.append((pid, pt, span))
            head = n - start
            run_from.append(pt.base + start)
            if head < span:
                run_len.append(head)
                run_from.append(pt.base)
                run_len.append(span - head)
            else:
                run_len.append(span)

        if not windows:
            return 0

        # gather_a_history: test-and-clear the accessed bit.
        idx = _runs(run_from, run_len)
        visited = pte.flags[idx]
        at = (visited & PTE_ACCESSED).nonzero()[0]
        set_slots = idx[at]
        if len({pt.pid for _, pt, _ in windows}) < len(windows):
            # A process visited twice finds its bits already cleared by
            # the first visit: credit each slot at its first visit only.
            _, first = np.unique(set_slots, return_index=True)
            first.sort()
            at, set_slots = at[first], set_slots[first]
        pte.flags[set_slots] = visited[at] & ~PTE_ACCESSED

        shootdown = self.config.abit_shootdown
        if shootdown:
            # Window i found set_slots[cuts[i] : cuts[i + 1]].
            ends = np.cumsum([span for _, _, span in windows])
            cuts = [0, *np.searchsorted(at, ends).tolist()]
        for i, (pid, pt, span) in enumerate(windows):
            self.stats.processes_scanned += 1
            self.stats.time_s += costs.abit_per_scan_s
            self.stats.ptes_visited += span
            self.stats.time_s += span * costs.abit_per_pte_s
            if shootdown and cuts[i] < cuts[i + 1]:
                # Precise mode: flush the cleared translations so the
                # very next access walks again (one IPI round per PID).
                vpns = pt.slot_to_vpn(set_slots[cuts[i] : cuts[i + 1]] - pt.base)
                self.machine.tlb.shootdown_pages(
                    np.full(vpns.size, pid, dtype=np.int32), vpns
                )
                self.stats.shootdowns += 1
                self.stats.time_s += costs.shootdown_s

        if set_slots.size == 0:
            return 0
        pfns = pte.slot_pfn[set_slots]
        self.store.record_abit(pfns)
        self.stats.bits_found_set += int(pfns.size)
        return int(pfns.size)
