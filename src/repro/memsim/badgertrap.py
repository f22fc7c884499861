"""BadgerTrap: fault-based TLB-miss interception.

BadgerTrap (Gandhi et al.) poisons selected PTEs by setting reserved
bit 51 and flushing the translation from the TLB; the next access to
the page page-walks, faults on the poisoned entry, and the handler
counts the event, installs a valid translation in the TLB, and
re-poisons the PTE.  The per-page fault count therefore estimates the
page's TLB-miss count — which Thermostat and the paper's §VI-C
emulation framework use as an access-count proxy (with the caveat the
paper notes: TLB misses ≉ cache misses for hot pages).

In this model a fault occurs on every TLB miss to an instrumented page;
the machine routes the walker's poison-fault hits here.  Each fault
carries a fixed handler cost so BadgerTrap's characteristic overhead is
measurable, and the same machinery doubles as the slow-tier latency
injector of the paper's emulation testbed
(:mod:`repro.tiering.latency_model`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .address import ADDR_DTYPE
from .frames import GrowableArray
from .page_table import PageTable
from .pte import PTE_POISON
from .tlb import TLBArray

__all__ = ["BadgerTrap", "BadgerTrapStats"]


@dataclass
class BadgerTrapStats:
    """Cumulative BadgerTrap event counters."""

    instrumented: int = 0
    faults: int = 0

    #: Per-fault handler cost in seconds (walk + trap + fixup), used by
    #: the overhead accounting.  ~1 µs is the order of magnitude the
    #: BadgerTrap paper reports per intercepted miss.
    fault_cost_s: float = 1e-6

    @property
    def handler_time_s(self) -> float:
        return self.faults * self.fault_cost_s


class BadgerTrap:
    """PTE-poisoning instrumentation over the simulated page tables."""

    def __init__(self, fault_cost_s: float = 1e-6):
        self.stats = BadgerTrapStats(fault_cost_s=fault_cost_s)
        self._fault_counts = GrowableArray(np.int64)

    # ------------------------------------------------------------ instrument

    def instrument(self, pt: PageTable, slots: np.ndarray, tlb: TLBArray) -> None:
        """Poison the PTEs at ``slots`` and flush their translations.

        The flush is mandatory: a TLB-resident translation would keep
        servicing accesses without walking, hiding them from the trap.
        """
        slots = np.unique(np.asarray(slots, dtype=np.int64))
        if slots.size == 0:
            return
        newly = (pt.flags[slots] & PTE_POISON) == 0
        pt.flags[slots] |= PTE_POISON
        self.stats.instrumented += int(np.count_nonzero(newly))
        vpns = pt.slot_to_vpn(slots)
        tlb.shootdown_pages(np.full(vpns.size, pt.pid, dtype=np.int32), vpns)

    # ----------------------------------------------------------------- fault

    def handle_faults(self, pfns: np.ndarray) -> None:
        """Count poison faults (one per TLB miss to an instrumented page).

        The handler's unpoison → TLB-install → repoison cycle is folded
        into the count: the PTE stays poisoned, the TLB holds the
        translation until natural eviction (the machine's TLB already
        installed it during the walk).
        """
        pfns = np.asarray(pfns, dtype=ADDR_DTYPE)
        if pfns.size == 0:
            return
        self.stats.faults += int(pfns.size)
        pf = pfns.astype(np.intp)
        self._fault_counts.resize(int(pf.max()) + 1)
        self._fault_counts.data()[:] += np.bincount(
            pf, minlength=len(self._fault_counts)
        )

    @property
    def fault_counts(self) -> np.ndarray:
        """Per-PFN fault counts (the TLB-miss estimate)."""
        return self._fault_counts.data()
