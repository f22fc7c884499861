"""Hardware page-table walker.

On every TLB miss the walker resolves the translation from the page
table and — the behaviour all A-bit profiling hinges on — sets the PTE
*accessed* bit as part of the fill (§II-B).  Dirty bits follow the
different rule the paper quotes from Bhattacharjee et al.: because D
bits are needed for correctness they are part of the TLB entry, and a
store whose cached D bit is 0 triggers a walk to set the PTE D bit even
on a TLB hit.  We model that as "the first store to a page since its D
bit was last cleared sets it", independent of TLB state.

The walker is also BadgerTrap's hook: a walk that lands on a PTE with
the poison bit raises a protection fault that the kernel intercepts
(see ``badgertrap.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pte import PTE_ACCESSED, PTE_DIRTY, PTE_POISON
from .page_table import PageTable, PTEColumns

__all__ = ["PageTableWalker", "PTWStats"]


@dataclass
class PTWStats:
    """Cumulative walker event counters."""

    walks: int = 0
    a_bits_set: int = 0
    d_bits_set: int = 0
    poison_faults: int = 0


def _first_setters(slots: np.ndarray, clear: np.ndarray, n_slots: int) -> np.ndarray:
    """The distinct ``slots`` among those whose bit is ``clear``, unsorted.

    Work follows the walks that found the bit clear, and there is no
    sort: each such walk writes its position at its slot in a scratch
    array, one write per slot survives, and the survivors are one walk
    per distinct slot.
    """
    found_clear = slots[clear]
    if found_clear.size == 0:
        return found_clear
    position = np.arange(found_clear.size)
    winner = np.empty(n_slots, dtype=np.intp)
    winner[found_clear] = position
    return found_clear[winner[found_clear] == position]


class PageTableWalker:
    """Sets A/D bits and surfaces poison faults for executed batches."""

    def __init__(self):
        self.stats = PTWStats()

    def fill_walks(
        self, pt: PageTable | PTEColumns, miss_slots: np.ndarray
    ) -> np.ndarray:
        """Process TLB-miss fills against ``pt``'s flags: one page table's,
        or a whole machine's column (``Machine.pte``).

        ``miss_slots`` are PTE slots of the accesses that missed the
        TLB, in program order (duplicates allowed — several misses can
        walk the same PTE within a batch).  Sets the accessed bit on
        each walked PTE and returns the per-miss boolean mask of walks
        that hit a *poisoned* PTE (BadgerTrap faults).

        The walked PTEs are gathered once: the poison mask and the set
        of A bits still clear both come from that gather, and only the
        clear ones are deduplicated and written back.
        """
        miss_slots = np.asarray(miss_slots, dtype=np.int64)
        self.stats.walks += int(miss_slots.size)
        if miss_slots.size == 0:
            return np.zeros(0, dtype=bool)
        flags = pt.flags
        walked = flags[miss_slots]
        newly = _first_setters(miss_slots, (walked & PTE_ACCESSED) == 0, flags.size)
        flags[newly] |= PTE_ACCESSED
        self.stats.a_bits_set += int(newly.size)

        poisoned_mask = (walked & PTE_POISON) != 0
        self.stats.poison_faults += int(np.count_nonzero(poisoned_mask))
        return poisoned_mask

    def dirty_updates(
        self, pt: PageTable | PTEColumns, store_slots: np.ndarray
    ) -> np.ndarray:
        """Set D bits for a batch of stores in ``pt``'s flags (a page
        table's or a machine's column); return slots newly dirtied.

        Newly dirtied slots (ascending) are what Intel PML would append
        to its write log.  A store to an already-dirty page costs
        nothing beyond reading its PTE: only the newly dirtied slots
        are deduplicated, sorted and written.
        """
        store_slots = np.asarray(store_slots, dtype=np.int64)
        if store_slots.size == 0:
            return store_slots
        flags = pt.flags
        clean = (flags[store_slots] & PTE_DIRTY) == 0
        newly = np.sort(_first_setters(store_slots, clean, flags.size))
        flags[newly] |= PTE_DIRTY
        self.stats.d_bits_set += int(newly.size)
        return newly
