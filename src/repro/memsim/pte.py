"""Page-table-entry flag encoding.

PTE flags follow the x86-64 layout for the bits the paper's mechanisms
care about: the *accessed* (A) bit set by the hardware page-table walker
on a TLB fill, the *dirty* (D) bit set on the first store to a clean
page, and software-reserved bit 51 used by BadgerTrap to *poison* an
entry so that the next hardware walk faults.

Flags are stored as ``uint64`` and manipulated in bulk with numpy; the
scalar helpers exist for readability in tests and sequential reference
code.
"""

from __future__ import annotations

import numpy as np

#: Translation is valid (the page is mapped).
PTE_PRESENT = np.uint64(1 << 0)
#: Page may be written.
PTE_WRITABLE = np.uint64(1 << 1)
#: Set by the page-table walker when the translation is loaded into the TLB.
PTE_ACCESSED = np.uint64(1 << 5)
#: Set by hardware on the first store to the page since the last clear.
PTE_DIRTY = np.uint64(1 << 6)
#: Software-reserved bit 51; a walk of a poisoned PTE raises a fault
#: (BadgerTrap's interception mechanism).
PTE_POISON = np.uint64(1 << 51)

#: Flags of a freshly mapped, writable, not-yet-accessed page.
PTE_DEFAULT = PTE_PRESENT | PTE_WRITABLE

_U64_1 = np.uint64(1)


def is_present(flags) -> np.ndarray:
    """Boolean mask of entries with the present bit set."""
    return (np.asarray(flags) & PTE_PRESENT) != 0


def is_accessed(flags) -> np.ndarray:
    """Boolean mask of entries with the accessed bit set."""
    return (np.asarray(flags) & PTE_ACCESSED) != 0


def is_dirty(flags) -> np.ndarray:
    """Boolean mask of entries with the dirty bit set."""
    return (np.asarray(flags) & PTE_DIRTY) != 0


def is_poisoned(flags) -> np.ndarray:
    """Boolean mask of entries with the BadgerTrap poison bit set."""
    return (np.asarray(flags) & PTE_POISON) != 0


def test_and_clear(flags: np.ndarray, bits: np.uint64) -> np.ndarray:
    """Atomically (from the simulation's view) read-and-clear ``bits``.

    Returns the boolean mask of entries that *had* the bits set, and
    clears them — the vectorized analogue of the kernel's
    ``TestClearPageReferenced`` routine used by the A-bit driver.
    """
    had = (flags & bits) != 0
    flags &= ~bits
    return had
