"""Tier definitions and the page→tier placement map.

The TMA model of §II-A: all byte-addressable memory is mapped into one
physical address space, categorized into tiers — tier 1 (DRAM: low
latency / high bandwidth, small) and tier 2 (NVM: slower, big).  Pages
live in exactly one tier (no caching, no duplicate copies); the system
remaps pages between tiers to raise the fraction of memory accesses the
fast tier serves.

``TieredMemory`` tracks per-PFN tier assignment.  PFNs stay stable
across migration (host virtual addresses never change — §IV step 3; we
additionally keep the *physical* id stable and move the tier label,
which is equivalent for every metric the experiments compute).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TierSpec", "TieredMemory", "TIER1", "TIER2", "UNPLACED"]

#: Tier label for fast memory (DRAM).
TIER1 = 0
#: Tier label for slow memory (NVM).
TIER2 = 1
#: Label for frames not yet placed (never touched / never allocated).
UNPLACED = -1


@dataclass(frozen=True)
class TierSpec:
    """Static description of one memory tier."""

    name: str
    capacity_pages: int
    #: Nominal load-use latency (ns); informational, the experiment
    #: timing uses :mod:`repro.tiering.latency_model`.
    latency_ns: float

    def __post_init__(self):
        if self.capacity_pages < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity_pages}")


class TieredMemory:
    """Per-PFN tier placement with capacity accounting."""

    def __init__(self, tier1: TierSpec, tier2: TierSpec, n_frames: int):
        self.tier1 = tier1
        self.tier2 = tier2
        self._tier_of = np.full(n_frames, UNPLACED, dtype=np.int8)

    @property
    def n_frames(self) -> int:
        return int(self._tier_of.size)

    def resize(self, n_frames: int) -> None:
        """Grow the placement map for newly allocated frames."""
        if n_frames <= self.n_frames:
            return
        grown = np.full(n_frames, UNPLACED, dtype=np.int8)
        grown[: self.n_frames] = self._tier_of
        self._tier_of = grown

    @property
    def tier_of(self) -> np.ndarray:
        """Per-PFN tier labels (read-only view by convention)."""
        return self._tier_of

    def tier1_pages(self) -> np.ndarray:
        """PFNs currently in the fast tier."""
        return (self._tier_of == TIER1).nonzero()[0]

    def occupancy(self, tier: int) -> int:
        """Pages currently placed in ``tier``."""
        return int(np.count_nonzero(self._tier_of == tier))

    def free_pages(self, tier: int) -> int:
        """Remaining capacity of ``tier``."""
        cap = self.tier1.capacity_pages if tier == TIER1 else self.tier2.capacity_pages
        return cap - self.occupancy(tier)

    def place(self, pfns: np.ndarray, tier: int) -> None:
        """Assign ``pfns`` to ``tier``, enforcing capacity."""
        pfns = np.asarray(pfns, dtype=np.int64)
        if pfns.size == 0:
            return
        currently_there = np.count_nonzero(self._tier_of[pfns] == tier)
        needed = pfns.size - currently_there
        if needed > self.free_pages(tier):
            name = self.tier1.name if tier == TIER1 else self.tier2.name
            raise MemoryError(
                f"tier {name!r} over capacity: need {needed}, "
                f"free {self.free_pages(tier)}"
            )
        self._tier_of[pfns] = tier

    def summary(self) -> dict:
        """Occupancy snapshot."""
        return {
            "tier1_used": self.occupancy(TIER1),
            "tier1_capacity": self.tier1.capacity_pages,
            "tier2_used": self.occupancy(TIER2),
            "tier2_capacity": self.tier2.capacity_pages,
            "unplaced": self.occupancy(UNPLACED),
        }


def make_tiers(
    n_frames: int,
    tier1_capacity: int,
    tier2_capacity: int | None = None,
    tier1_latency_ns: float = 80.0,
    tier2_latency_ns: float = 400.0,
) -> TieredMemory:
    """Convenience constructor for a standard DRAM+NVM pair.

    ``tier2_capacity`` defaults to "everything fits" — the paper's 4 GB
    DRAM + 60 GB NVM box never runs out of slow memory.
    """
    if tier2_capacity is None:
        tier2_capacity = max(n_frames, 1)
    return TieredMemory(
        TierSpec("dram", tier1_capacity, tier1_latency_ns),
        TierSpec("nvm", tier2_capacity, tier2_latency_ns),
        n_frames,
    )
