"""The page mover: epoch-batched migration between tiers.

§IV steps 2-3: policies hand the mover a *target* fast-tier page set;
the mover diffs it against the current placement, demotes evicted pages
and promotes the newcomers, with all of an epoch's moves sharing a
single system-wide TLB shootdown (the reason the paper gives for
epoch-based policies in the first place: per-page shootdowns are
prohibitively expensive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memsim.machine import Machine
from .tiers import TIER1, TIER2, UNPLACED, TieredMemory

__all__ = ["PageMover", "MigrationResult"]


@dataclass
class MigrationResult:
    """Outcome of one epoch's migration batch."""

    promoted: int  # pages moved tier2 → tier1
    demoted: int  # pages moved tier1 → tier2
    shootdowns: int  # TLB shootdown rounds issued (0 or 1 per epoch)

    @property
    def moved(self) -> int:
        return self.promoted + self.demoted


class PageMover:
    """Applies policy placement decisions at epoch boundaries."""

    def __init__(
        self,
        tm: TieredMemory,
        machine: Machine | None = None,
        max_moves_per_epoch: int | None = None,
    ):
        self.tm = tm
        #: When a machine is supplied, migrations issue a real batched
        #: shootdown so the A-bit stale-entry window resets like the
        #: kernel's migration path would.
        self.machine = machine
        #: Migration budget: at most this many promotions per epoch
        #: (hottest first); matching demotions are counted against the
        #: same budget.  ``None`` is unbounded.  Bounds the 50 µs/page
        #: migration bill when a noisy ranking churns the boundary.
        self.max_moves_per_epoch = max_moves_per_epoch
        self.total = MigrationResult(promoted=0, demoted=0, shootdowns=0)

    def apply_target(self, target_tier1: np.ndarray) -> MigrationResult:
        """Re-place pages so the fast tier holds exactly ``target_tier1``.

        The target is clamped to tier-1 capacity (hottest-first callers
        should pass a pre-ranked array: the overflow that gets dropped
        is the coldest tail).  Pages leaving tier 1 demote to tier 2;
        unplaced targets are placed directly.
        """
        tm = self.tm
        target = np.asarray(target_tier1, dtype=np.int64)
        cap = tm.tier1.capacity_pages
        if target.size > cap:
            target = target[:cap]

        current = tm.tier1_pages()
        target_mask = np.zeros(tm.n_frames, dtype=bool)
        target_mask[target] = True

        demote = current[~target_mask[current]]
        in_tier1 = np.zeros(tm.n_frames, dtype=bool)
        in_tier1[current] = True
        promote = target[~in_tier1[target]]

        if (
            self.max_moves_per_epoch is not None
            and promote.size > self.max_moves_per_epoch // 2
        ):
            # Budget: take the hottest promotions (target is ranked),
            # and only demote enough residents to make room.
            keep_n = max(self.max_moves_per_epoch // 2, 0)
            promote = promote[:keep_n]
            needed_demotions = max(promote.size - tm.free_pages(TIER1), 0)
            demote = demote[-needed_demotions:] if needed_demotions else demote[:0]

        if demote.size:
            tm.tier_of[demote] = TIER2
        if promote.size:
            tm.place(promote, TIER1)

        shootdowns = 0
        if (demote.size or promote.size) and self.machine is not None:
            # One system-wide shootdown covers the whole batch.
            self._shootdown_moved(np.concatenate([demote, promote]))
            shootdowns = 1

        result = MigrationResult(
            promoted=int(promote.size), demoted=int(demote.size), shootdowns=shootdowns
        )
        self.total.promoted += result.promoted
        self.total.demoted += result.demoted
        self.total.shootdowns += result.shootdowns
        return result

    def _shootdown_moved(self, pfns: np.ndarray) -> None:
        """Invalidate moved pages' translations on every CPU.

        The machine's VMA index keeps its rows in frame order too
        (frame ranges are disjoint: frames are never recycled), so one
        ``searchsorted`` finds every moved page's VMA, whatever the
        number of processes and regions — and the table is the
        machine's, built when a mapping changed, not here per epoch.
        """
        vmas = self.machine.vma_index.by_pfn
        if vmas.pfn_base.size == 0:
            return
        at = np.searchsorted(vmas.pfn_base, pfns, side="right") - 1
        off = pfns - vmas.pfn_base[at]
        mapped = (at >= 0) & (off < vmas.npages[at])
        at, off = at[mapped], off[mapped]
        if at.size:
            # TLB tags are mapping-unit heads (2 MiB-aligned for THP
            # regions); a unit moved page by page names its head more
            # than once, which a flush by key does not mind.
            order = vmas.page_order[at]
            self.machine.tlb.shootdown_pages(
                vmas.pid[at], vmas.start_vpn[at] + (off >> order << order)
            )
