"""Initial page placement: the first-come-first-allocate baseline.

The paper's speedup baseline (§VI-C) is "a NUMA-like,
first-come-first-allocate tiered-memory policy": pages land in fast
memory in first-touch order until tier 1 fills, then everything else
goes to tier 2, and nothing ever moves.  This module provides that
allocation and the helper that keeps newly touched frames placed as a
simulation proceeds.
"""

from __future__ import annotations

import numpy as np

from .tiers import TIER1, TIER2, UNPLACED, TieredMemory

__all__ = ["fcfa_place_new", "fcfa_full_placement"]


def fcfa_place_new(
    tm: TieredMemory, first_touch_op: np.ndarray, touched_mask: np.ndarray
) -> int:
    """Place newly touched, unplaced frames in first-touch order.

    Fast tier first while it has room, slow tier afterwards — called
    once per epoch with the machine's ground-truth first-touch stamps.
    Returns the number of frames placed.
    """
    tm.resize(first_touch_op.size)
    tier_of = tm.tier_of
    new = ((tier_of[: touched_mask.size] == UNPLACED) & touched_mask).nonzero()[0]
    if new.size == 0:
        return 0
    order = new[first_touch_op[new].argsort(kind="stable")]
    room = tm.free_pages(TIER1)
    to_fast = order[:room]
    to_slow = order[room:]
    if to_fast.size:
        tm.place(to_fast, TIER1)
    if to_slow.size:
        tm.place(to_slow, TIER2)
    return int(order.size)


def fcfa_full_placement(
    n_frames: int, tier1_capacity: int, first_touch_op: np.ndarray
) -> np.ndarray:
    """Pure-function FCFA: tier labels from first-touch stamps alone.

    Untouched frames stay unplaced.  Useful for offline policy
    comparisons on recorded traces.
    """
    from .tiers import make_tiers

    tm = make_tiers(n_frames, tier1_capacity)
    touched = first_touch_op != np.iinfo(np.uint64).max
    fcfa_place_new(tm, first_touch_op, touched)
    return tm.tier_of.copy()
