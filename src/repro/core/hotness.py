"""Hotness ranking: the profiler-policy interface.

§IV step 1: TMP abstracts its monitoring sources behind a single
per-page hotness rank — the stable, vendor-agnostic interface policies
consume.  Rank = Σ weight × samples over the enabled sources; Fig. 2
shows A-bit (PTW) events and trace (cache-miss) events arrive at the
same order of magnitude, so the default weights are 1:1 and neither
source drowns the other.

``RankSource`` selects which mechanisms feed the rank — the ablation
axis of Fig. 6 (*A-bit only*, *IBS only*, or *TMP combined*).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .page_stats import EpochProfile

__all__ = ["RankSource", "hotness_rank", "top_k_pages"]


class RankSource(str, Enum):
    """Which monitoring data feeds the hotness rank."""

    ABIT = "abit"
    TRACE = "trace"
    COMBINED = "combined"


def hotness_rank(
    profile: EpochProfile,
    source: RankSource | str = RankSource.COMBINED,
    abit_weight: float = 1.0,
    trace_weight: float = 1.0,
) -> np.ndarray:
    """Per-PFN hotness rank from one epoch's profile.

    Higher rank ⇒ more expected accesses next epoch ⇒ stronger claim on
    tier 1 (§IV step 1).
    """
    source = RankSource(source)
    if source is RankSource.ABIT:
        return abit_weight * profile.abit.astype(np.float64)
    if source is RankSource.TRACE:
        return trace_weight * profile.trace.astype(np.float64)
    # Equal-weight sum per Fig. 2, with an infinitesimal tie-break
    # toward trace-supported pages: among equally-ranked candidates,
    # prefer those with observed demand misses (§III-A's critical-path
    # focus) over pages only the touched-bit vouches for.
    trace = profile.trace.astype(np.float64)
    return (
        abit_weight * profile.abit.astype(np.float64)
        + trace_weight * trace
        + 1e-9 * trace
    )


def top_k_pages(rank: np.ndarray, k: int, eligible: np.ndarray | None = None) -> np.ndarray:
    """PFNs of the ``k`` hottest pages with non-zero rank.

    ``eligible`` masks out non-migratable pages (§IV step 2's
    filtering).  Ties break toward lower PFN for determinism.  Returns
    fewer than ``k`` PFNs when fewer pages have rank > 0.
    """
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    rank = np.asarray(rank, dtype=np.float64)
    if eligible is not None:
        rank = np.where(eligible, rank, 0.0)
    nonzero = (rank > 0).nonzero()[0]
    if nonzero.size == 0:
        return np.zeros(0, dtype=np.int64)
    # Deterministic order: rank descending, then PFN ascending (lexsort
    # keys are listed minor-first).
    order = np.lexsort((nonzero, -rank[nonzero]))
    return nonzero[order[:k]].astype(np.int64)
