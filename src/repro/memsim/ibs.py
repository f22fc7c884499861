"""AMD Instruction-Based Sampling (op flavor).

IBS op sampling tags every *n*-th micro-operation as it enters the
pipeline and records, at retirement: virtual and physical data address,
load/store type, data-cache hit/miss status (our
:class:`~repro.memsim.events.DataSource`), TLB hit/miss, and the
northbridge data source (§II-B).  Because the counted population is
*all ops*, IBS observes cache-hitting accesses too; the TMP trace
driver later filters to memory-sourced samples for hotness.

The paper's rates: default = 1/256Ki ops; the evaluation settles on the
4x rate (1/64Ki) as the visibility/overhead sweet spot (§VI-A).
"""

from __future__ import annotations

import numpy as np

from .events import AccessBatch
from .sampling import DEFAULT_IBS_PERIOD, TraceSampler, records_at

__all__ = ["IBSSampler", "DEFAULT_IBS_PERIOD"]


class IBSSampler(TraceSampler):
    """Op-sampling engine: one record per ``period`` executed accesses."""

    vendor = "amd"
    name = "ibs"

    def observe(
        self,
        batch: AccessBatch,
        *,
        op_base: int,
        paddr: np.ndarray,
        tlb_hit: np.ndarray,
        data_source: np.ndarray,
    ) -> None:
        """Tag every ``period``-th access of the executed batch."""
        if not self.enabled:
            return
        picks = self._select(batch.n)
        if picks.size == 0:
            return
        self._deposit(
            records_at(
                batch,
                picks,
                op_base=op_base,
                paddr=paddr,
                tlb_hit=tlb_hit,
                data_source=data_source,
            )
        )
