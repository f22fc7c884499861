"""Intel Processor Event-Based Sampling.

PEBS arms a precise event (here: a cache-miss event selected by
``data_source`` depth) and deposits a record every *n*-th occurrence of
that event.  Unlike IBS op sampling, the counted population is already
filtered to the event of interest, so at equal period PEBS concentrates
its samples on exactly the accesses TMP cares about — the
vendor-agnostic TMP trace driver accepts either stream (§II-B,
§III-B.1).
"""

from __future__ import annotations

import numpy as np

from .events import AccessBatch, DataSource
from .sampling import TraceSampler, records_at

__all__ = ["PEBSSampler"]

#: Default PEBS period: one record per 64 occurrences of the armed event.
DEFAULT_PEBS_PERIOD = 64


class PEBSSampler(TraceSampler):
    """Event sampling: one record per ``period`` armed-event occurrences.

    Parameters
    ----------
    event_source:
        The miss depth that constitutes the armed event.  The default
        (``DataSource.MEMORY``) corresponds to an LLC-miss /
        long-latency-load event, the paper's (and MemBrain's) preferred
        PEBS configuration.
    """

    vendor = "intel"
    name = "pebs"

    def __init__(
        self,
        period: int = DEFAULT_PEBS_PERIOD,
        buffer_records: int = 4096,
        event_source: DataSource = DataSource.MEMORY,
        *,
        enabled: bool = True,
    ):
        super().__init__(period=period, buffer_records=buffer_records, enabled=enabled)
        self.event_source = DataSource(event_source)

    def observe(
        self,
        batch: AccessBatch,
        *,
        op_base: int,
        paddr: np.ndarray,
        tlb_hit: np.ndarray,
        data_source: np.ndarray,
    ) -> None:
        """Count armed-event occurrences; tag every ``period``-th one."""
        if not self.enabled:
            return
        event_pos = np.flatnonzero(data_source >= np.uint8(self.event_source))
        picks_in_events = self._select(event_pos.size)
        if picks_in_events.size == 0:
            return
        picks = event_pos[picks_in_events]
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
