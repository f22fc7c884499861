"""TMP's trace driver: IBS/PEBS/LWP sample collection and aggregation.

Mirrors §III-B.1: the kernel module periodically drains the hardware
sample buffer, records each sample's addresses and cache status, and
accumulates per-page counts in the page descriptor via the physical
address (``phys_to_page``).  Per §III-A, hotness accumulation defaults
to *memory-sourced* samples only — a page that is hot but always hits
in the caches gains nothing from migrating to fast memory — while all
drained samples remain available to callers (e.g. heatmaps of raw
activity).

The driver is vendor-agnostic: it consumes whichever sampler the
config's ``trace_source`` names (IBS op sampling, PEBS event sampling
or LWP's per-process rings), which is the interface-stability point the
paper argues for.  It is also the one place a sampler is armed: the
machine builds all three disarmed and the driver arms its own (HWPC
gating toggles it through :attr:`TraceDriver.enabled`), so no buffer
fills that nothing drains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memsim.events import DataSource, SampleBatch
from ..memsim.machine import Machine
from .config import TMPConfig
from .page_stats import PageStatsStore

__all__ = ["TraceDriver", "TraceDriverStats"]


@dataclass
class TraceDriverStats:
    """Cumulative trace-driver counters."""

    drains: int = 0
    samples_collected: int = 0
    memory_samples: int = 0
    interrupts_serviced: int = 0
    time_s: float = 0.0


class TraceDriver:
    """Drains the armed sampler and aggregates samples per page."""

    def __init__(self, machine: Machine, config: TMPConfig, store: PageStatsStore):
        self.machine = machine
        self.config = config
        self.store = store
        self.stats = TraceDriverStats()
        self._interrupts_seen = self.sampler.stats.interrupts
        self.enabled = config.trace_enabled

    @property
    def sampler(self):
        """The hardware sampler this driver is bound to."""
        return {
            "ibs": self.machine.ibs,
            "pebs": self.machine.pebs,
            "lwp": self.machine.lwp,
        }[self.config.trace_source]

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        """Arming/disarming stops the hardware counter itself."""
        self._enabled = bool(value)
        self.sampler.enabled = self._enabled

    def set_period(self, period: int) -> None:
        """Reprogram the sampling period (§VI-A's rate sweep)."""
        self.sampler.set_period(period)

    def drain(self) -> SampleBatch:
        """Collect pending samples, aggregate hotness, return the batch."""
        sampler = self.sampler
        samples = sampler.drain()
        self.stats.drains += 1
        self.stats.samples_collected += samples.n

        costs = self.config.costs
        self.stats.time_s += samples.n * costs.trace_per_sample_s
        # Interrupts raised since the last drain; their servicing cost
        # is attributed when the driver handles the buffer.
        new_interrupts = sampler.stats.interrupts - self._interrupts_seen
        self._interrupts_seen = sampler.stats.interrupts
        self.stats.interrupts_serviced += max(new_interrupts, 0)
        self.stats.time_s += max(new_interrupts, 0) * costs.trace_per_interrupt_s

        if samples.n:
            # Only the frames are credited: no sub-buffer of the rest.
            pfn = samples.pfn
            if self.config.trace_memory_only:
                pfn = pfn[samples.data_source == np.uint8(DataSource.MEMORY)]
            self.stats.memory_samples += pfn.size
            if pfn.size:
                self.store.record_trace(pfn)
        return samples
