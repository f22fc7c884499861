"""AMD Lightweight Profiling (LWP).

§II-B: LWP (an AMD64 extension on Family 15h parts) differs from IBS in
*where the data goes and when software hears about it*: the hardware
monitors events during user-mode execution and appends records to a
ring buffer **in the profiled process's own address space**; only when
the buffer fills beyond a user-specified threshold does it raise an
interrupt so the OS can signal the process to drain.  Collection is
therefore batched — large record volumes per interrupt — at the price
of per-process buffers and of the *process* (or a runtime in it) doing
the draining.

The model: per-PID op-sampling counters and ring buffers with a
threshold interrupt, sharing record format with IBS/PEBS so TMP's
vendor-agnostic trace driver can consume it as a third source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import AccessBatch, SampleBatch, concat_samples
from .sampling import SamplerStats, periodic_picks, positive, records_at

__all__ = ["LWPSampler"]


@dataclass
class _Ring:
    countdown: int
    pending: list[SampleBatch] = field(default_factory=list)
    pending_n: int = 0
    interrupt_raised: bool = False


class LWPSampler:
    """Per-process op sampling into per-process ring buffers.

    Its :class:`~repro.memsim.sampling.SamplerStats` are aggregated over
    processes; ``interrupts`` counts threshold signals, ``dropped`` the
    records discarded because a ring filled completely before its
    process drained it (the cost of batched collection).

    Parameters
    ----------
    period:
        Sample one out of every ``period`` of a process's accesses.
    buffer_records:
        Ring capacity per process; records beyond it are dropped until
        the ring is drained.
    threshold:
        Fill fraction at which the one-shot interrupt fires.
    enabled:
        Armed at construction; :mod:`repro.memsim.sampling` has the
        arming rule every sampler follows.
    """

    vendor = "amd"
    name = "lwp"

    def __init__(
        self,
        period: int = 64,
        buffer_records: int = 2048,
        threshold: float = 0.75,
        *,
        enabled: bool = True,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.period = positive("period", period)
        self.buffer_records = positive("buffer_records", buffer_records)
        self.threshold = float(threshold)
        self.enabled = enabled
        self.stats = SamplerStats()
        self._rings: dict[int, _Ring] = {}

    def set_period(self, period: int) -> None:
        """Reprogram the sampling period for all processes."""
        self.period = positive("period", period)
        for ring in self._rings.values():
            ring.countdown = min(ring.countdown, self.period)

    def _ring(self, pid: int) -> _Ring:
        ring = self._rings.get(pid)
        if ring is None:
            ring = _Ring(countdown=self.period)
            self._rings[pid] = ring
        return ring

    def observe(
        self,
        batch: AccessBatch,
        *,
        op_base: int,
        paddr: np.ndarray,
        tlb_hit: np.ndarray,
        data_source: np.ndarray,
    ) -> None:
        """Feed one executed batch; sampling counts per process."""
        if not self.enabled:
            return
        self.stats.population += batch.n
        for pid in np.unique(batch.pid):
            idx = np.flatnonzero(batch.pid == pid)
            ring = self._ring(int(pid))
            local, ring.countdown = periodic_picks(
                ring.countdown, idx.size, self.period
            )
            picks = idx[local]

            room = self.buffer_records - ring.pending_n
            if picks.size > room:
                self.stats.dropped += picks.size - room
                picks = picks[:room]
            if picks.size == 0:
                continue
            ring.pending.append(
                records_at(
                    batch,
                    picks,
                    op_base=op_base,
                    paddr=paddr,
                    tlb_hit=tlb_hit,
                    data_source=data_source,
                )
            )
            ring.pending_n += picks.size
            self.stats.samples += int(picks.size)
            if (
                not ring.interrupt_raised
                and ring.pending_n >= self.threshold * self.buffer_records
            ):
                ring.interrupt_raised = True
                self.stats.interrupts += 1

    def pending(self, pid: int | None = None) -> int:
        """Records awaiting drain (one process, or all)."""
        if pid is not None:
            ring = self._rings.get(pid)
            return ring.pending_n if ring else 0
        return sum(r.pending_n for r in self._rings.values())

    def drain_pid(self, pid: int) -> SampleBatch:
        """The process empties its own ring (re-arming the interrupt)."""
        ring = self._rings.get(pid)
        if ring is None:
            return SampleBatch.empty()
        out = concat_samples(ring.pending)
        ring.pending = []
        ring.pending_n = 0
        ring.interrupt_raised = False
        return out

    def drain(self) -> SampleBatch:
        """Drain every process's ring (TMP's poll)."""
        return concat_samples([self.drain_pid(pid) for pid in sorted(self._rings)])
