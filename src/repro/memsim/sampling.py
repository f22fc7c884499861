"""Shared machinery for hardware trace samplers (IBS, PEBS and LWP).

The vendors' mechanisms share a shape: a hardware counter ticks on some
population (retired micro-ops for IBS and LWP, a precise event such as
LLC misses for PEBS); every time it reaches the programmed period the
current instruction is *tagged*, a record with addresses and
cache/TLB status is deposited into a buffer, and a buffer-full
condition interrupts the OS so the driver can drain it (§II-B,
§III-B.1).

The samplers are fed per-batch by the machine with the already-computed
per-access metadata, select sample positions vectorized, and maintain
the inter-batch counter phase so sampling is exact across batch
boundaries.

One rule holds for every sampler: it records only while armed
(``enabled``).  A disarmed sampler's ``observe`` returns before it
looks at the batch, so its counter does not tick and its statistics
and buffer do not move.  A :class:`~repro.memsim.machine.Machine`
builds its samplers disarmed; TMP's trace driver arms the one it
drains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import AccessBatch, SampleBatch, concat_samples

__all__ = ["SamplerStats", "TraceSampler", "DEFAULT_IBS_PERIOD"]

#: The paper's default IBS rate: one sample out of every 256 Ki ops.
DEFAULT_IBS_PERIOD = 262_144


@dataclass
class SamplerStats:
    """Cumulative sampler event counters."""

    population: int = 0  # ops (IBS, LWP) or events (PEBS) seen while armed
    samples: int = 0
    interrupts: int = 0  # buffer fills (IBS, PEBS), threshold signals (LWP)
    dropped: int = 0  # samples lost to buffer overrun while unserviced


def positive(name: str, value: int) -> int:
    """``value`` as an int: a sampling period or buffer size below 1 is
    refused."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def periodic_picks(countdown: int, n: int, period: int) -> tuple[np.ndarray, int]:
    """Strict periodic tagging of ``n`` counted items, ``countdown``
    items before the next tag: the positions tagged (0-based, within
    the ``n``) and the countdown the next batch starts from."""
    first = countdown - 1
    if first >= n:
        return np.zeros(0, dtype=np.intp), countdown - n
    picks = np.arange(first, n, period, dtype=np.intp)
    return picks, period - (n - 1 - int(picks[-1]))


def records_at(
    batch: AccessBatch,
    picks: np.ndarray,
    *,
    op_base: int,
    paddr: np.ndarray,
    tlb_hit: np.ndarray,
    data_source: np.ndarray,
) -> SampleBatch:
    """Sample records for batch positions ``picks``."""
    return SampleBatch(
        op_idx=np.uint64(op_base) + picks.astype(np.uint64),
        cpu=batch.cpu[picks],
        pid=batch.pid[picks],
        ip=batch.ip[picks],
        vaddr=batch.vaddr[picks],
        paddr=paddr[picks],
        is_store=batch.is_store[picks],
        tlb_hit=tlb_hit[picks],
        data_source=data_source[picks],
    )


class TraceSampler:
    """Base sampler: period counting, ring buffer, interrupt accounting.

    Parameters
    ----------
    period:
        Sample one element out of every ``period`` of the counted
        population.
    buffer_records:
        Kernel ring-buffer capacity; each fill costs one interrupt and
        (in the cost model) one drain by the TMP driver.
    enabled:
        Armed at construction.  The attribute of that name is what TMP's
        trace driver (and, through it, HWPC gating) toggles at run time.
    """

    def __init__(
        self,
        period: int = DEFAULT_IBS_PERIOD,
        buffer_records: int = 4096,
        jitter: float = 0.0,
        jitter_seed: int = 0x1B5,
        *,
        enabled: bool = True,
    ):
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.period = positive("period", period)
        self.buffer_records = positive("buffer_records", buffer_records)
        #: Period randomization: each inter-sample gap is drawn uniformly
        #: from ``[period*(1-jitter), period*(1+jitter)]``.  Real IBS
        #: randomizes the low bits of its current-count register for
        #: exactly this reason — strict periodic sampling aliases with
        #: loop-structured code and systematically over/under-samples
        #: phase-locked accesses.  0 disables (deterministic lockstep).
        self.jitter = float(jitter)
        self._rng = np.random.default_rng(jitter_seed)
        self.enabled = enabled
        self.stats = SamplerStats()
        self._countdown = self._next_gap()  # population items until next tag
        self._pending: list[SampleBatch] = []
        self._pending_n = 0

    def _next_gap(self) -> int:
        if self.jitter <= 0.0:
            return self.period
        lo = max(1, int(round(self.period * (1 - self.jitter))))
        hi = max(lo, int(round(self.period * (1 + self.jitter))))
        return int(self._rng.integers(lo, hi + 1))

    def set_period(self, period: int) -> None:
        """Reprogram the sampling period (takes effect immediately)."""
        self.period = positive("period", period)
        self._countdown = min(self._countdown, self._next_gap())

    def _select(self, n_population: int) -> np.ndarray:
        """Positions (0-based, within the population) that get tagged."""
        self.stats.population += n_population
        if self.jitter <= 0.0:
            picks, self._countdown = periodic_picks(
                self._countdown, n_population, self.period
            )
            return picks
        # Jittered mode: walk gap by gap (cheap — gaps are large).
        picks_list: list[int] = []
        pos = self._countdown - 1
        while pos < n_population:
            picks_list.append(pos)
            pos += self._next_gap()
        self._countdown = pos - n_population + 1
        return np.asarray(picks_list, dtype=np.intp)

    def _deposit(self, samples: SampleBatch) -> None:
        """Append records to the kernel buffer, raising interrupts on fills."""
        if samples.n == 0:
            return
        self.stats.samples += samples.n
        before = self._pending_n
        self._pending.append(samples)
        self._pending_n += samples.n
        # Integer number of complete buffer fills crossed by this deposit.
        self.stats.interrupts += (
            self._pending_n // self.buffer_records - before // self.buffer_records
        )

    def drain(self) -> SampleBatch:
        """Drain the kernel buffer (the TMP driver's periodic poll)."""
        out = concat_samples(self._pending)
        self._pending = []
        self._pending_n = 0
        return out

    @property
    def pending(self) -> int:
        """Records currently sitting in the kernel buffer."""
        return self._pending_n

    # Subclasses override:
    def observe(
        self,
        batch: AccessBatch,
        *,
        op_base: int,
        paddr: np.ndarray,
        tlb_hit: np.ndarray,
        data_source: np.ndarray,
    ) -> None:
        """Feed one executed batch with its per-access metadata."""
        raise NotImplementedError
