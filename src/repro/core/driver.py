"""The execute-and-profile driver: one epoch, written once.

Every front end — the online :class:`~repro.tiering.TieredSimulator`,
:func:`~repro.tiering.record_run`, the analysis helpers, ``repro
profile`` — runs the same cycle: generate the epoch's access stream,
execute it in one machine pass that stops between slices for TMP's
scans, close the profiling epoch, read the PML write set.
:class:`ProfiledRun` is that cycle; each epoch comes back as an
:class:`EpochRecord`, which is also what :mod:`repro.tiering.serialize`
persists, so online and offline evaluation consume the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memsim.events import AccessBatch
from ..memsim.machine import BatchResult, Machine, MachineConfig
from ..workloads.base import Workload
from .config import TMPConfig
from .page_stats import EpochProfile
from .profiler import TMProfiler

__all__ = ["EpochRecord", "ProfiledRun"]


@dataclass
class EpochRecord:
    """One epoch's captured profile and ground truth."""

    epoch: int
    accesses: int
    profile: EpochProfile
    counts: np.ndarray       # per-PFN total accesses this epoch
    mem_counts: np.ndarray   # per-PFN memory (LLC-miss) accesses
    tlb_counts: np.ndarray   # per-PFN TLB misses (BadgerTrap-visible)
    #: PML write set this epoch (PFNs); None when the machine's PML is off.
    dirty_pages: np.ndarray | None
    overhead_s: float        # TMP profiling time this epoch
    #: The epoch's drained trace records (for Fig. 3-style heatmaps).
    samples: object = None


class ProfiledRun:
    """A workload attached to a machine, executing under TMP.

    Owns the :class:`Machine`, the :class:`TMProfiler` and the seeded
    RNG every access stream is drawn from, in a fixed order — stepping
    epoch by epoch is bit-identical to running them back to back.
    """

    def __init__(
        self,
        workload: Workload,
        *,
        machine_config: MachineConfig | None = None,
        tmp_config: TMPConfig | None = None,
        seed: int = 0,
        epoch_slices: int = 1,
    ):
        if epoch_slices < 1:
            raise ValueError(f"epoch_slices must be >= 1, got {epoch_slices}")
        self.epoch_slices = int(epoch_slices)
        self.workload = workload
        self.machine = Machine(machine_config or MachineConfig.scaled())
        workload.attach(self.machine)
        self.profiler = TMProfiler(self.machine, tmp_config or TMPConfig())
        self.profiler.register_workload(workload)
        self.rng = np.random.default_rng(seed)
        #: Scored epochs executed so far (the next epoch's index).
        self.epochs_run = 0
        #: Raw machine event totals so far, population phase included.
        self.event_totals: dict[str, int] = {}

    def _run(self, batch: AccessBatch) -> BatchResult:
        res = self.machine.run_batch(batch)
        for key, value in res.raw_events.items():
            self.event_totals[key] = self.event_totals.get(key, 0) + value
        self.profiler.observe_batch(batch, res)
        return res

    def _read_write_set(self) -> np.ndarray | None:
        """Drain the PML log and re-arm it; None when PML is off.

        Clearing D bits after reading the log (the hypervisor pattern)
        makes the next log the next epoch's write set, not just
        first-ever writes.
        """
        machine = self.machine
        if not machine.pml.enabled:
            return None
        dirty = machine.pml.drain()
        machine.pml.clear_dirty(machine.pte)
        return dirty.astype(np.int64)

    def populate(self) -> None:
        """Run the workload's population stream as one un-scored batch.

        Its profile is closed and discarded (it stays in
        ``profiler.reports``) and the write log is drained.
        """
        self._run(self.workload.init_stream(self.rng))
        self.profiler.end_epoch()
        self._read_write_set()

    def run_epoch(self) -> EpochRecord:
        """Execute and profile the next epoch: one machine pass that
        stops at ``epoch_slices - 1`` service points for a profiler
        ``tick`` (graded A-bit counts, see :meth:`TMProfiler.tick`)."""
        # What outlives the epoch is allocated around its garbage, not
        # in it: the per-frame totals now, while the heap is at rest,
        # and the profile and samples (``end_epoch``) only after the
        # stream and the batch's arrays have been let go.  A survivor
        # that lands among an epoch's transients pins megabytes of
        # freed heap under it (``peak_rss_mb``).
        totals = np.zeros((3, self.machine.n_frames), dtype=np.int64)
        batch = self.workload.epoch(self.epochs_run, self.rng)
        bounds = np.linspace(0, batch.n, self.epoch_slices + 1).astype(int)
        profiler = self.profiler
        # ``tick`` is looked up per epoch: whoever wrapped it since
        # (the e2e tracer) is what the machine calls.
        with self.machine.service_points(
            bounds[1:-1].tolist(), profiler.tick, flushes_tlb=profiler.tick_flushes_tlb
        ):
            res = self._run(batch)
        for total, part in zip(totals, res.frame_counts):
            total[: part.size] = part
        accesses = batch.n
        del batch, res
        counts, mem_counts, tlb_counts = totals
        report = self.profiler.end_epoch()
        record = EpochRecord(
            epoch=self.epochs_run,
            accesses=accesses,
            profile=report.profile,
            counts=counts,
            mem_counts=mem_counts,
            tlb_counts=tlb_counts,
            dirty_pages=self._read_write_set(),
            overhead_s=report.overhead.total_s,
            samples=report.samples,
        )
        self.epochs_run += 1
        return record
