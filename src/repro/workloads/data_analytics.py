"""Data-Analytics (CloudSuite) workload model.

CloudSuite's data-analytics benchmark runs machine-learning
(classification) jobs over a Wikipedia dump on a Spark/Hadoop master
with 32 workers.  Per task: a sequential scan over the worker's input
shard, feature extraction into a per-worker scratch region, and very
hot reads of the shared model/dictionary pages (heavily reused →
largely cache-resident).

Profiling character (Table IV): the *largest* A-bit page counts of the
suite — 33 processes each touching their shard every epoch — while IBS
sees comparatively fewer distinct pages because reuse keeps much of the
traffic in the caches.
"""

from __future__ import annotations

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import BoundedZipf, StreamBuilder, sequential_sweep, windowed_sweep

__all__ = ["DataAnalytics"]

_IP_SCAN = 0xA000_0000
_IP_MODEL = 0xA000_1000
_IP_SCRATCH = 0xA000_2000


class DataAnalytics(Workload):
    """ML-over-text scans with a hot shared model region."""

    name = "data-analytics"

    def __init__(
        self,
        footprint_pages: int = 33_792,
        n_processes: int = 33,  # 1 master + 32 workers
        accesses_per_epoch: int = 170_000,
        model_pages: int = 96,
        model_fraction: float = 0.6,
        scratch_pages: int = 32,
        **kw,
    ):
        super().__init__(footprint_pages, n_processes, accesses_per_epoch, **kw)
        self.model_pages = int(model_pages)
        self.model_fraction = float(model_fraction)
        self.scratch_pages = int(scratch_pages)
        self._model_zipf = BoundedZipf(self.model_pages, alpha=1.2)

    def _map_process(self, machine: Machine, pid: int, index: int):
        return {
            "shard": machine.mmap(pid, self.pages_per_process, name="shard"),
            "model": machine.mmap(pid, self.model_pages, name="model"),
            "scratch": machine.mmap(pid, self.scratch_pages, name="scratch"),
        }

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        n_model = int(n_accesses * self.model_fraction)
        n_scratch = n_accesses // 10
        n_scan = n_accesses - n_model - n_scratch

        shard = proc.vma("shard")
        # Scans resume where the previous epoch's task left off, reading
        # several lines per page (text parsing is streaming).
        dwell = 4
        start = (epoch_idx * (n_scan // dwell)) % shard.npages
        scan = windowed_sweep(shard.npages, n_scan, dwell, start=start)
        out.add(shard, scan, pid=proc.pid, cpu=proc.cpu, ip=_IP_SCAN)

        model = proc.vma("model")
        out.add(
            model, self._model_zipf.sample(out.rng, n_model),
            pid=proc.pid, cpu=proc.cpu, ip=_IP_MODEL,
        )

        scratch = proc.vma("scratch")
        out.add(
            scratch, sequential_sweep(scratch.npages, n_scratch),
            pid=proc.pid, cpu=proc.cpu, is_store=True, ip=_IP_SCRATCH,
        )
