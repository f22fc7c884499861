"""GUPS (Giga-Updates Per Second) workload model.

The HPC Challenge RandomAccess kernel: read-modify-write updates to
uniformly random 8-byte slots of a giant table, plus a small sequential
substitution-stream region.  Maximal page-level sparsity — every access
goes to a cold, random page — which makes GUPS the paper's showcase for
trace-based profiling: IBS detects an order of magnitude more pages
than a budgeted A-bit scan (Table IV: 76 K→468 K IBS vs ~5.5 K A-bit),
and almost every access is both a TLB miss and an LLC miss.
"""

from __future__ import annotations

import numpy as np

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import StreamBuilder, rmw_expand, uniform_pages

__all__ = ["GUPS"]

_IP_UPDATE = 0x4000_0000
_IP_STREAM = 0x4000_1000


class GUPS(Workload):
    """Uniform random-update kernel over a large table."""

    name = "gups"

    def __init__(
        self,
        footprint_pages: int = 16_384,
        n_processes: int = 8,
        accesses_per_epoch: int = 160_000,
        stream_pages: int = 64,
        update_fraction: float = 0.9,
        thp: bool = False,
        **kw,
    ):
        super().__init__(footprint_pages, n_processes, accesses_per_epoch, **kw)
        self.stream_pages = int(stream_pages)
        self.update_fraction = float(update_fraction)
        #: Back the giant table with 2 MiB transparent huge pages, as a
        #: THP-enabled kernel would for a large anonymous allocation.
        self.thp = bool(thp)

    def _map_process(self, machine: Machine, pid: int, index: int):
        order = 9 if self.thp else 0
        return {
            "table": machine.mmap(
                pid, self.pages_per_process, name="table", page_order=order
            ),
            "stream": machine.mmap(pid, self.stream_pages, name="stream"),
        }

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        n_updates = int(n_accesses * self.update_fraction) // 2  # RMW pairs
        n_stream = n_accesses - 2 * n_updates

        table = proc.vma("table")
        targets = uniform_pages(out.rng, table.npages, n_updates)
        pages, is_store = rmw_expand(targets, out.rng, store_fraction=1.0)
        out.add(
            table, pages, pid=proc.pid, cpu=proc.cpu, is_store=is_store,
            ip=_IP_UPDATE,
        )

        stream = proc.vma("stream")
        start = (epoch_idx * n_stream) % stream.npages
        seq = (start + np.arange(n_stream, dtype=np.int64) // 8) % stream.npages
        out.add(stream, seq, pid=proc.pid, cpu=proc.cpu, ip=_IP_STREAM)
