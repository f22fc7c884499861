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
from .base import Workload
from .synth import StreamBuilder

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

    def _add_epoch(self, epoch_idx: int, n_accesses: int, out: StreamBuilder) -> None:
        n_updates = int(n_accesses * self.update_fraction) // 2  # RMW pairs
        n_stream = n_accesses - 2 * n_updates
        procs = self.processes
        table_pages = procs[0].vmas["table"].npages

        # Every process's columns at once, a row each: its update
        # targets, each twice (a load, then a store), and one sequence
        # over the substitution stream that every process shares.
        pairs = np.empty((len(procs), n_updates, 2), dtype=np.int64)
        stores = np.zeros(pairs.shape, dtype=bool)
        stores[:, :, 1] = True
        pages = pairs.reshape(len(procs), -1)
        is_store = stores.reshape(len(procs), -1)
        start = (epoch_idx * n_stream) % self.stream_pages
        seq = (start + np.arange(n_stream, dtype=np.int64) // 8) % self.stream_pages

        # The draws stay one process at a time: the previous process's
        # line offsets (drawn by ``out.rng``), then this one's targets,
        # then its store coins, which all come up stores at a store
        # fraction of 1 but are drawn all the same.
        for proc, pair, row, row_stores in zip(procs, pairs, pages, is_store):
            rng = out.rng
            targets = rng.integers(0, table_pages, size=n_updates, dtype=np.int64)
            pair[:] = targets[:, None]
            rng.random(n_updates)
            out.add(
                proc.vmas["table"], row, pid=proc.pid, cpu=proc.cpu,
                is_store=row_stores, ip=_IP_UPDATE,
            )
            out.add(proc.vmas["stream"], seq, pid=proc.pid, cpu=proc.cpu, ip=_IP_STREAM)
            out.end_stream()
