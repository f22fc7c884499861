"""Data-Caching (CloudSuite memcached) workload model.

Four memcached server instances serve a Twitter-derived key-value
dataset to eight closed-loop clients.  Server heaps hold slab-allocated
values whose popularity follows the Twitter request skew (Zipf,
α ≈ 1.0); a compact hash index takes a probe per request; ~10 % of
requests are SETs that write a value page.  Clients run tiny
footprints: request buffers reused every request (cache-resident).

Profiling character (Table IV): A-bit and IBS page counts land close to
parity — the per-epoch touched set (what a budgeted scan can see) and
the memory-miss hot set (what IBS samples) are both the Zipf head.
"""

from __future__ import annotations

import numpy as np

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import BoundedZipf, StreamBuilder, sequential_sweep

__all__ = ["DataCaching"]

_IP_VALUES = 0x9000_0000
_IP_INDEX = 0x9000_1000
_IP_CLIENT = 0x9000_2000


class DataCaching(Workload):
    """memcached-style Zipfian GET/SET service."""

    name = "data-caching"

    def __init__(
        self,
        footprint_pages: int = 98_304,
        n_servers: int = 4,
        n_clients: int = 8,
        accesses_per_epoch: int = 180_000,
        zipf_alpha: float = 1.2,
        set_fraction: float = 0.1,
        index_pages: int = 256,
        client_pages: int = 64,
        index_fraction: float = 0.2,
        **kw,
    ):
        super().__init__(
            footprint_pages, n_servers + n_clients, accesses_per_epoch, **kw
        )
        self.n_servers = int(n_servers)
        self.n_clients = int(n_clients)
        self.zipf_alpha = float(zipf_alpha)
        self.set_fraction = float(set_fraction)
        self.index_pages = int(index_pages)
        self.client_pages = int(client_pages)
        self.index_fraction = float(index_fraction)
        self._zipfs: dict[int, BoundedZipf] = {}

    @property
    def heap_pages_per_server(self) -> int:
        """Value-heap pages per memcached instance."""
        return self.footprint_pages // self.n_servers

    def _map_process(self, machine: Machine, pid: int, index: int):
        if index < self.n_servers:
            heap = self.heap_pages_per_server
            self._zipfs[pid] = BoundedZipf(
                heap, alpha=self.zipf_alpha,
                perm_rng=np.random.default_rng(9300 + index),
            )
            return {
                "values": machine.mmap(pid, heap, name="values"),
                "index": machine.mmap(pid, self.index_pages, name="index"),
            }
        return {"reqbuf": machine.mmap(pid, self.client_pages, name="reqbuf")}

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        if "values" in proc.vmas:
            self._server_epoch(proc, n_accesses, out)
        else:
            self._client_epoch(proc, n_accesses, out)

    def _server_epoch(self, proc, n_accesses, out) -> None:
        # Value accesses dominate; the compact hash index takes a much
        # smaller probe share (and stays largely cache-resident).
        n_index = int(n_accesses * self.index_fraction)
        n_values = n_accesses - n_index
        values = proc.vma("values")
        index = proc.vma("index")

        value_pages = self._zipfs[proc.pid].sample(out.rng, n_values)
        is_set = out.rng.random(n_values) < self.set_fraction
        out.add(
            values, value_pages, pid=proc.pid, cpu=proc.cpu, is_store=is_set,
            ip=_IP_VALUES,
        )
        # Hash-index probes: uniform over the compact index, drawn after
        # the values but issued ahead of them.
        idx_pages = out.rng.integers(0, index.npages, n_index)
        out.add(index, idx_pages, pid=proc.pid, cpu=proc.cpu, ip=_IP_INDEX, at=0)

    def _client_epoch(self, proc, n_accesses, out) -> None:
        # Clients are cheap: reuse a small request buffer continuously.
        # (Light enough to fall below TMP's 5% CPU filter threshold.)
        buf = proc.vma("reqbuf")
        n = max(16, n_accesses // 32)
        sweep = sequential_sweep(buf.npages, n)
        out.add(buf, sweep, pid=proc.pid, cpu=proc.cpu, ip=_IP_CLIENT)
