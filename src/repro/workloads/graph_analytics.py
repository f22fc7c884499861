"""Graph-Analytics (CloudSuite) workload model.

CloudSuite's graph-analytics benchmark runs PageRank-style iterative
computation over the Twitter follower graph on a Spark master plus
worker pool.  Each iteration: a sequential sweep over the rank/message
arrays interleaved with power-law random reads of neighbor ranks
(Twitter's in-degree distribution is heavily skewed, so a small set of
celebrity-node pages is extremely hot).

The steady per-iteration repetition makes this the friendliest workload
for the History policy — last epoch's hot set *is* next epoch's.
"""

from __future__ import annotations

import numpy as np

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import BoundedZipf, StreamBuilder, windowed_sweep

__all__ = ["GraphAnalytics"]

_IP_RANKS = 0x7000_0000
_IP_NEIGHBORS = 0x7000_1000


class GraphAnalytics(Workload):
    """Iterative PageRank over a power-law (Twitter-like) graph."""

    name = "graph-analytics"

    def __init__(
        self,
        footprint_pages: int = 45_056,
        n_processes: int = 17,  # 1 master + 16 workers
        accesses_per_epoch: int = 170_000,
        neighbor_alpha: float = 0.8,
        neighbor_fraction: float = 0.55,
        **kw,
    ):
        super().__init__(footprint_pages, n_processes, accesses_per_epoch, **kw)
        self.neighbor_alpha = float(neighbor_alpha)
        self.neighbor_fraction = float(neighbor_fraction)
        self._zipfs: dict[int, BoundedZipf] = {}

    def _map_process(self, machine: Machine, pid: int, index: int):
        per = self.pages_per_process
        graph_pages = max(1, (per * 2) // 3)
        rank_pages = max(1, per - graph_pages)
        self._zipfs[pid] = BoundedZipf(
            graph_pages, alpha=self.neighbor_alpha,
            perm_rng=np.random.default_rng(8100 + index),
        )
        return {
            "graph": machine.mmap(pid, graph_pages, name="graph"),
            "ranks": machine.mmap(pid, rank_pages, name="ranks"),
        }

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        n_neigh = int(n_accesses * self.neighbor_fraction)
        n_sweep = n_accesses - n_neigh

        ranks = proc.vma("ranks")
        sweep = windowed_sweep(ranks.npages, n_sweep, 4)
        # The sweep writes the new rank vector: alternate load/store.
        is_store = np.zeros(n_sweep, dtype=bool)
        is_store[1::2] = True
        out.add(
            ranks, sweep, pid=proc.pid, cpu=proc.cpu, is_store=is_store,
            ip=_IP_RANKS,
        )

        graph = proc.vma("graph")
        neigh = self._zipfs[proc.pid].sample(out.rng, n_neigh)
        out.add(graph, neigh, pid=proc.pid, cpu=proc.cpu, ip=_IP_NEIGHBORS)
