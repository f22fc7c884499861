"""Graph500 (BFS over an RMAT graph) workload model.

Breadth-first search alternates between level phases of wildly varying
frontier sizes (the classic small → explosive → shrinking BFS wave on a
Kronecker/RMAT graph).  Per level: a sequential pass over the frontier
array, degree-skewed random reads of the CSR edge array (RMAT degree
distributions are power-law), and random read-modify-writes to the
visited bitmap.

The phase structure makes Graph500 the workload where epoch-to-epoch
intensity swings are largest, which exercises TMP's HWPC gating and
makes the History policy's one-epoch lag visible.
"""

from __future__ import annotations

import numpy as np

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import BoundedZipf, StreamBuilder, rmw_expand, sequential_sweep

__all__ = ["Graph500"]

_IP_FRONTIER = 0x6000_0000
_IP_EDGES = 0x6000_1000
_IP_VISITED = 0x6000_2000

#: Relative intensity of successive BFS levels (cycled per epoch).
_LEVEL_INTENSITY = (0.1, 0.45, 1.0, 0.7, 0.25)


class Graph500(Workload):
    """BFS over a synthetic power-law graph in CSR form."""

    name = "graph500"

    def __init__(
        self,
        footprint_pages: int = 16_384,
        n_processes: int = 8,
        accesses_per_epoch: int = 160_000,
        edge_alpha: float = 0.7,
        thp: bool = False,
        **kw,
    ):
        super().__init__(footprint_pages, n_processes, accesses_per_epoch, **kw)
        self.edge_alpha = float(edge_alpha)
        #: THP-back the CSR edge array (the big allocation).
        self.thp = bool(thp)
        self._edge_zipf: BoundedZipf | None = None

    def _map_process(self, machine: Machine, pid: int, index: int):
        per = self.pages_per_process
        edge_pages = max(1, (per * 3) // 4)  # edges dominate CSR storage
        frontier_pages = max(1, per // 8)
        visited_pages = max(1, per - edge_pages - frontier_pages)
        if self._edge_zipf is None:
            self._edge_zipf = BoundedZipf(
                edge_pages, alpha=self.edge_alpha,
                perm_rng=np.random.default_rng(4500),
            )
        return {
            "edges": machine.mmap(
                pid, edge_pages, name="edges", page_order=9 if self.thp else 0
            ),
            "frontier": machine.mmap(pid, frontier_pages, name="frontier"),
            "visited": machine.mmap(pid, visited_pages, name="visited"),
        }

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        intensity = _LEVEL_INTENSITY[epoch_idx % len(_LEVEL_INTENSITY)]
        n = max(16, int(n_accesses * intensity))
        n_frontier = n // 4
        n_visited_pairs = n // 8
        n_edges = n - n_frontier - 2 * n_visited_pairs

        frontier = proc.vma("frontier")
        seq = sequential_sweep(
            frontier.npages, n_frontier, start=(epoch_idx * 7) % frontier.npages
        )
        out.add(frontier, seq, pid=proc.pid, cpu=proc.cpu, ip=_IP_FRONTIER)

        edges = proc.vma("edges")
        edge_pages = self._edge_zipf.sample(out.rng, n_edges)
        # The shared zipf is sized for this topology; clamp defensively
        # in case of ragged per-process region sizes.
        edge_pages = np.minimum(edge_pages, edges.npages - 1)
        out.add(edges, edge_pages, pid=proc.pid, cpu=proc.cpu, ip=_IP_EDGES)

        visited = proc.vma("visited")
        targets = out.rng.integers(0, visited.npages, n_visited_pairs)
        pages, is_store = rmw_expand(targets, out.rng, store_fraction=0.6)
        out.add(
            visited, pages, pid=proc.pid, cpu=proc.cpu, is_store=is_store,
            ip=_IP_VISITED,
        )
