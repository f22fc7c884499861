"""XSBench workload model.

XSBench distills the macroscopic-cross-section lookup kernel of Monte
Carlo neutron transport (OpenMC): each particle history performs
lookups at random energy grid points across a *huge* unionized grid
(the paper runs the 120 GB input), reading a handful of consecutive
nuclide rows per lookup, plus hot accesses to a small nuclide index.

The result is the thinnest page coverage of any Table III workload:
the footprint dwarfs what any sampler can see, IBS detects ~40-110x
more pages than the budgeted A-bit scan, and virtually every grid
access misses the LLC.
"""

from __future__ import annotations

import numpy as np

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import BoundedZipf, StreamBuilder, uniform_pages

__all__ = ["XSBench"]

_IP_GRID = 0x5000_0000
_IP_INDEX = 0x5000_1000


class XSBench(Workload):
    """Monte Carlo cross-section lookup kernel."""

    name = "xsbench"

    def __init__(
        self,
        footprint_pages: int = 245_760,
        n_processes: int = 8,
        accesses_per_epoch: int = 160_000,
        index_pages: int = 128,
        lookup_width: int = 4,
        index_fraction: float = 0.25,
        thp: bool = False,
        **kw,
    ):
        super().__init__(footprint_pages, n_processes, accesses_per_epoch, **kw)
        self.index_pages = int(index_pages)
        self.lookup_width = int(lookup_width)
        self.index_fraction = float(index_fraction)
        #: THP-back the unionized grid (huge anonymous allocation).
        self.thp = bool(thp)
        self._index_zipf: BoundedZipf | None = None

    def _map_process(self, machine: Machine, pid: int, index: int):
        if self._index_zipf is None:
            self._index_zipf = BoundedZipf(self.index_pages, alpha=1.1)
        order = 9 if self.thp else 0
        return {
            "grid": machine.mmap(
                pid, self.pages_per_process, name="grid", page_order=order
            ),
            "index": machine.mmap(pid, self.index_pages, name="index"),
        }

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        n_index = int(n_accesses * self.index_fraction)
        n_grid = n_accesses - n_index
        n_lookups = max(1, n_grid // self.lookup_width)

        grid = proc.vma("grid")
        # Each lookup reads `lookup_width` consecutive pages at a random
        # grid point (the nuclide rows bracketing the sampled energy).
        points = uniform_pages(out.rng, grid.npages - self.lookup_width, n_lookups)
        pages = (points[:, None] + np.arange(self.lookup_width)).ravel()
        out.add(grid, pages, pid=proc.pid, cpu=proc.cpu, ip=_IP_GRID)

        idx_vma = proc.vma("index")
        idx_pages = self._index_zipf.sample(out.rng, n_index)
        # Lookups and index probes interleave in reality; one after the
        # other inside one process is fine — cross-process interleaving
        # is the builder's.
        out.add(idx_vma, idx_pages, pid=proc.pid, cpu=proc.cpu, ip=_IP_INDEX)
