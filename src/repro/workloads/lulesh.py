"""LULESH workload model.

LULESH (Livermore Unstructured Lagrangian Explicit Shock Hydrodynamics)
marches a structured hexahedral mesh through timesteps; each step
sweeps several nodal and element-centered arrays sequentially, with
strided companion accesses for the stencil neighbors in the slower
mesh dimensions.  Locality is high — sweeps are prefetch- and
TLB-friendly — so although the footprint is large (the paper runs a
21 GB problem), the hot set per epoch is a moving sequential window and
the LLC-miss stream is dominated by streaming (low-reuse) pages.
"""

from __future__ import annotations

import numpy as np

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import StreamBuilder, strided_sweep, windowed_sweep

__all__ = ["LULESH"]

_IP_NODAL = 0x8000_0000
_IP_ELEM = 0x8000_1000
_IP_STENCIL = 0x8000_2000


class LULESH(Workload):
    """Structured-mesh stencil sweeps over nodal + element arrays."""

    name = "lulesh"

    def __init__(
        self,
        footprint_pages: int = 86_016,
        n_processes: int = 8,
        accesses_per_epoch: int = 160_000,
        plane_stride: int = 32,
        dwell: int = 8,
        thp: bool = False,
        **kw,
    ):
        super().__init__(footprint_pages, n_processes, accesses_per_epoch, **kw)
        self.plane_stride = int(plane_stride)
        self.dwell = int(dwell)
        #: THP-back the mesh arrays (large anonymous allocations).
        self.thp = bool(thp)

    def _map_process(self, machine: Machine, pid: int, index: int):
        per = self.pages_per_process
        nodal_pages = max(1, per // 2)
        elem_pages = max(1, per - nodal_pages)
        order = 9 if self.thp else 0
        return {
            "nodal": machine.mmap(pid, nodal_pages, name="nodal", page_order=order),
            "elem": machine.mmap(pid, elem_pages, name="elem", page_order=order),
        }

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        n_nodal = n_accesses // 2
        n_elem = n_accesses // 3
        n_stencil = n_accesses - n_nodal - n_elem

        nodal = proc.vma("nodal")
        # The sweep window advances each timestep (epoch): velocity /
        # position updates are load-store pairs, with `dwell` line
        # touches per page before advancing.
        start = (epoch_idx * (n_nodal // self.dwell) // 4) % nodal.npages
        sweep = windowed_sweep(nodal.npages, n_nodal, self.dwell, start=start)
        is_store = np.zeros(n_nodal, dtype=bool)
        is_store[1::2] = True
        out.add(
            nodal, sweep, pid=proc.pid, cpu=proc.cpu, is_store=is_store,
            ip=_IP_NODAL,
        )

        elem = proc.vma("elem")
        elem_sweep = windowed_sweep(
            elem.npages, n_elem, self.dwell,
            start=(epoch_idx * (n_elem // self.dwell) // 4) % elem.npages,
        )
        out.add(elem, elem_sweep, pid=proc.pid, cpu=proc.cpu, ip=_IP_ELEM)

        # Stencil neighbors in the k-dimension: strided companion reads.
        stencil = strided_sweep(
            nodal.npages, n_stencil, stride=self.plane_stride,
            start=start % self.plane_stride,
        )
        out.add(nodal, stencil, pid=proc.pid, cpu=proc.cpu, ip=_IP_STENCIL)
