"""Workload abstractions: epoch-structured access-stream generators.

A :class:`Workload` owns one or more simulated processes, maps their
VMAs on a machine via :meth:`attach`, and then emits one
:class:`~repro.memsim.events.AccessBatch` per *epoch* (the paper's
policy/profiling quantum, nominally one second of execution).  All
randomness flows through the caller-supplied ``numpy.random.Generator``
so runs are reproducible end to end; a workload's processes draw from
it through the epoch's :class:`~repro.workloads.synth.StreamBuilder`.

Multi-process workloads (Table III runs CloudSuite services with many
workers and HPC codes with 8 ranks) split their footprint across
processes and interleave the per-process streams in small chunks, which
is what creates the TLB/cache contention a shared machine would see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memsim.events import AccessBatch
from ..memsim.machine import Machine
from ..memsim.page_table import VMA
from .synth import CHUNK, StreamBuilder, _runs, interleave_pieces

__all__ = ["Workload", "ProcessContext", "interleave"]


@dataclass
class ProcessContext:
    """One simulated process of a workload: its PID and mapped regions."""

    pid: int
    cpu: int
    vmas: dict[str, VMA]

    def vma(self, name: str) -> VMA:
        """Look up one of the process's regions by name."""
        return self.vmas[name]


def interleave(
    batches: list[AccessBatch], rng: np.random.Generator, chunk: int = CHUNK
) -> AccessBatch:
    """Interleave whole streams in randomized chunks
    (:func:`~repro.workloads.synth.interleave_pieces`); a workload's own
    processes are interleaved by its :class:`StreamBuilder`."""
    batches = [b for b in batches if b.n]
    if not batches:
        return AccessBatch.empty()
    if len(batches) == 1:
        return batches[0]
    whole = AccessBatch.concat(batches)
    first, order = interleave_pieces([b.n for b in batches], rng, chunk)
    size = np.diff(first, append=whole.n)
    return whole.take(_runs(first[order], size[order]))


class Workload:
    """Base class for the Table III workload models.

    A subclass generates its epochs one process at a time with
    :meth:`_process_epoch`, or, when its processes draw alike, all of
    them at once with :meth:`_add_epoch`: one of the two.

    Parameters
    ----------
    footprint_pages:
        Total data footprint across all processes, in 4 KiB pages.
    n_processes:
        Number of simulated processes (ranks / workers / instances).
    accesses_per_epoch:
        Total accesses emitted per epoch across all processes.
    pid_base:
        First PID; processes get consecutive PIDs.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def __init__(
        self,
        footprint_pages: int,
        n_processes: int = 1,
        accesses_per_epoch: int = 200_000,
        pid_base: int = 100,
    ):
        if footprint_pages < n_processes:
            raise ValueError(
                f"footprint_pages ({footprint_pages}) must cover at least one "
                f"page per process ({n_processes})"
            )
        if n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {n_processes}")
        self.footprint_pages = int(footprint_pages)
        self.n_processes = int(n_processes)
        self.accesses_per_epoch = int(accesses_per_epoch)
        self.pid_base = int(pid_base)
        self.processes: list[ProcessContext] = []
        self._machine: Machine | None = None

    @property
    def pids(self) -> list[int]:
        """PIDs of the workload's processes."""
        return [p.pid for p in self.processes]

    @property
    def pages_per_process(self) -> int:
        """Data pages owned by each process."""
        return self.footprint_pages // self.n_processes

    def attach(self, machine: Machine) -> None:
        """Map the workload's VMAs on ``machine`` (idempotent guard)."""
        if self._machine is not None:
            raise RuntimeError(f"workload {self.name!r} is already attached")
        self._machine = machine
        for i in range(self.n_processes):
            pid = self.pid_base + i
            cpu = i % machine.config.n_cpus
            vmas = self._map_process(machine, pid, i)
            self.processes.append(ProcessContext(pid=pid, cpu=cpu, vmas=vmas))

    def _map_process(self, machine: Machine, pid: int, index: int) -> dict[str, VMA]:
        """Map one process's regions; default: a single data VMA."""
        return {"data": machine.mmap(pid, self.pages_per_process, name="data")}

    def epoch(self, epoch_idx: int, rng: np.random.Generator) -> AccessBatch:
        """Generate the epoch's access stream across all processes."""
        if self._machine is None:
            raise RuntimeError(f"workload {self.name!r} is not attached to a machine")
        per_proc = max(1, self.accesses_per_epoch // self.n_processes)
        out = StreamBuilder(rng)
        self._add_epoch(epoch_idx, per_proc, out)
        return out.build()

    def init_stream(self, rng: np.random.Generator, dwell: int = 2) -> AccessBatch:
        """The population phase: write every page once, in address order.

        Real services initialize before they serve — memcached loads
        its dataset, HPC ranks fill their arrays, JVMs build heaps — so
        a page's *allocation* order carries no hotness information.
        Running this stream before epoch 0 gives first-touch policies
        (the FCFA baseline) their realistic, hotness-blind placement.
        """
        if self._machine is None:
            raise RuntimeError(f"workload {self.name!r} is not attached to a machine")
        out = StreamBuilder(rng)
        for proc in self.processes:
            for vma in proc.vmas.values():
                pages = np.repeat(np.arange(vma.npages, dtype=np.int64), dwell)
                out.add(vma, pages, pid=proc.pid, cpu=proc.cpu, is_store=True)
                out.end_stream()
        return out.build()

    def _add_epoch(self, epoch_idx: int, n_accesses: int, out: StreamBuilder) -> None:
        """Add every process's stream for this epoch to ``out``, one
        stream of ``n_accesses`` per process in process order, drawing
        through ``out.rng``.  By default each comes from
        :meth:`_process_epoch`."""
        for proc in self.processes:
            self._process_epoch(proc, epoch_idx, n_accesses, out)
            out.end_stream()

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        """Add one process's stream for this epoch to ``out``, drawing
        through ``out.rng``."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither _process_epoch nor _add_epoch"
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(footprint_pages={self.footprint_pages}, "
            f"n_processes={self.n_processes}, "
            f"accesses_per_epoch={self.accesses_per_epoch})"
        )
