"""Workload colocation: several tenants sharing one machine.

The paper's evaluation runs one workload at a time, but TMP's design —
the resource-usage process filter, per-PID page tables, PMU gating — is
motivated by consolidated cloud servers where many applications share
the memory system (§I).  :class:`MultiWorkload` composes Table III
workloads into one tenant mix: each keeps its own processes and VMAs
(PID bases are spaced automatically), per-epoch streams interleave in
chunks, and the combined footprint competes for the same TLBs, caches,
and memory tiers.
"""

from __future__ import annotations

import numpy as np

from ..memsim.events import AccessBatch
from ..memsim.machine import Machine
from .base import Workload, interleave

__all__ = ["MultiWorkload"]

#: Gap between successive tenants' PID ranges.
_PID_STRIDE = 1000


class MultiWorkload(Workload):
    """A tenant mix behaving as a single composite workload."""

    name = "colocation"

    def __init__(self, tenants: list[Workload]):
        if not tenants:
            raise ValueError("need at least one tenant workload")
        # Space tenants' PID ranges so they never collide.
        for i, tenant in enumerate(tenants):
            tenant.pid_base = 100 + i * _PID_STRIDE
        super().__init__(
            footprint_pages=sum(t.footprint_pages for t in tenants),
            n_processes=sum(t.n_processes for t in tenants),
            accesses_per_epoch=sum(t.accesses_per_epoch for t in tenants),
        )
        self.tenants = list(tenants)
        self.name = "+".join(t.name for t in tenants)

    def attach(self, machine: Machine) -> None:
        """Attach every tenant to the shared machine."""
        if self._machine is not None:
            raise RuntimeError(f"workload {self.name!r} is already attached")
        self._machine = machine
        for tenant in self.tenants:
            tenant.attach(machine)
            self.processes.extend(tenant.processes)

    def epoch(self, epoch_idx: int, rng: np.random.Generator) -> AccessBatch:
        """Interleave all tenants' epoch streams."""
        if self._machine is None:
            raise RuntimeError(f"workload {self.name!r} is not attached to a machine")
        return interleave([t.epoch(epoch_idx, rng) for t in self.tenants], rng)

    def init_stream(self, rng: np.random.Generator, dwell: int = 2) -> AccessBatch:
        """Interleave all tenants' population phases."""
        if self._machine is None:
            raise RuntimeError(f"workload {self.name!r} is not attached to a machine")
        return interleave([t.init_stream(rng, dwell=dwell) for t in self.tenants], rng)

    def tenant_pids(self) -> dict[str, list[int]]:
        """PID ranges per tenant name (for daemon registration)."""
        return {t.name: t.pids for t in self.tenants}
