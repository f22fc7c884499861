"""Resource-usage process filtering.

§III-B.4, second optimization: A-bit walk overhead is proportional to
the number of page tables traversed, so TMP only tracks processes
consuming at least 5 % CPU or 10 % memory, re-evaluated once per
second.  A stricter mode caps the number of tracked PIDs outright to
keep overhead stable under process churn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import TMPConfig

__all__ = ["ProcessFilter", "ProcessUsage"]


@dataclass(frozen=True)
class ProcessUsage:
    """One process's resource shares over the last interval."""

    pid: int
    cpu_share: float  # fraction of executed ops attributed to the PID
    mem_share: float  # fraction of allocated frames owned by the PID


class ProcessFilter:
    """Selects which PIDs the heavyweight mechanisms cover."""

    def __init__(self, config: TMPConfig, max_tracked: int | None = None):
        self.config = config
        #: Restrictive mode: hard cap on tracked PIDs (highest usage wins).
        self.max_tracked = max_tracked
        self.evaluations = 0
        self.time_s = 0.0
        self._tracked: list[int] = []

    @property
    def tracked(self) -> list[int]:
        """PIDs selected by the most recent evaluation."""
        return list(self._tracked)

    def evaluate(self, usage: list[ProcessUsage]) -> list[int]:
        """Re-evaluate the tracked set from fresh usage numbers."""
        self.evaluations += 1
        self.time_s += len(usage) * self.config.costs.filter_eval_s
        if not self.config.process_filter:
            selected = list(usage)
        else:
            selected = [
                u
                for u in usage
                if u.cpu_share >= self.config.min_cpu_share
                or u.mem_share >= self.config.min_mem_share
            ]
        if self.max_tracked is not None and len(selected) > self.max_tracked:
            selected = sorted(
                selected, key=lambda u: (u.cpu_share + u.mem_share), reverse=True
            )[: self.max_tracked]
        self._tracked = sorted(u.pid for u in selected)
        return self.tracked
