"""HWPC-based activity gating.

§III-B.4, first optimization: the two heavyweight mechanisms are
complemented with near-free performance counters so they can be
disabled during quiet phases.  TMP counts LLC-miss and dTLB-miss events
each interval, tracks the running maximum per event, and considers a
mechanism *active* while its current count exceeds 20 % of that
maximum.  The monitor only produces decisions; the profiler applies
them to the drivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memsim.machine import Machine
from .config import TMPConfig

__all__ = ["HWPCMonitor", "GatingDecision"]


@dataclass
class GatingDecision:
    """One interval's gating outcome."""

    trace_active: bool
    abit_active: bool
    llc_miss_rate: float
    dtlb_miss_rate: float


@dataclass
class _EventTrack:
    maximum: float = 0.0
    current: float = 0.0

    def update(self, value: float) -> None:
        self.current = value
        if value > self.maximum:
            self.maximum = value

    def active(self, threshold: float) -> bool:
        if self.maximum <= 0:
            return True  # nothing observed yet: stay armed
        return self.current > threshold * self.maximum


class HWPCMonitor:
    """Tracks gate-event rates and produces enable/disable decisions."""

    def __init__(self, machine: Machine, config: TMPConfig):
        self.machine = machine
        self.config = config
        self.reads = 0
        self.time_s = 0.0
        self._tracks: dict[str, _EventTrack] = {
            config.trace_gate_event: _EventTrack(),
            config.abit_gate_event: _EventTrack(),
        }
        machine.pmu.configure(sorted(self._tracks))

    def observe_interval(self) -> GatingDecision:
        """Read-and-reset the PMU; update maxima; decide gating."""
        readings = self.machine.pmu.read_and_reset()
        self.reads += 1
        self.time_s += len(readings) * self.config.costs.pmu_read_s
        for event, track in self._tracks.items():
            track.update(readings[event].estimate if event in readings else 0.0)

        threshold = self.config.gating_threshold
        cfg = self.config
        return GatingDecision(
            trace_active=self._tracks[cfg.trace_gate_event].active(threshold),
            abit_active=self._tracks[cfg.abit_gate_event].active(threshold),
            llc_miss_rate=self._tracks[cfg.trace_gate_event].current,
            dtlb_miss_rate=self._tracks[cfg.abit_gate_event].current,
        )
