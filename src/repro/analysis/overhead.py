"""Profiling overhead accounting (§VI-B).

The paper measures end-to-end workload latency with each profiling
mechanism armed: A-bit walks every second cost <1 % of application
time; IBS collection stays <5 % at the 4x rate and <2 % at the default
rate.  :func:`measure_overhead` runs a workload under a given TMP
configuration and reports the modelled profiling time as a fraction of
application time, broken down by component.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import TMPConfig
from ..core.driver import ProfiledRun
from ..memsim.machine import MachineConfig
from ..workloads.base import Workload

__all__ = ["OverheadReport", "measure_overhead"]


@dataclass
class OverheadReport:
    """Overhead of one profiling configuration on one workload."""

    workload: str
    label: str
    app_time_s: float
    abit_s: float
    trace_s: float
    hwpc_s: float
    filter_s: float
    abit_scans: int
    trace_samples: int

    @property
    def total_s(self) -> float:
        return self.abit_s + self.trace_s + self.hwpc_s + self.filter_s

    @property
    def fraction(self) -> float:
        """Profiling time / application time."""
        return self.total_s / self.app_time_s if self.app_time_s else 0.0

    @property
    def abit_fraction(self) -> float:
        return self.abit_s / self.app_time_s if self.app_time_s else 0.0

    @property
    def trace_fraction(self) -> float:
        return self.trace_s / self.app_time_s if self.app_time_s else 0.0


def measure_overhead(
    workload: Workload,
    *,
    label: str = "",
    machine_config: MachineConfig | None = None,
    tmp_config: TMPConfig | None = None,
    epochs: int = 10,
    seed: int = 0,
) -> OverheadReport:
    """Run ``workload`` under TMP and account profiling time."""
    run = ProfiledRun(
        workload, machine_config=machine_config, tmp_config=tmp_config, seed=seed
    )
    for _ in range(epochs):
        run.run_epoch()
    total = run.profiler.total_overhead()
    return OverheadReport(
        workload=workload.name,
        label=label,
        app_time_s=run.machine.time_s,
        abit_s=total.abit_s,
        trace_s=total.trace_s,
        hwpc_s=total.hwpc_s,
        filter_s=total.filter_s,
        abit_scans=run.profiler.abit.stats.scans,
        trace_samples=run.profiler.trace.stats.samples_collected,
    )
