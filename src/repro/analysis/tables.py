"""Table IV reproduction: detected-page counts per method and rate.

Runs each workload once per IBS sampling rate (default / 4x / 8x),
profiles it with TMP, and reports how many distinct pages the A-bit
scan and the trace sampler each detected, plus the overlap ("Both") —
the rows of Table IV.  The derived statistics the paper quotes
(the ~2.58x average visibility gain of 4x over default; the <40 %
marginal gain of 8x over 4x) come out of :func:`rate_improvements`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import TMPConfig
from ..core.driver import ProfiledRun
from ..memsim.machine import MachineConfig
from ..workloads.registry import make_workload

__all__ = ["DetectionRow", "detected_pages_for", "table4_rows", "rate_improvements"]

#: Scaled sampling periods: the paper's default is 1 sample / 256 Ki
#: ops on a ~1e9 op/s machine; the scaled machine preserves
#: samples-per-second (see ``MachineConfig.scaled``), so default=64.
RATE_PERIODS = {"default": 64, "4x": 16, "8x": 8}


@dataclass
class DetectionRow:
    """Detected-page counts for one workload at one sampling rate."""

    workload: str
    rate: str
    abit: int
    trace: int
    both: int


def detected_pages_for(
    workload_name: str,
    *,
    rate: str = "4x",
    epochs: int = 10,
    seed: int = 0,
    tmp_config: TMPConfig | None = None,
    workload_kw: dict | None = None,
) -> DetectionRow:
    """Profile one workload at one rate; count pages per mechanism."""
    run = ProfiledRun(
        make_workload(workload_name, **(workload_kw or {})),
        machine_config=MachineConfig.scaled(ibs_period=RATE_PERIODS[rate]),
        tmp_config=tmp_config,
        seed=seed,
    )
    for _ in range(epochs):
        run.run_epoch()
    store = run.profiler.store
    return DetectionRow(
        workload=workload_name,
        rate=rate,
        abit=store.detected_pages("abit"),
        trace=store.detected_pages("trace"),
        both=store.detected_pages("both"),
    )


def table4_rows(
    workload_names,
    *,
    rates=("default", "4x", "8x"),
    epochs: int = 10,
    seed: int = 0,
) -> list[DetectionRow]:
    """All Table IV cells for the given workloads."""
    return [
        detected_pages_for(name, rate=rate, epochs=epochs, seed=seed)
        for name in workload_names
        for rate in rates
    ]


def rate_improvements(rows: list[DetectionRow]) -> dict[str, float]:
    """The paper's two derived claims from Table IV.

    Returns ``{"gain_4x_over_default": ..., "gain_8x_over_4x": ...}`` —
    mean per-workload ratios of trace-detected pages.
    """
    by_wl: dict[str, dict[str, int]] = {}
    for r in rows:
        by_wl.setdefault(r.workload, {})[r.rate] = r.trace
    g4, g8 = [], []
    for counts in by_wl.values():
        if "default" in counts and "4x" in counts and counts["default"]:
            g4.append(counts["4x"] / counts["default"])
        if "4x" in counts and "8x" in counts and counts["4x"]:
            g8.append(counts["8x"] / counts["4x"])
    return {
        "gain_4x_over_default": float(np.mean(g4)) if g4 else 0.0,
        "gain_8x_over_4x": float(np.mean(g8)) if g8 else 0.0,
    }
