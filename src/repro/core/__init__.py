"""TMP — the tiered-memory profiler (the paper's primary contribution).

Public surface: configure a :class:`TMPConfig`, build a
:class:`TMProfiler` over a machine, register workload PIDs (directly or
through the :class:`TMPDaemon`), feed executed batches, and read
per-epoch :class:`TMPEpochReport` profiles whose hotness rankings drive
the tiered-memory policies in :mod:`repro.tiering`.  :class:`ProfiledRun`
is that whole cycle behind two calls (``populate``, ``run_epoch``).
"""

from .abit_driver import ABitDriver, ABitScanStats
from .config import CostModel, TMPConfig
from .daemon import ProgramEntry, TMPDaemon
from .driver import EpochRecord, ProfiledRun
from .hotness import RankSource, hotness_rank, top_k_pages
from .hwpc_monitor import GatingDecision, HWPCMonitor
from .numa_maps import format_all_numa_maps, format_numa_maps
from .page_stats import EpochProfile, PageStatsStore
from .process_filter import ProcessFilter, ProcessUsage
from .profiler import OverheadBreakdown, TMPEpochReport, TMProfiler
from .trace_driver import TraceDriver, TraceDriverStats

__all__ = [
    "ABitDriver",
    "ABitScanStats",
    "CostModel",
    "EpochProfile",
    "EpochRecord",
    "GatingDecision",
    "HWPCMonitor",
    "OverheadBreakdown",
    "PageStatsStore",
    "ProcessFilter",
    "ProcessUsage",
    "ProfiledRun",
    "ProgramEntry",
    "RankSource",
    "TMPConfig",
    "TMPDaemon",
    "TMPEpochReport",
    "TMProfiler",
    "TraceDriver",
    "TraceDriverStats",
    "format_all_numa_maps",
    "format_numa_maps",
    "hotness_rank",
    "top_k_pages",
]
