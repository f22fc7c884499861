"""Hardware substrate: the simulated memory system TMP profiles.

This subpackage models every mechanism the paper's profiler consumes —
page tables with A/D bits, a stateful TLB with a hardware walker, a
cache hierarchy, a multiplexing PMU, IBS/PEBS trace samplers, Intel
PML, and BadgerTrap — plus the machine assembly that executes workload
access streams through them.
"""

from .address import (
    LINE_SHIFT,
    LINE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    line_of,
    page_of,
)
from .badgertrap import BadgerTrap
from .cache import CacheHierarchy, CacheLevel
from .events import AccessBatch, DataSource, SampleBatch
from .frames import FrameAllocator, FrameStats
from .ibs import IBSSampler
from .lwp import LWPSampler
from .machine import BatchResult, Machine, MachineConfig
from .page_table import PageTable, TranslationFault, VMA
from .pebs import PEBSSampler
from .pml import PMLogger
from .pmu import EVENT_NAMES, PMU
from .ptw import PageTableWalker
from .sampling import DEFAULT_IBS_PERIOD

__all__ = [
    "AccessBatch",
    "BadgerTrap",
    "BatchResult",
    "CacheHierarchy",
    "CacheLevel",
    "DataSource",
    "DEFAULT_IBS_PERIOD",
    "EVENT_NAMES",
    "FrameAllocator",
    "FrameStats",
    "IBSSampler",
    "LWPSampler",
    "LINE_SHIFT",
    "LINE_SIZE",
    "Machine",
    "MachineConfig",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PageTable",
    "PageTableWalker",
    "PEBSSampler",
    "PMLogger",
    "PMU",
    "SampleBatch",
    "TranslationFault",
    "VMA",
    "line_of",
    "page_of",
]
