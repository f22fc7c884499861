"""Tiered-memory management: tiers, placement, migration, policies,
the emulation latency model, and the end-to-end epoch simulator."""

from .latency_model import EpochLatency, LatencyModel
from .migration import MigrationResult, PageMover
from .placement import fcfa_full_placement, fcfa_place_new
from .policies import (
    AutoNUMAPolicy,
    FCFAPolicy,
    HistoryPolicy,
    OraclePolicy,
    TrueOraclePolicy,
    POLICIES,
    Policy,
    PolicyContext,
    RandomPolicy,
    ThermostatPolicy,
    WriteAwarePolicy,
)
from .recorded import EpochRecord, RecordedRun, evaluate_recorded, record_run
from .serialize import load_recorded, save_recorded
from .simulator import EpochMetrics, PlacementStep, SimulationResult, TieredSimulator
from .tiers import TIER1, TIER2, UNPLACED, TieredMemory, TierSpec, make_tiers

__all__ = [
    "AutoNUMAPolicy",
    "EpochLatency",
    "EpochMetrics",
    "EpochRecord",
    "RecordedRun",
    "evaluate_recorded",
    "load_recorded",
    "record_run",
    "save_recorded",
    "FCFAPolicy",
    "HistoryPolicy",
    "LatencyModel",
    "MigrationResult",
    "OraclePolicy",
    "TrueOraclePolicy",
    "POLICIES",
    "PageMover",
    "PlacementStep",
    "Policy",
    "PolicyContext",
    "RandomPolicy",
    "ThermostatPolicy",
    "SimulationResult",
    "TIER1",
    "TIER2",
    "TieredMemory",
    "TieredSimulator",
    "TierSpec",
    "UNPLACED",
    "WriteAwarePolicy",
    "fcfa_full_placement",
    "fcfa_place_new",
    "make_tiers",
]
