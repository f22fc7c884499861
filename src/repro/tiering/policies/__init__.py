"""Tiered-memory placement policies (Table II plus extensions)."""

from .autonuma import AutoNUMAPolicy
from .base import Policy, PolicyContext, fill_with_residents
from .fcfa import FCFAPolicy
from .history import HistoryPolicy
from .oracle import OraclePolicy, TrueOraclePolicy
from .random_policy import RandomPolicy
from .thermostat import ThermostatPolicy
from .write_aware import WriteAwarePolicy

#: Name → class registry for benches and examples.
POLICIES = {
    p.name: p
    for p in (
        OraclePolicy,
        TrueOraclePolicy,
        HistoryPolicy,
        FCFAPolicy,
        AutoNUMAPolicy,
        WriteAwarePolicy,
        ThermostatPolicy,
        RandomPolicy,
    )
}


def resolve_policy(name: str, *, error=KeyError) -> type[Policy]:
    """The policy class registered as ``name``; a name nobody registered
    raises ``error(message)``, worded here and nowhere else (the twin of
    :func:`repro.workloads.resolve_workload`)."""
    try:
        return POLICIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable off the wire
        raise error(
            f"unknown policy {name!r}; available: {', '.join(POLICIES)}"
        ) from None


__all__ = [
    "AutoNUMAPolicy",
    "FCFAPolicy",
    "HistoryPolicy",
    "OraclePolicy",
    "TrueOraclePolicy",
    "POLICIES",
    "Policy",
    "PolicyContext",
    "RandomPolicy",
    "ThermostatPolicy",
    "WriteAwarePolicy",
    "fill_with_residents",
    "resolve_policy",
]
