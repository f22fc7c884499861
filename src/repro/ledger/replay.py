"""Offline replay: ledger records → simulation results.

The per-epoch record payloads are exactly the wire-contract dicts of
:mod:`repro.service.telemetry`, so a full ledger replays into the same
:class:`~repro.tiering.simulator.SimulationResult` an uncrashed
in-process run would have produced — `repro ledger replay` and the
bit-identity tests both go through here.
"""

from __future__ import annotations

from ..tiering.latency_model import EpochLatency
from ..tiering.simulator import EpochMetrics, SimulationResult

__all__ = ["epoch_metrics_from_dict", "iter_epoch_dicts", "replay_result"]


def epoch_metrics_from_dict(data: dict) -> EpochMetrics:
    """Inverse of :func:`~repro.service.telemetry.epoch_metrics_to_dict`.

    Floats survive the JSON round-trip exactly (``repr`` round-trips
    every finite double), so a replayed epoch is bit-identical to the
    live one — the property the recovery tests pin.
    """
    latency = data["latency"]
    return EpochMetrics(
        epoch=int(data["epoch"]),
        accesses=int(data["accesses"]),
        mem_accesses=int(data["mem_accesses"]),
        hitrate=float(data["hitrate"]),
        promoted=int(data["promoted"]),
        demoted=int(data["demoted"]),
        latency=EpochLatency(
            base_s=float(latency["base_s"]),
            slow_fault_s=float(latency["slow_fault_s"]),
            hot_slow_extra_s=float(latency["hot_slow_extra_s"]),
            migration_s=float(latency["migration_s"]),
        ),
        profiler_overhead_s=float(data["profiler_overhead_s"]),
    )


def iter_epoch_dicts(records):
    """The ``data`` payloads of the ``epoch`` records, in seq order."""
    for record in records:
        if record.get("event") == "epoch":
            yield record["data"]


def replay_result(session_ledger, meta: dict | None = None) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from one session's ledger.

    ``meta`` is the session's recorded config (from
    :meth:`~repro.ledger.ledger.Ledger.load_meta`); when omitted the
    result's config fields fall back to empty placeholders but the
    epoch series is still exact.
    """
    config = (meta or {}).get("config", {})
    info = (meta or {}).get("info", {})
    result = SimulationResult(
        workload=str(config.get("workload", "")),
        policy=str(config.get("policy", "history")),
        rank_source=str(config.get("rank_source", "combined")),
        tier1_ratio=float(config.get("tier1_ratio", 1 / 8)),
        tier1_capacity=int(info.get("tier1_capacity", 0)),
    )
    for data in iter_epoch_dicts(session_ledger.read()):
        result.epochs.append(epoch_metrics_from_dict(data))
    return result
