"""Converters from simulator dataclasses to JSON-safe telemetry dicts.

The per-epoch dict is the payload of every ``subscribe`` event frame,
of the ``step`` response, and of every ``epoch`` record the telemetry
ledger (:mod:`repro.ledger`) persists; the result dict summarizes a
finished session on ``close_session``.  Shapes are part of the wire
protocol — see ``docs/service.md`` — so changes here are protocol
changes *and* ledger format changes: bump
:data:`repro.ledger.storage.LEDGER_FORMAT_VERSION` when a shape
changes incompatibly, or old ledgers will replay wrong.

The shared shape is also what makes the serialize-once fan-out work:
each epoch dict is JSON-encoded exactly once
(:func:`~repro.service.protocol.encode_payload`) and those bytes are
spliced verbatim into every subscriber's wire frame *and* the ledger
record's ``data`` field, so wire and disk stay bit-identical by
construction rather than by parallel encoders.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: telemetry loads no simulator
    from ..tiering.simulator import EpochMetrics, SimulationResult

__all__ = [
    "MAX_EPOCHS_PER_RESPONSE",
    "crash_event_data",
    "epoch_metrics_to_dict",
    "ledger_epoch_window",
    "recovered_event_data",
    "resumed_event_data",
    "simulation_result_to_dict",
]

#: Hard cap on epochs serialized into one response (a 100k-epoch
#: session must page through ``epochs_from``/``epochs_to`` windows, not
#: ship its whole history in a single JSON line).
MAX_EPOCHS_PER_RESPONSE = 4096


def crash_event_data(
    code: str,
    message: str,
    worker: int | None = None,
    resumable: bool | None = None,
) -> dict:
    """Payload of the structured ``error`` frame a lost session pushes.

    Delivered through the same :class:`SubscriberQueue` path as epoch
    frames, so ``seq``/``dropped`` accounting stays intact across the
    failure and consumers can tell exactly which frames they lost.
    Besides worker crashes, the same shape announces idle-TTL eviction
    (``code="evicted"``) and server drain (``code="server_drain"``) so
    a consumer can distinguish every deliberate discard from a network
    failure.

    ``resumable`` (eviction goodbyes only) tells the consumer whether
    the session state was checkpointed to the ledger before the slots
    were released — ``true`` means a later ``resume_session`` with the
    same session id re-materializes it bit-identically.

    ``unix`` (here and in the ``recovered`` / ``resumed`` payloads) is
    the wall time of the event: ledger records carry no stamp of their
    own.
    """
    data = {"code": code, "message": message, "unix": time.time()}
    if worker is not None:
        data["worker"] = int(worker)
    if resumable is not None:
        data["resumable"] = bool(resumable)
    return data


def _rebuilt_message(session_id: str, verb: str, epochs: int, rebuild: dict) -> str:
    return (
        f"session {session_id} {verb} at epoch {epochs} "
        f"({rebuild['epochs_restored']} restored, "
        f"{rebuild['epochs_replayed']} replayed)"
    )


def recovered_event_data(
    session_id: str, worker: int, epochs: int, rebuild: dict
) -> dict:
    """Payload of the ``recovered`` frame after a ledger re-materialize.

    Pushed once the crashed session's replacement is back at ``epochs``
    scored epochs; subsequent ``epoch`` frames continue the pre-crash
    series bit-identically.  ``rebuild``
    (:attr:`ProfilingSession.rebuild`) says how it got there:
    ``epochs_restored`` from a snapshot of ``snapshot_bytes`` bytes and
    ``epochs_replayed`` after it — or 0 / every epoch / 0 with a
    ``fallback_reason`` when the snapshot was missing or refused.
    """
    return {
        "worker": int(worker),
        **rebuild,
        "message": _rebuilt_message(session_id, "recovered", epochs, rebuild),
        "unix": time.time(),
    }


def resumed_event_data(
    session_id: str, epochs: int, rebuild: dict, worker: int | None = None
) -> dict:
    """Payload of the ``resumed`` frame after a checkpoint re-admission.

    The voluntary-eviction sibling of :func:`recovered_event_data`:
    pushed (and ledger-appended) once a checkpointed session is back at
    ``epochs`` scored epochs — ``rebuild`` says how, in the same fields
    — so a ``subscribe(from_seq=...)`` stream shows checkpoint,
    ``evicted`` goodbye, and resumption as one gap-free seq sequence.
    """
    data = {
        "epochs_resumed": int(epochs),
        **rebuild,
        "message": _rebuilt_message(session_id, "resumed", epochs, rebuild),
        "unix": time.time(),
    }
    if worker is not None:
        data["worker"] = int(worker)
    return data


def epoch_metrics_to_dict(m: EpochMetrics) -> dict:
    """Flatten one :class:`EpochMetrics` (incl. latency breakdown)."""
    return {
        "epoch": int(m.epoch),
        "accesses": int(m.accesses),
        "mem_accesses": int(m.mem_accesses),
        "hitrate": float(m.hitrate),
        "promoted": int(m.promoted),
        "demoted": int(m.demoted),
        "profiler_overhead_s": float(m.profiler_overhead_s),
        "runtime_s": float(m.runtime_s),
        "latency": {
            "base_s": float(m.latency.base_s),
            "slow_fault_s": float(m.latency.slow_fault_s),
            "hot_slow_extra_s": float(m.latency.hot_slow_extra_s),
            "migration_s": float(m.latency.migration_s),
            "total_s": float(m.latency.total_s),
        },
    }


def ledger_epoch_window(session_ledger, start: int, stop: int) -> list[dict]:
    """The dicts of the epochs ``start <= epoch < stop`` that
    ``session_ledger`` still holds, oldest first.

    Every epoch takes a seq of its own, so epoch ``k``'s record lies at
    seq ``k`` or later and the read starts there; retention may have
    dropped the oldest records (:attr:`~repro.ledger.storage
    .SessionLedger.first_seq`), and their epochs are then missing.
    Each record's payload is what :func:`epoch_metrics_to_dict` made,
    so it is returned as decoded.
    """
    out = []
    for _, event, payload in session_ledger.read_encoded(from_seq=start):
        if event != "epoch":
            continue
        data = json.loads(payload)
        if data["epoch"] >= stop:
            break
        if data["epoch"] >= start:
            out.append(data)
    return out


def simulation_result_to_dict(
    res: SimulationResult,
    *,
    include_epochs: bool = False,
    epochs_from: int = 0,
    epochs_to: int | None = None,
    earlier=None,
) -> dict:
    """Summarize a (possibly still-running) simulation result.

    ``include_epochs`` attaches the per-epoch series, but only the
    ``[epochs_from, epochs_to)`` window and never more than
    :data:`MAX_EPOCHS_PER_RESPONSE` entries — the response reports the
    window actually served (``epochs_from``/``epochs_to``) so callers
    can page through a long run with repeated bounded requests.

    A result restored from a snapshot holds only the epochs scored
    since (:meth:`~repro.tiering.simulator.SimulationResult
    .without_history`); ``earlier(start, stop)`` supplies the dicts of
    the window's part before them (a session reads them from its
    ledger, :func:`ledger_epoch_window`).  Retention may have dropped
    the oldest of those; ``epochs_from`` then says where the epochs
    served begin.
    """
    out = {
        "workload": res.workload,
        "policy": res.policy,
        "rank_source": res.rank_source,
        "tier1_ratio": float(res.tier1_ratio),
        "tier1_capacity": int(res.tier1_capacity),
        "epochs_run": res.epochs_run,
        "mean_hitrate": float(res.mean_hitrate),
        "total_runtime_s": float(res.total_runtime_s),
        "total_migrations": int(res.total_migrations),
    }
    if include_epochs:
        total = res.epochs_run
        start = max(int(epochs_from), 0)
        stop = total if epochs_to is None else int(epochs_to)
        stop = min(max(stop, start), total, start + MAX_EPOCHS_PER_RESPONSE)
        held = res.epochs_before
        epochs = []
        if start < held:
            before = min(stop, held)
            epochs = earlier(start, before) if earlier is not None else []
            # What retention dropped is missing from the front.
            start = before - len(epochs)
        epochs += [
            epoch_metrics_to_dict(e)
            for e in res.epochs[max(start - held, 0) : max(stop - held, 0)]
        ]
        out["epochs_from"] = start
        out["epochs_to"] = stop
        out["epochs"] = epochs
    return out
