"""repro.service — the online multi-session profiling service.

The paper's TMP is a long-running user-space daemon that watches many
processes at once and surfaces statistics to operators (§III-B.3); the
batch commands (`profile`/`tier`/`record`) only ever exercised it one
run at a time.  This subsystem hosts many concurrent profiling
*sessions* — each a :class:`~repro.tiering.simulator.TieredSimulator`
plus :class:`~repro.core.daemon.TMPDaemon` built from a config supplied
at session creation — behind an asyncio JSON-lines server
(``repro serve``), with streaming per-epoch telemetry, bounded
drop-oldest subscriber queues, idle eviction, an admission limit, and
graceful drain on SIGTERM.

Layering:

``protocol``
    The wire format: one JSON object per line; request/response and
    server-push event frames; error codes.
``telemetry``
    :class:`EpochMetrics`/:class:`SimulationResult` → JSON-safe dicts.
``session``
    One profiling session: a handle (tenancy, subscriber queues,
    fan-out) over a host (the op table over simulator + daemon),
    hosted in-thread.
``workers``
    The host's process transport (`--workers N`): a sticky
    worker-process pool, so sessions execute on separate cores, with
    crash recovery and structured error frames; ``workers=0`` hosts
    every session in-thread.
``manager``
    The session registry and the one owner of the session lifecycle:
    admission, create, idle eviction (optionally checkpointed to
    disk), resume, crash recovery, close.  Deliberate discards
    (eviction, drain) push structured ``evicted``/``server_drain``
    goodbye frames before detaching.
``server``
    Transport and dispatch: the asyncio JSON-lines server (TCP or unix
    socket) and a thread-hosted variant for embedding in sync programs
    and tests.
``client``
    A blocking socket client (`ServiceClient`).

Durability: with ``repro serve --ledger-dir`` every session's event
stream also appends to :mod:`repro.ledger` — an on-disk event-sourced
telemetry ledger enabling ``subscribe(from_seq=...)`` replay and
crashed-session recovery (a dead worker's sessions are re-materialized
from their recorded config instead of discarded).  See
``docs/service.md``.

Observability: every layer records into :mod:`repro.obs` — the
``metrics`` protocol op (and :meth:`ServiceClient.metrics`) returns one
snapshot merged across the parent and every worker process, and
``repro serve --metrics-port`` serves the same aggregate in the
Prometheus text format.  See ``docs/observability.md``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "client": ("ServiceClient",),
    "manager": ("SessionManager",),
    "protocol": ("ErrorCode", "ServiceError"),
    "server": ("ServerThread", "ServiceServer"),
    "session": ("ProfilingSession", "SubscriberQueue"),
    "workers": ("WorkerPool", "resolve_workers"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
