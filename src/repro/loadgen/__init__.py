"""repro.loadgen — open-loop load generation for the profiling service.

The paper's thesis is that profiling discipline only matters *under
load*: overhead and reactivity numbers measured on an idle box say
nothing about a saturated one.  This package is the reproduction's
proof harness for that claim at the service layer — an asyncio
open-loop load generator (``repro loadtest``) that drives thousands of
concurrent profiling sessions of mixed ``create``/``step``/``stats``/
``subscribe``/``close`` traffic against a live ``repro serve``,
records per-op latency (exact quantiles plus :mod:`repro.obs`
histograms), counts every rejection, eviction, and dropped frame, and
writes the whole run as a ``BENCH_load.json`` trajectory that CI
uploads and gates on a step-latency SLO.

Open-loop means arrivals do not wait for completions: sessions are
launched on a Poisson schedule at ``arrival_rate`` regardless of how
the server is coping, so overload shows up as latency and structured
``overloaded`` rejections — the real failure modes — instead of the
generator politely slowing down (closed-loop coordination omission).

Layering:

``aioclient``
    A multiplexing asyncio JSON-lines client: many in-flight requests
    share one connection, event frames route to a callback.
``generator``
    :class:`LoadTestConfig` + :func:`run_load_test`: the session
    lifecycle mix, the open-loop spawner, and overload handling
    (``overloaded`` → counted, backed off, retried).
``report``
    :class:`LatencyRecorder` (exact per-op quantiles, obs-histogram
    mirroring) and the ``BENCH_load.json`` writer / SLO evaluation.

See ``docs/performance.md`` ("Load testing") for the report format and
``docs/service.md`` for the admission features this harness exercises
(per-tenant quotas, the in-flight step limit, idle eviction goodbyes).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "aioclient": ("AsyncServiceClient",),
    "generator": ("LoadTestConfig", "run_load_test", "run_load_test_async"),
    "report": ("LatencyRecorder", "evaluate_slo", "write_report"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
