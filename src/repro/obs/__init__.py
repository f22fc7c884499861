"""repro.obs — unified observability: metrics + structured logging.

The paper's §V argues a production profiler must account for its own
cost; this subsystem is that argument applied to the reproduction
itself.  Every layer records into one lightweight substrate:

``metrics``
    Counters, gauges, and histograms with Prometheus-style labels in
    a :class:`MetricsRegistry` with atomic snapshot semantics; plain
    snapshots merge across processes (:func:`merge_snapshots`) and
    render to the Prometheus text format (:func:`render_prometheus`).
``log``
    Structured JSON logging (one event per line) with bound
    session/worker correlation IDs; off by default, enabled by
    ``repro serve --log-json`` or ``REPRO_LOG_JSON=1``.
``http``
    The optional scrape endpoint behind ``repro serve
    --metrics-port`` / ``REPRO_METRICS_PORT``.

Instrumented layers (metric catalog in ``docs/observability.md``):
the service (sessions, requests, step latency, subscriber drops,
worker respawns — per-worker registries piggyback over the pool's
duplex pipes and merge in the parent), the experiment runner (job
fan-out, run-cache hits/misses/errors), and the profiler core
(per-component :class:`~repro.core.profiler.OverheadBreakdown`
re-exported as counters).

``REPRO_OBS_DISABLED=1`` turns every metric mutation into a no-op —
the benchmark suite uses it to prove instrumentation overhead stays
under 3 %.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "http": ("MetricsHTTPServer", "PROMETHEUS_CONTENT_TYPE"),
    "log": ("JsonLogger", "configure_logging=configure", "get_logger"),
    "metrics": (
        "DEFAULT_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "configure_metrics=configure",
        "default_registry",
        "merge_snapshots",
        "render_prometheus",
        "set_default_registry",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
