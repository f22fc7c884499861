"""Parallel experiment runner with a content-addressed run cache.

The record-once / evaluate-offline harness (:mod:`repro.tiering
.recorded`) splits every experiment into an expensive collection stage
and a cheap scoring stage.  This package exploits that split:

* :class:`RunCache` (:mod:`~repro.runner.cache`) amortizes collection —
  recordings are stored content-addressed by everything that determines
  them, so a warm cache makes the recording stage free and any config
  change an automatic miss;
* :func:`record_suite` / :func:`evaluate_grids`
  (:mod:`~repro.runner.executor`) fan the stages out over a process
  pool (``jobs=1`` keeps the classic in-process path, bit-identical);
* :class:`RunnerMetrics` (:mod:`~repro.runner.metrics`) times every
  stage and emits machine-readable ``BENCH_*.json`` reports.

See ``docs/performance.md`` for cache-key composition, invalidation
rules, and the ``REPRO_CACHE_DIR`` / ``REPRO_JOBS`` knobs.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "cache": ("RunCache", "cache_key"),
    "executor": (
        "GridCell",
        "RecordSpec",
        "evaluate_grid",
        "evaluate_grids",
        "get_or_record",
        "record_suite",
        "resolve_jobs",
    ),
    "metrics": ("RunnerMetrics", "StageEvent"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
