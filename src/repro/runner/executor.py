"""Process-pool execution of record/evaluate experiment stages.

The record-once / evaluate-offline split (:mod:`repro.tiering
.recorded`) makes the two stages embarrassingly parallel in different
dimensions: recordings are independent across *workloads*, evaluations
across *grid cells*.  This module fans both out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* :func:`record_suite` — one task per workload, each consulting the
  shared :class:`~repro.runner.cache.RunCache` first;
* :func:`evaluate_grids` — grid cells strided into per-worker chunks,
  each chunk loading its recording once (from the cache path when one
  exists, so the multi-megabyte arrays cross the process boundary via
  the page cache instead of a pickle pipe).

``jobs=1`` bypasses the pool entirely and runs the exact in-process
code path the library has always used, so determinism is trivially
preserved; ``tests/runner`` asserts ``jobs=1`` and ``jobs=4`` produce
bit-identical grids.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from ..core.config import TMPConfig
from ..memsim.machine import MachineConfig
from ..obs import metrics as obs_metrics
from ..tiering.policies import resolve_policy
from ..tiering.recorded import RecordedRun, evaluate_recorded, record_run
from ..tiering.serialize import load_recorded
from ..tiering.simulator import SimulationResult
from ..workloads.registry import make_workload
from .cache import RunCache, cache_key
from .metrics import RunnerMetrics

__all__ = [
    "GridCell",
    "RecordSpec",
    "evaluate_grid",
    "evaluate_grids",
    "get_or_record",
    "record_suite",
    "resolve_jobs",
]


def _count_jobs(stage: str, n: int = 1) -> None:
    if n:
        obs_metrics.default_registry().counter(
            "repro_runner_jobs_total",
            "Experiment-runner tasks dispatched by stage",
            labelnames=("stage",),
        ).inc(n, stage=stage)


def resolve_jobs(jobs: int | None) -> int:
    """``None`` → ``$REPRO_JOBS`` or ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        jobs = int(env) if env else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class RecordSpec:
    """Everything that determines a recorded run's content.

    The same fields feed :func:`~repro.runner.cache.cache_key`, so two
    specs collide in the cache exactly when they would produce the same
    recording.
    """

    workload: str
    workload_kw: dict = field(default_factory=dict)
    machine_config: MachineConfig | None = None
    tmp_config: TMPConfig | None = None
    epochs: int = 8
    seed: int = 0
    init: bool = True
    epoch_slices: int = 1

    def record(self) -> RecordedRun:
        """Execute the recording this spec describes."""
        return record_run(
            make_workload(self.workload, **self.workload_kw),
            machine_config=self.machine_config,
            tmp_config=self.tmp_config,
            epochs=self.epochs,
            seed=self.seed,
            init=self.init,
            epoch_slices=self.epoch_slices,
        )


@dataclass(frozen=True)
class GridCell:
    """One (policy, monitoring source, tier ratio) evaluation cell."""

    policy: str
    source: str
    ratio: float

    def label(self) -> str:
        return f"{self.policy}/{self.source}/{self.ratio:g}"


def _record_task(spec: RecordSpec, cache_root, include_samples: bool):
    """Worker: record one spec, persisting it to the cache if given."""
    t0 = time.perf_counter()
    run = spec.record()
    seconds = time.perf_counter() - t0
    if cache_root is not None:
        RunCache(cache_root, include_samples=include_samples).put(
            cache_key(spec), run
        )
    return run, seconds


def record_suite(
    specs: list[RecordSpec],
    *,
    jobs: int | None = None,
    cache: RunCache | None = None,
    metrics: RunnerMetrics | None = None,
) -> list[RecordedRun]:
    """Record every spec, in parallel, reusing cached runs.

    Returns runs aligned with ``specs``.  Cache hits are loaded in the
    parent process (no pool dispatch); only misses are fanned out.
    """
    jobs = resolve_jobs(jobs)
    runs: list[RecordedRun | None] = [None] * len(specs)
    pending: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            t0 = time.perf_counter()
            run = cache.get(cache_key(spec))
            if run is not None:
                runs[i] = run
                if metrics:
                    metrics.add(
                        "record",
                        spec.workload,
                        time.perf_counter() - t0,
                        items=run.n_epochs,
                        cached=True,
                    )
                continue
        pending.append(i)

    if not pending:
        return runs
    _count_jobs("record", len(pending))
    if jobs == 1 or len(pending) == 1:
        for i in pending:
            t0 = time.perf_counter()
            run = specs[i].record()
            seconds = time.perf_counter() - t0
            if cache is not None:
                cache.put(cache_key(specs[i]), run)
            runs[i] = run
            if metrics:
                metrics.add(
                    "record", specs[i].workload, seconds, items=run.n_epochs
                )
        return runs

    cache_root = cache.root if cache is not None else None
    include_samples = cache.include_samples if cache is not None else True
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = {
            pool.submit(_record_task, specs[i], cache_root, include_samples): i
            for i in pending
        }
        for fut in as_completed(futures):
            i = futures[fut]
            run, seconds = fut.result()
            runs[i] = run
            if metrics:
                metrics.add(
                    "record", specs[i].workload, seconds, items=run.n_epochs
                )
    return runs


def get_or_record(
    spec: RecordSpec,
    *,
    cache: RunCache | None = None,
    metrics: RunnerMetrics | None = None,
) -> RecordedRun:
    """One-spec convenience wrapper over :func:`record_suite`."""
    return record_suite([spec], jobs=1, cache=cache, metrics=metrics)[0]


#: Per-worker memo of recordings loaded from cache paths, so a worker
#: scoring many chunks of the same recording parses the .npz once.
_WORKER_RUNS: dict[str, RecordedRun] = {}


def _resolve_recording(ref) -> RecordedRun:
    if isinstance(ref, RecordedRun):
        return ref
    key = str(ref)
    run = _WORKER_RUNS.get(key)
    if run is None:
        run = load_recorded(key)
        if len(_WORKER_RUNS) >= 8:  # bound worker memory across sweeps
            _WORKER_RUNS.clear()
        _WORKER_RUNS[key] = run
    return run


def _evaluate_chunk(ref, chunk, eval_kw):
    """Worker: score ``[(index, GridCell), ...]`` against one recording."""
    recorded = _resolve_recording(ref)
    out = []
    for idx, cell in chunk:
        t0 = time.perf_counter()
        res = evaluate_recorded(
            recorded,
            # A fresh instance per cell: policies are stateful.
            resolve_policy(cell.policy, error=ValueError)(),
            tier1_ratio=cell.ratio,
            rank_source=cell.source,
            **eval_kw,
        )
        out.append((idx, res, time.perf_counter() - t0))
    return out


def evaluate_grids(
    grids: list[tuple],
    *,
    jobs: int | None = None,
    metrics: RunnerMetrics | None = None,
    eval_kw: dict | None = None,
) -> list[list[SimulationResult]]:
    """Score many (recording, cells) grids with one shared pool.

    ``grids`` entries are ``(ref, cells, label)`` where ``ref`` is a
    :class:`RecordedRun` or a path to a serialized one.  Results come
    back aligned with each grid's cell order regardless of completion
    order, so parallel runs are indistinguishable from serial ones.
    """
    jobs = resolve_jobs(jobs)
    eval_kw = eval_kw or {}
    grids = [(ref, list(cells), label) for ref, cells, label in grids]
    for _, cells, _ in grids:
        for cell in cells:
            resolve_policy(cell.policy, error=ValueError)
    out: list[list] = [[None] * len(cells) for _, cells, _ in grids]
    _count_jobs("evaluate", sum(len(cells) for _, cells, _ in grids))

    if jobs == 1:
        for g, (ref, cells, label) in enumerate(grids):
            recorded = _resolve_recording(ref) if not isinstance(
                ref, RecordedRun
            ) else ref
            for (idx, res, seconds) in _evaluate_chunk(
                recorded, list(enumerate(cells)), eval_kw
            ):
                out[g][idx] = res
                if metrics:
                    metrics.add(
                        "evaluate", f"{label}:{cells[idx].label()}", seconds
                    )
        return out

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {}
        for g, (ref, cells, label) in enumerate(grids):
            indexed = list(enumerate(cells))
            n_chunks = max(1, min(jobs, len(indexed)))
            for c in range(n_chunks):
                chunk = indexed[c::n_chunks]  # strided: balances cell costs
                if chunk:
                    futures[pool.submit(_evaluate_chunk, ref, chunk, eval_kw)] = g
        for fut in as_completed(futures):
            g = futures[fut]
            _, cells, label = grids[g]
            for idx, res, seconds in fut.result():
                out[g][idx] = res
                if metrics:
                    metrics.add(
                        "evaluate", f"{label}:{cells[idx].label()}", seconds
                    )
    return out


def evaluate_grid(
    recorded,
    cells,
    *,
    jobs: int | None = None,
    metrics: RunnerMetrics | None = None,
    label: str | None = None,
    **eval_kw,
) -> list[SimulationResult]:
    """Score one grid of cells against one recording (or its path)."""
    if label is None:
        label = (
            recorded.workload
            if isinstance(recorded, RecordedRun)
            else Path(str(recorded)).stem
        )
    return evaluate_grids(
        [(recorded, cells, label)], jobs=jobs, metrics=metrics, eval_kw=eval_kw
    )[0]
