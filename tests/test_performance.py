"""Performance smoke tests — guard the vectorized hot paths.

These are not micro-benchmarks (benchmarks/ has those); they assert
order-of-magnitude throughput floors so an accidental Python-loop
regression in a hot path fails CI instead of silently making every
experiment 100x slower.  Floors are set ~5x below observed throughput
on a modest machine.
"""

import os
import sys
import time

import numpy as np
import pytest

from repro.memsim import AccessBatch, Machine, MachineConfig
from repro.memsim.vecsim import VectorDirectMapped


def _load_bench(name):
    import importlib.util
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        name, root / "benchmarks" / f"{name}.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _load_bench_service():
    return _load_bench("bench_service")


def _throughput(fn, n_items, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return n_items / best


class TestThroughputFloors:
    def test_machine_pipeline(self):
        m = Machine(MachineConfig.scaled())
        vma = m.mmap(1, 4096)
        rng = np.random.default_rng(0)
        batch = AccessBatch.from_pages(rng.choice(vma.vpns, 200_000), pid=1)
        rate = _throughput(lambda: m.run_batch(batch), batch.n)
        assert rate > 300_000, f"machine pipeline at {rate:.0f} accesses/s"

    def test_vector_engine(self):
        e = VectorDirectMapped(1 << 14)
        keys = np.random.default_rng(0).integers(0, 1 << 16, 500_000).astype(np.uint64)
        rate = _throughput(lambda: e.access(keys), keys.size)
        assert rate > 2_000_000, f"vector engine at {rate:.0f} keys/s"

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="perf floor needs >= 2 cores"
    )
    @pytest.mark.skipif(
        "coverage" in sys.modules, reason="coverage tracing skews the ratio"
    )
    def test_vector_set_assoc_speedup_floor(self):
        # Acceptance: the vectorized exact-LRU engine clears 3x over
        # the scalar reference on the ways=4 bench config (the full
        # benchmark records ~5-8x; 3x absorbs slow CI boxes).
        bench = _load_bench("bench_sim")
        scalar = bench.bench_engine("scalar", reference=True, **bench.WAYS4)
        vector = bench.bench_engine("vector", reference=False, **bench.WAYS4)
        speedup = vector["epochs_per_s"] / scalar["epochs_per_s"]
        assert speedup >= 3.0, (
            f"VectorSetAssoc only {speedup:.2f}x over SequentialSetAssoc "
            f"({scalar['keys_per_s']:.0f} vs {vector['keys_per_s']:.0f} keys/s)"
        )

    def test_workload_generation(self):
        from repro.workloads import make_workload

        m = Machine(MachineConfig.scaled())
        w = make_workload("data-caching")
        w.attach(m)
        rng = np.random.default_rng(0)
        rate = _throughput(lambda: w.epoch(0, rng), w.accesses_per_epoch)
        assert rate > 500_000, f"workload generation at {rate:.0f} accesses/s"

class TestRunnerThroughput:
    """Floors for the experiment runner's offline evaluation path."""

    def test_recorded_sweep_throughput(self):
        # The hot-set memo plus vectorized evaluation must keep offline
        # scoring far cheaper than recording: floor ~10x under observed.
        from repro.analysis.hitrate import sweep_recorded
        from repro.tiering import record_run
        from repro.workloads import make_workload

        rec = record_run(
            make_workload("web-serving", accesses_per_epoch=40_000),
            machine_config=MachineConfig.scaled(ibs_period=16),
            epochs=4,
            seed=0,
        )
        n_cells = [0]

        def sweep():
            n_cells[0] = len(sweep_recorded(rec, jobs=1))

        rate = _throughput(sweep, 1)
        cells_per_s = n_cells[0] * rate
        assert cells_per_s > 40, f"offline sweep at {cells_per_s:.0f} cells/s"

    def test_cache_hit_faster_than_recording(self, tmp_path):
        # A warm cache must make the recording stage nearly free.
        from repro.runner import RecordSpec, RunCache, cache_key

        spec = RecordSpec(
            "web-serving",
            workload_kw={"accesses_per_epoch": 40_000},
            machine_config=MachineConfig.scaled(ibs_period=16),
            epochs=4,
        )
        cache = RunCache(tmp_path)
        t0 = time.perf_counter()
        cache.put(cache_key(spec), spec.record())
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        assert cache.get(cache_key(spec)) is not None
        warm_s = time.perf_counter() - t0
        assert warm_s < cold_s / 2, f"cache hit {warm_s:.3f}s vs record {cold_s:.3f}s"

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4, reason="parallel speedup floor needs >= 4 cores"
    )
    def test_parallel_sweep_speedup(self, tmp_path):
        # Acceptance: cold fig6 sweep with jobs=4 is >= 2x faster than
        # jobs=1 on a 4-core runner, with an identical grid.
        from repro.analysis.hitrate import fig6_sweep

        kw = dict(epochs=4, ratios=(1 / 8, 1 / 32, 1 / 128))
        names = ["web-serving", "graph500", "gups", "data-caching"]
        t0 = time.perf_counter()
        serial = fig6_sweep(names, jobs=1, **kw)
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = fig6_sweep(names, jobs=4, **kw)
        parallel_s = time.perf_counter() - t0
        assert serial == parallel
        assert serial_s / parallel_s >= 2.0, (
            f"jobs=4 speedup only {serial_s / parallel_s:.2f}x "
            f"({serial_s:.2f}s -> {parallel_s:.2f}s)"
        )

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4, reason="service speedup floor needs >= 4 cores"
    )
    def test_service_worker_pool_speedup(self):
        # Acceptance: 8 concurrent sessions through a 4-worker pool
        # step >= 2.5x faster than the GIL-bound in-process path.
        bench = _load_bench_service()
        report = bench.run(workers_list=(0, 4))
        assert report["speedup"] >= 2.5, (
            f"workers=4 speedup only {report['speedup']:.2f}x "
            f"({report['scenarios']})"
        )

    @pytest.mark.perf
    def test_metrics_instrumentation_overhead_under_3_percent(self):
        # Acceptance: repro.obs instrumentation costs < 3% on an
        # 8-session stepped run vs the same run with metrics disabled.
        # Individual runs jitter 10-30% around a sub-1% true cost, so
        # the benchmark scores the min of two noise-robust estimators
        # (CPU-time floor ratio and median per-pair ratio) — a real
        # regression moves both, noise rarely moves both at once.
        bench = _load_bench_service()
        report = bench.run_metrics_overhead(sessions=8, epochs=24, repeats=8)
        assert report["overhead_fraction"] < 0.03, (
            f"metrics overhead {report['overhead_fraction']:.2%} "
            f"(floor {report['floor_fraction']:.2%}, "
            f"per-pair median {report['pair_fraction']:.2%})"
        )

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="perf floor needs >= 2 cores"
    )
    @pytest.mark.skipif(
        "coverage" in sys.modules, reason="coverage tracing skews the ratio"
    )
    def test_fanout_serialize_once_speedup_floor(self):
        # Acceptance: at 16 subscribers per session, encoding the
        # payload once and splicing per-subscriber envelopes clears 3x
        # over the old encode-per-subscriber fan-out (the benchmark
        # records ~5x; 3x absorbs slow CI boxes).  Scored min-of-5 on
        # CPU time, so wall-clock noise doesn't move it.
        bench = _load_bench_service()
        kernel = bench.run_fanout_kernel()
        assert kernel["speedup"] >= 3.0, (
            f"serialize-once fan-out only {kernel['speedup']:.2f}x over "
            f"encode-per-subscriber ({kernel['legacy_frames_per_s']:.0f} "
            f"vs {kernel['spliced_frames_per_s']:.0f} frames/s)"
        )

    @pytest.mark.perf
    def test_ledger_overhead_under_5_percent(self):
        # Acceptance: persisting every epoch frame to the telemetry
        # ledger (default fsync="rotate") costs < 5% step throughput
        # on an 8-session stepped run vs the same run without a
        # ledger.  Same two-estimator noise defence as the metrics
        # overhead guard above.
        bench = _load_bench_service()
        report = bench.run_ledger_overhead(sessions=8, epochs=24, repeats=8)
        assert report["overhead_fraction"] < 0.05, (
            f"ledger overhead {report['overhead_fraction']:.2%} "
            f"(floor {report['floor_fraction']:.2%}, "
            f"per-pair median {report['pair_fraction']:.2%})"
        )


class TestTinyBatches:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_batches_no_pathology(self, n):
        # Fixed overhead per batch must stay tiny (epoch slicing relies
        # on it).
        m = Machine(MachineConfig.scaled())
        vma = m.mmap(1, 16)
        batch = AccessBatch.from_pages(vma.vpns[:n], pid=1)
        t0 = time.perf_counter()
        for _ in range(100):
            m.run_batch(batch)
        assert time.perf_counter() - t0 < 1.0
