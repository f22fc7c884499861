"""Unit tests for the trace (IBS/PEBS/LWP) driver."""

import numpy as np
import pytest

from repro.core import PageStatsStore, ProfiledRun, TMPConfig, TMProfiler, TraceDriver
from repro.memsim import AccessBatch, DataSource, Machine, MachineConfig
from repro.memsim.ibs import IBSSampler
from repro.memsim.lwp import LWPSampler
from repro.memsim.pebs import PEBSSampler
from repro.memsim.sampling import SamplerStats
from repro.workloads import make_workload

SOURCES = ("ibs", "pebs", "lwp")


def _setup(config=None, npages=512, **mach_kw):
    defaults = dict(
        total_frames=1 << 14,
        tlb_entries=64,
        l1_bytes=4096,
        l2_bytes=8192,
        llc_bytes=16384,
        ibs_period=10,
        pebs_period=10,
        n_cpus=1,
    )
    defaults.update(mach_kw)
    m = Machine(MachineConfig(**defaults))
    vma = m.mmap(1, npages)
    store = PageStatsStore()
    store.resize(m.n_frames)
    drv = TraceDriver(m, config or TMPConfig(), store)
    return m, vma, store, drv


def _random_batch(vma, n, seed=0):
    rng = np.random.default_rng(seed)
    return AccessBatch.from_pages(rng.choice(vma.vpns, n), pid=1)


class TestDrain:
    def test_aggregates_memory_samples(self):
        m, vma, store, drv = _setup()
        m.run_batch(_random_batch(vma, 1000))
        samples = drv.drain()
        assert samples.n == 100
        # Cold random accesses: nearly all memory-sourced.
        assert store.trace_total.sum() == drv.stats.memory_samples
        assert drv.stats.memory_samples > 50

    def test_memory_only_filter(self):
        m, vma, store, drv = _setup()
        # Hammer one page: after warmup everything hits L1.
        m.run_batch(AccessBatch.from_pages(np.repeat(vma.vpns[:1], 2000), pid=1))
        drv.drain()
        # Only the cold-miss-phase samples count toward hotness.
        assert store.trace_total.sum() < 10

    def test_all_samples_mode(self):
        cfg = TMPConfig(trace_memory_only=False)
        m, vma, store, drv = _setup(config=cfg)
        m.run_batch(AccessBatch.from_pages(np.repeat(vma.vpns[:1], 2000), pid=1))
        drv.drain()
        assert store.trace_total.sum() == 200  # every sample counts

    def test_overhead_accounting(self):
        m, vma, store, drv = _setup()
        m.run_batch(_random_batch(vma, 1000))
        drv.drain()
        c = drv.config.costs
        assert drv.stats.time_s == pytest.approx(100 * c.trace_per_sample_s)
        assert drv.stats.samples_collected == 100

    def test_interrupt_cost(self):
        m, vma, store, drv = _setup()
        m.ibs.buffer_records = 30
        m.run_batch(_random_batch(vma, 1000))  # 100 samples → 3 fills
        drv.drain()
        assert drv.stats.interrupts_serviced == 3


class TestEnableDisable:
    def test_disable_stops_hardware(self):
        m, vma, store, drv = _setup()
        drv.enabled = False
        assert not m.ibs.enabled
        m.run_batch(_random_batch(vma, 1000))
        assert drv.drain().n == 0

    def test_reenable(self):
        m, vma, store, drv = _setup()
        drv.enabled = False
        m.run_batch(_random_batch(vma, 500))
        drv.enabled = True
        m.run_batch(_random_batch(vma, 500))
        assert drv.drain().n == 50


class TestSourceSelection:
    def test_ibs_default(self):
        m, _, _, drv = _setup()
        assert drv.sampler is m.ibs

    def test_pebs(self):
        cfg = TMPConfig(trace_source="pebs")
        m, vma, store, drv = _setup(config=cfg)
        assert drv.sampler is m.pebs
        m.run_batch(_random_batch(vma, 1000))
        samples = drv.drain()
        assert samples.n > 0
        # PEBS armed on LLC misses: every sample is memory-sourced.
        assert samples.memory_samples().n == samples.n

    def test_set_period(self):
        m, vma, store, drv = _setup()
        drv.set_period(5)
        m.run_batch(_random_batch(vma, 1000))
        assert drv.drain().n == 200


def _samplers(machine):
    return {source: getattr(machine, source) for source in SOURCES}


class TestArming:
    """The driver is the one place a sampler is armed: the machine
    builds all three disarmed, and the driver arms only its source."""

    def test_a_bare_machine_arms_nothing(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        assert not any(s.enabled for s in _samplers(m).values())

    @pytest.mark.parametrize("trace_enabled", [True, False])
    @pytest.mark.parametrize("source", SOURCES)
    def test_exactly_the_source_is_armed(self, source, trace_enabled):
        run = ProfiledRun(
            make_workload("gups", footprint_pages=256, accesses_per_epoch=500),
            tmp_config=TMPConfig(trace_source=source, trace_enabled=trace_enabled),
        )
        armed = {name for name, s in _samplers(run.machine).items() if s.enabled}
        assert armed == ({source} if trace_enabled else set())
        run.populate()
        run.run_epoch()
        for name, sampler in _samplers(run.machine).items():
            recorded = sampler.stats != SamplerStats()
            assert recorded == (trace_enabled and name == source), name

    @pytest.mark.parametrize("source", SOURCES)
    def test_gating_toggles_only_the_source(self, source):
        m = Machine(
            MachineConfig(
                total_frames=1 << 16,
                tlb_entries=64,
                l1_bytes=4096,
                l2_bytes=8192,
                llc_bytes=32768,
                ops_per_second=1e4,
                ibs_period=10,
                pebs_period=10,
                lwp_period=10,
                n_cpus=2,
            )
        )
        vma = m.mmap(1, 4096)
        prof = TMProfiler(m, TMPConfig(hwpc_gating=True, trace_source=source))
        prof.register_pids([1])
        rng = np.random.default_rng(0)
        source_states = []
        # Busy epochs set the maxima; the quiet ones gate the trace off.
        for n in (5000, 5000, 50, 50, 5000, 5000):
            batch = AccessBatch.from_pages(rng.choice(vma.vpns, n), pid=1)
            prof.observe_batch(batch, m.run_batch(batch))
            prof.end_epoch()
            for name, sampler in _samplers(m).items():
                if name == source:
                    source_states.append(sampler.enabled)
                else:
                    assert not sampler.enabled, name
                    assert sampler.stats == SamplerStats(), name
                    assert sampler.drain().n == 0, name
        assert set(source_states) == {False, True}


class TestDisarmedObserve:
    @pytest.mark.parametrize("make", [IBSSampler, PEBSSampler, LWPSampler])
    def test_leaves_stats_and_buffer_untouched(self, make):
        sampler = make(period=1, enabled=False)
        batch = AccessBatch.from_pages(np.arange(64, dtype=np.uint64), pid=1)
        meta = dict(
            paddr=batch.vaddr.copy(),
            tlb_hit=np.zeros(batch.n, dtype=bool),
            data_source=np.full(batch.n, np.uint8(DataSource.MEMORY)),
        )
        sampler.observe(batch, op_base=0, **meta)
        assert sampler.stats == SamplerStats()
        assert sampler.drain().n == 0
        sampler.enabled = True
        sampler.observe(batch, op_base=64, **meta)
        assert sampler.drain().n == 64

    @pytest.mark.parametrize("make", [IBSSampler, PEBSSampler, LWPSampler])
    def test_returns_before_it_looks_at_the_batch(self, make):
        # Nothing here is an array: any read of the batch or of its
        # metadata (PEBS scanning ``data_source`` for its event) raises.
        make(enabled=False).observe(
            None, op_base=0, paddr=None, tlb_hit=None, data_source=None
        )
