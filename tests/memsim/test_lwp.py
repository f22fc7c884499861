"""Unit tests for the LWP sampler (per-process ring buffers)."""

import numpy as np
import pytest

from repro.memsim.events import AccessBatch, DataSource
from repro.memsim.lwp import LWPSampler


def _meta(batch):
    n = batch.n
    return dict(
        paddr=batch.vaddr.copy(),
        tlb_hit=np.zeros(n, dtype=bool),
        data_source=np.full(n, np.uint8(DataSource.MEMORY), dtype=np.uint8),
    )


def _batch(n, pid=1):
    return AccessBatch.from_pages(np.arange(n, dtype=np.uint64), pid=pid)


def _mixed(n_per_pid, pids):
    return AccessBatch.concat([_batch(n_per_pid, pid=p) for p in pids])


class TestSampling:
    def test_per_pid_counters(self):
        lwp = LWPSampler(period=10)
        b = _mixed(25, [1, 2])
        lwp.observe(b, op_base=0, **_meta(b))
        # Each PID's own ops are counted: 25 ops each → 2 samples each.
        assert lwp.pending(1) == 2
        assert lwp.pending(2) == 2

    def test_phase_continues_per_pid(self):
        lwp = LWPSampler(period=10)
        for i in range(5):
            b = _batch(5, pid=7)
            lwp.observe(b, op_base=5 * i, **_meta(b))
        s = lwp.drain_pid(7)
        assert s.n == 2

    def test_records_carry_pid(self):
        lwp = LWPSampler(period=5)
        b = _mixed(10, [3, 4])
        lwp.observe(b, op_base=0, **_meta(b))
        s = lwp.drain()
        assert set(np.unique(s.pid)) == {3, 4}

    def test_disabled(self):
        lwp = LWPSampler(period=1)
        lwp.enabled = False
        b = _batch(10)
        lwp.observe(b, op_base=0, **_meta(b))
        assert lwp.pending() == 0

    def test_set_period(self):
        lwp = LWPSampler(period=100)
        lwp.set_period(2)
        b = _batch(10)
        lwp.observe(b, op_base=0, **_meta(b))
        assert lwp.pending(1) == 5

    def test_bad_params(self):
        with pytest.raises(ValueError):
            LWPSampler(period=0)
        with pytest.raises(ValueError):
            LWPSampler(buffer_records=0)
        with pytest.raises(ValueError):
            LWPSampler(threshold=0.0)
        with pytest.raises(ValueError):
            LWPSampler().set_period(0)


class TestRingSemantics:
    def test_threshold_interrupt_once(self):
        lwp = LWPSampler(period=1, buffer_records=10, threshold=0.5)
        b = _batch(4)
        lwp.observe(b, op_base=0, **_meta(b))
        assert lwp.stats.interrupts == 0
        lwp.observe(b, op_base=4, **_meta(b))  # 8 >= 5: fires once
        lwp.observe(b, op_base=8, **_meta(b))  # still armed: no re-fire
        assert lwp.stats.interrupts == 1

    def test_drain_rearms_interrupt(self):
        lwp = LWPSampler(period=1, buffer_records=4, threshold=0.5)
        b = _batch(3)
        lwp.observe(b, op_base=0, **_meta(b))
        assert lwp.stats.interrupts == 1
        lwp.drain_pid(1)
        lwp.observe(b, op_base=3, **_meta(b))
        assert lwp.stats.interrupts == 2

    def test_overflow_drops(self):
        lwp = LWPSampler(period=1, buffer_records=5)
        b = _batch(8)
        lwp.observe(b, op_base=0, **_meta(b))
        assert lwp.pending(1) == 5
        assert lwp.stats.dropped == 3

    def test_per_pid_rings_independent(self):
        lwp = LWPSampler(period=1, buffer_records=5)
        big = _batch(8, pid=1)
        small = _batch(2, pid=2)
        lwp.observe(big, op_base=0, **_meta(big))
        lwp.observe(small, op_base=8, **_meta(small))
        assert lwp.pending(1) == 5  # overflowed
        assert lwp.pending(2) == 2  # unaffected

    def test_drain_all(self):
        lwp = LWPSampler(period=1)
        b = _mixed(3, [1, 2, 3])
        lwp.observe(b, op_base=0, **_meta(b))
        s = lwp.drain()
        assert s.n == 9
        assert lwp.pending() == 0

    def test_drain_unknown_pid(self):
        assert LWPSampler().drain_pid(99).n == 0


class TestTMPIntegration:
    def test_trace_driver_with_lwp_source(self):
        from repro.core import PageStatsStore, TMPConfig, TraceDriver
        from repro.memsim import Machine, MachineConfig

        m = Machine(
            MachineConfig(
                total_frames=1 << 14,
                tlb_entries=64,
                l1_bytes=4096,
                l2_bytes=8192,
                llc_bytes=16384,
                lwp_period=10,
                n_cpus=1,
            )
        )
        vma = m.mmap(1, 256)
        store = PageStatsStore()
        store.resize(m.n_frames)
        drv = TraceDriver(m, TMPConfig(trace_source="lwp"), store)
        assert drv.sampler is m.lwp
        rng = np.random.default_rng(0)
        b = AccessBatch.from_pages(rng.choice(vma.vpns, 1000), pid=1)
        m.run_batch(b)
        samples = drv.drain()
        assert samples.n == 100
        assert store.trace_total.sum() > 0
