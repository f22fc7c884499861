"""Failure-injection and edge-condition tests for the substrate."""

import numpy as np
import pytest

from repro.memsim import (
    AccessBatch,
    Machine,
    MachineConfig,
    TranslationFault,
)


class TestResourceExhaustion:
    def test_physical_memory_exhaustion(self):
        m = Machine(MachineConfig(total_frames=16))
        m.mmap(1, 10)
        with pytest.raises(MemoryError, match="out of physical frames"):
            m.mmap(1, 10)

    def test_partial_exhaustion_leaves_consistent_state(self):
        m = Machine(MachineConfig(total_frames=16))
        v = m.mmap(1, 16)
        with pytest.raises(MemoryError):
            m.mmap(2, 1)
        # The first mapping still works.
        r = m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        assert r.n == 16


class TestTranslationFaults:
    def test_fault_reports_pid_and_vpns(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        m.mmap(5, 4)
        bad_vpn = 0xDEAD000
        with pytest.raises(TranslationFault) as ei:
            m.run_batch(AccessBatch.from_pages([bad_vpn], pid=5))
        assert ei.value.pid == 5
        assert bad_vpn in ei.value.vpns

    def test_fault_on_guard_gap(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        v1 = m.mmap(1, 4)
        m.mmap(1, 4)
        with pytest.raises(TranslationFault):
            m.run_batch(AccessBatch.from_pages([v1.end_vpn + 1], pid=1))

    def test_machine_state_unchanged_after_fault(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        v = m.mmap(1, 4)
        ops_before = m.op_counter
        with pytest.raises(TranslationFault):
            m.run_batch(AccessBatch.from_pages([0xBAD00], pid=1))
        assert m.op_counter == ops_before
        # A valid batch still runs.
        assert m.run_batch(AccessBatch.from_pages(v.vpns, pid=1)).n == 4


    def test_fault_in_a_later_pid_mutates_nothing(self):
        """Translation runs for every PID before anything is written:
        a batch whose *second* process faults leaves no A/D bit, TLB
        entry, counter or statistic behind from the first."""
        m = Machine(MachineConfig(total_frames=1 << 10, enable_pml=True))
        m.ibs.enabled = True  # a bare machine's samplers start disarmed
        v1, v2 = m.mmap(1, 8), m.mmap(2, 8)
        m.run_batch(AccessBatch.from_pages(v1.vpns[:2], pid=1, is_store=True))

        def snapshot():
            return (
                m.op_counter,
                m.cycles,
                [pt.flags.tolist() for pt in m.page_tables.values()],
                (m.tlb.stats.lookups, m.tlb.stats.hits, m.tlb.occupancy()),
                m.caches.miss_counts(),
                vars(m.ptw.stats).copy(),
                m.pml.stats.logged,
                m.frame_stats.first_touch_op.tolist(),
                m.ibs.stats.population,
            )

        before = snapshot()
        bad = AccessBatch.concat(
            [
                AccessBatch.from_pages(v1.vpns, pid=1, is_store=True),
                AccessBatch.from_pages([v2.end_vpn + 3], pid=2),
            ]
        )
        with pytest.raises(TranslationFault) as exc:
            m.run_batch(bad)
        assert exc.value.pid == 2
        assert snapshot() == before


class TestDegenerateConfigs:
    def test_single_entry_tlb(self):
        m = Machine(MachineConfig(total_frames=1 << 10, tlb_entries=1, n_cpus=1))
        v = m.mmap(1, 4)
        r = m.run_batch(AccessBatch.from_pages(np.tile(v.vpns[:2], 10), pid=1))
        # Two alternating pages in a 1-entry TLB: everything misses.
        assert not r.tlb_hit.any()

    def test_single_cpu_machine(self):
        m = Machine(MachineConfig(total_frames=1 << 10, n_cpus=1))
        v = m.mmap(1, 4)
        b = AccessBatch.from_pages(v.vpns, pid=1, cpu=5)  # cpu folded mod 1
        assert m.run_batch(b).n == 4

    def test_tiny_caches(self):
        m = Machine(
            MachineConfig(
                total_frames=1 << 10, l1_bytes=64, l2_bytes=64, llc_bytes=64
            )
        )
        v = m.mmap(1, 2)
        r = m.run_batch(AccessBatch.from_pages(np.tile(v.vpns, 5), pid=1))
        assert r.n == 10

    def test_zero_ops_machine_time(self):
        m = Machine(MachineConfig(total_frames=16))
        assert m.time_s == 0.0


class TestSamplerEdgeCases:
    def test_huge_period_never_samples(self):
        m = Machine(MachineConfig(total_frames=1 << 10, ibs_period=1 << 30))
        m.ibs.enabled = True
        v = m.mmap(1, 8)
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        assert m.ibs.drain().n == 0

    def test_pmu_without_configuration_noop(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        v = m.mmap(1, 4)
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))  # must not raise
        assert m.pmu.events == []

    def test_sampling_across_many_tiny_batches(self):
        m = Machine(MachineConfig(total_frames=1 << 10, ibs_period=3))
        m.ibs.enabled = True
        v = m.mmap(1, 2)
        for _ in range(10):
            m.run_batch(AccessBatch.from_pages(v.vpns[:1], pid=1))
        assert m.ibs.drain().n == 10 // 3
