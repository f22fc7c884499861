"""Integration tests for the whole-machine pipeline."""

import numpy as np
import pytest

from repro.memsim import (
    AccessBatch,
    DataSource,
    Machine,
    MachineConfig,
    TranslationFault,
)
from repro.memsim.pte import is_accessed, is_dirty


def small_machine(**kw):
    defaults = dict(
        total_frames=1 << 16,
        tlb_entries=64,
        l1_bytes=4 * 1024,
        l2_bytes=16 * 1024,
        llc_bytes=64 * 1024,
        enable_pml=True,
    )
    defaults.update(kw)
    return Machine(MachineConfig(**defaults))


class TestMmap:
    def test_auto_placement_no_overlap(self):
        m = small_machine()
        v1 = m.mmap(1, 100)
        v2 = m.mmap(1, 100)
        assert v2.start_vpn >= v1.end_vpn + m.config.vma_guard_pages

    def test_explicit_placement(self):
        m = small_machine()
        v = m.mmap(1, 10, start_vpn=0x9000)
        assert v.start_vpn == 0x9000

    def test_frames_tracked(self):
        m = small_machine()
        m.mmap(1, 100)
        m.mmap(2, 50)
        assert m.n_frames == 150
        assert len(m.frame_stats) == 150

    def test_unknown_pid_faults_on_access(self):
        m = small_machine()
        m.mmap(1, 10)
        with pytest.raises(TranslationFault):
            m.run_batch(AccessBatch.from_pages([0x1000], pid=99))


class TestRunBatch:
    def test_basic_outcome_shapes(self):
        m = small_machine()
        v = m.mmap(1, 10)
        b = AccessBatch.from_pages(v.vpns, pid=1)
        r = m.run_batch(b)
        assert r.n == 10
        assert r.paddr.size == r.pfn.size == r.tlb_hit.size == 10
        np.testing.assert_array_equal(r.pfn, v.pfns)

    def test_empty_batch(self):
        m = small_machine()
        r = m.run_batch(AccessBatch.empty())
        assert r.n == 0
        assert m.op_counter == 0
        assert r.pids.size == r.pid_ops.size == r.mem_mask.size == 0
        assert [c.size for c in r.frame_counts] == [0, 0, 0]

    def test_op_counter_and_time(self):
        m = small_machine(ops_per_second=1000.0)
        v = m.mmap(1, 4)
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        assert m.op_counter == 8
        assert m.time_s == pytest.approx(0.008)

    def test_a_bits_set_on_first_touch(self):
        m = small_machine()
        v = m.mmap(1, 10)
        m.run_batch(AccessBatch.from_pages(v.vpns[:5], pid=1))
        acc = is_accessed(m.page_tables[1].flags)
        assert acc[:5].all()
        assert not acc[5:].any()

    def test_tlb_resident_page_no_second_walk(self):
        m = small_machine()
        v = m.mmap(1, 1)
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        walks_before = m.ptw.stats.walks
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        assert m.ptw.stats.walks == walks_before  # TLB hit, no walk

    def test_dirty_bits_on_stores_only(self):
        m = small_machine()
        v = m.mmap(1, 4)
        b = AccessBatch.from_pages(v.vpns, is_store=[True, False, True, False], pid=1)
        m.run_batch(b)
        d = is_dirty(m.page_tables[1].flags)
        np.testing.assert_array_equal(d, [True, False, True, False])

    def test_pml_receives_newly_dirty_frames(self):
        m = small_machine()
        v = m.mmap(1, 4)
        m.run_batch(AccessBatch.from_pages(v.vpns[:2], is_store=True, pid=1))
        logged = m.pml.drain()
        np.testing.assert_array_equal(np.sort(logged), np.sort(v.pfns[:2]))

    def test_raw_events_consistency(self):
        m = small_machine()
        v = m.mmap(1, 50)
        rng = np.random.default_rng(1)
        b = AccessBatch.from_pages(
            rng.choice(v.vpns, 500), is_store=rng.random(500) < 0.5, pid=1
        )
        r = m.run_batch(b)
        raw = r.raw_events
        assert raw["retired_ops"] == 500
        assert raw["retired_loads"] + raw["retired_stores"] == 500
        assert raw["l1_miss"] >= raw["l2_miss"] >= raw["llc_miss"]
        assert raw["dtlb_miss"] == raw["ptw_walks"]
        assert raw["llc_miss"] == int(np.count_nonzero(r.mem_mask))

    def test_multi_process_isolation(self):
        m = small_machine()
        v1 = m.mmap(1, 8)
        v2 = m.mmap(2, 8)
        b = AccessBatch.concat(
            [
                AccessBatch.from_pages(v1.vpns, pid=1),
                AccessBatch.from_pages(v2.vpns, pid=2),
            ]
        )
        r = m.run_batch(b)
        assert set(np.unique(r.pfn[:8])) == set(v1.pfns)
        assert set(np.unique(r.pfn[8:])) == set(v2.pfns)
        assert is_accessed(m.page_tables[1].flags).all()
        assert is_accessed(m.page_tables[2].flags).all()

    def test_cache_locality_visible(self):
        m = small_machine()
        v = m.mmap(1, 1)
        b = AccessBatch.from_pages(np.repeat(v.vpns, 100), pid=1)
        r = m.run_batch(b)
        # Same line 100x: first access cold-misses, rest hit L1.
        assert r.data_source[0] == np.uint8(DataSource.MEMORY)
        assert (r.data_source[1:] == np.uint8(DataSource.L1)).all()


class TestGroundTruth:
    def test_frame_access_counts(self):
        m = small_machine()
        v = m.mmap(1, 4)
        vpns = np.array([v.start_vpn, v.start_vpn, v.start_vpn + 2], dtype=np.uint64)
        r = m.run_batch(AccessBatch.from_pages(vpns, pid=1))
        np.testing.assert_array_equal(r.frame_counts.access, [2, 0, 1, 0])

    def test_batch_page_counts(self):
        m = small_machine()
        v = m.mmap(1, 4)
        vpns = np.array([v.start_vpn + 1] * 3, dtype=np.uint64)
        r = m.run_batch(AccessBatch.from_pages(vpns, pid=1))
        counts = r.frame_counts.access
        assert counts.size == m.n_frames
        assert counts[v.pfn_base + 1] == 3
        assert counts.sum() == 3

    def test_mem_access_counts_bounded_by_access_counts(self):
        m = small_machine()
        v = m.mmap(1, 64)
        rng = np.random.default_rng(2)
        b = AccessBatch.from_pages(rng.choice(v.vpns, 2000), pid=1)
        r = m.run_batch(b)
        assert (r.frame_counts.mem <= r.frame_counts.access).all()

    def test_batch_page_counts_are_the_machines_own_and_read_only(self):
        m = small_machine(n_cpus=2)
        va, vb = m.mmap(1, 48), m.mmap(2, 16)
        rng = np.random.default_rng(5)
        counted = 0
        for _ in range(3):
            b = AccessBatch.concat(
                [
                    AccessBatch.from_pages(rng.choice(va.vpns, 900), pid=1),
                    AccessBatch.from_pages(rng.choice(vb.vpns, 300), pid=2, cpu=1),
                ]
            )
            r = m.run_batch(b.take(rng.permutation(b.n)))
            n, pf = m.n_frames, r.pfn.astype(np.intp)
            fresh = {
                "access": np.bincount(pf, minlength=n),
                "mem": np.bincount(
                    pf[r.data_source == DataSource.MEMORY], minlength=n
                ),
                "tlb_miss": np.bincount(pf[~r.tlb_hit], minlength=n),
            }
            for name, counts in r.frame_counts._asdict().items():
                np.testing.assert_array_equal(counts, fresh[name], err_msg=name)
                assert counts.dtype == fresh[name].dtype
                assert not counts.flags.writeable, name
                with pytest.raises(ValueError):
                    counts[0] += 1
            np.testing.assert_array_equal(
                r.mem_mask, r.data_source == DataSource.MEMORY
            )
            assert not r.mem_mask.flags.writeable
            np.testing.assert_array_equal(r.pids, [1, 2])
            np.testing.assert_array_equal(r.pid_ops, [900, 300])
            counted += int(r.frame_counts.access.sum())
        assert counted == m.op_counter

    def test_first_touch_order(self):
        m = small_machine()
        v = m.mmap(1, 3)
        m.run_batch(
            AccessBatch.from_pages(
                [v.start_vpn + 2, v.start_vpn, v.start_vpn + 1], pid=1
            )
        )
        ft = m.frame_stats.first_touch_op
        assert ft[v.pfn_base + 2] < ft[v.pfn_base] < ft[v.pfn_base + 1]


class TestBadgerTrapIntegration:
    def test_faults_on_tlb_misses_to_poisoned_pages(self):
        m = small_machine()
        v = m.mmap(1, 4)
        pt = m.page_tables[1]
        m.badgertrap.instrument(pt, np.array([0], dtype=np.int64), m.tlb)
        m.run_batch(AccessBatch.from_pages([v.start_vpn], pid=1))
        assert m.badgertrap.stats.faults == 1
        assert m.badgertrap.fault_counts[v.pfn_base] == 1
        # TLB now holds the translation: no further fault until eviction.
        m.run_batch(AccessBatch.from_pages([v.start_vpn], pid=1))
        assert m.badgertrap.stats.faults == 1


class TestSamplerIntegration:
    def test_ibs_samples_flow(self):
        m = small_machine(ibs_period=100)
        m.ibs.enabled = True  # a bare machine's samplers start disarmed
        v = m.mmap(1, 64)
        rng = np.random.default_rng(3)
        b = AccessBatch.from_pages(rng.choice(v.vpns, 1000), pid=1)
        m.run_batch(b)
        s = m.ibs.drain()
        assert s.n == 10
        assert set(np.unique(s.pid)) == {1}
        # Sampled pfns are real frames of this VMA.
        assert np.isin(s.pfn, v.pfns).all()

    def test_pebs_disabled_by_default(self):
        m = small_machine()
        v = m.mmap(1, 8)
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        assert m.pebs.drain().n == 0

    def test_pmu_integration(self):
        m = small_machine()
        m.pmu.configure(["llc_miss", "dtlb_miss"])
        v = m.mmap(1, 8)
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        assert m.pmu.read("dtlb_miss").estimate == 8  # all cold misses


class TestDeterminism:
    def test_identical_runs_identical_outcomes(self):
        def run():
            m = small_machine()
            v = m.mmap(1, 32)
            rng = np.random.default_rng(7)
            out = []
            for _ in range(3):
                b = AccessBatch.from_pages(
                    rng.choice(v.vpns, 500), is_store=rng.random(500) < 0.3, pid=1
                )
                r = m.run_batch(b)
                out.append((r.tlb_hit.copy(), r.data_source.copy()))
            return out, m.ptw.stats.walks

        a, walks_a = run()
        b, walks_b = run()
        assert walks_a == walks_b
        for (ha, da), (hb, db) in zip(a, b):
            np.testing.assert_array_equal(ha, hb)
            np.testing.assert_array_equal(da, db)
