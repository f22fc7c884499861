"""Unit tests for the A-bit scan driver, including the stale-TLB
no-shootdown semantics and the bounded-budget scan window."""

import numpy as np
import pytest

from repro.core import ABitDriver, PageStatsStore, TMPConfig
from repro.memsim import AccessBatch, Machine, MachineConfig
from repro.memsim.pte import is_accessed


def _setup(npages=64, config=None, **mach_kw):
    defaults = dict(total_frames=1 << 14, tlb_entries=64, n_cpus=1)
    defaults.update(mach_kw)
    m = Machine(MachineConfig(**defaults))
    vma = m.mmap(1, npages)
    store = PageStatsStore()
    store.resize(m.n_frames)
    drv = ABitDriver(m, config or TMPConfig(), store)
    return m, vma, store, drv


class TestScan:
    def test_detects_accessed_pages(self):
        m, vma, store, drv = _setup()
        m.run_batch(AccessBatch.from_pages(vma.vpns[:5], pid=1))
        found = drv.scan([1])
        assert found == 5
        assert store.detected_pages("abit") == 5
        np.testing.assert_array_equal(np.flatnonzero(store.abit_total > 0), vma.pfns[:5])

    def test_clears_bits(self):
        m, vma, store, drv = _setup()
        m.run_batch(AccessBatch.from_pages(vma.vpns[:5], pid=1))
        drv.scan([1])
        assert not is_accessed(m.page_tables[1].flags).any()
        # Second scan with no new accesses finds nothing.
        assert drv.scan([1]) == 0

    def test_disabled_scans_nothing(self):
        m, vma, store, drv = _setup()
        m.run_batch(AccessBatch.from_pages(vma.vpns, pid=1))
        drv.enabled = False
        assert drv.scan([1]) == 0
        assert drv.stats.scans == 0

    def test_unknown_pid_skipped(self):
        _, _, _, drv = _setup()
        assert drv.scan([999]) == 0

    def test_overhead_accounting(self):
        m, vma, store, drv = _setup(npages=100)
        m.run_batch(AccessBatch.from_pages(vma.vpns, pid=1))
        drv.scan([1])
        c = drv.config.costs
        expected = c.abit_per_scan_s + 100 * c.abit_per_pte_s
        assert drv.stats.time_s == pytest.approx(expected)
        assert drv.stats.ptes_visited == 100


class TestStaleTLBSemantics:
    def test_no_shootdown_misses_tlb_resident_rescan(self):
        """The paper's §III-B.4 trade-off: after a clear without
        shootdown, a TLB-resident page is accessed without re-setting
        its A bit — the scan loses those accesses."""
        m, vma, store, drv = _setup()
        page = vma.vpns[:1]
        m.run_batch(AccessBatch.from_pages(page, pid=1))
        assert drv.scan([1]) == 1
        # Access again: the translation is still TLB-resident, so no
        # walk happens and the A bit stays clear.
        m.run_batch(AccessBatch.from_pages(page, pid=1))
        assert drv.scan([1]) == 0  # the access was invisible

    def test_shootdown_mode_recovers_visibility(self):
        cfg = TMPConfig(abit_shootdown=True)
        m, vma, store, drv = _setup(config=cfg)
        page = vma.vpns[:1]
        m.run_batch(AccessBatch.from_pages(page, pid=1))
        assert drv.scan([1]) == 1
        assert drv.stats.shootdowns == 1
        # The shootdown flushed the entry: the next access walks again.
        m.run_batch(AccessBatch.from_pages(page, pid=1))
        assert drv.scan([1]) == 1

    def test_eviction_restores_visibility_without_shootdown(self):
        m, vma, store, drv = _setup(npages=256, tlb_entries=4)
        page = vma.vpns[:1]
        m.run_batch(AccessBatch.from_pages(page, pid=1))
        drv.scan([1])
        # Thrash the tiny TLB so the entry is evicted, then re-access.
        m.run_batch(AccessBatch.from_pages(vma.vpns[100:200], pid=1))
        drv.scan([1])  # clear the thrash pages' bits too
        m.run_batch(AccessBatch.from_pages(page, pid=1))
        assert store.abit_total[vma.pfn_base] >= 1
        found = drv.scan([1])
        assert found >= 1


class TestBudget:
    def test_head_restart_window(self):
        cfg = TMPConfig(abit_scan_budget_pages=8, abit_scan_resumable=False)
        m, vma, store, drv = _setup(npages=64, config=cfg)
        m.run_batch(AccessBatch.from_pages(vma.vpns, pid=1))
        drv.scan([1])
        drv.scan([1])
        # Only the first 8 slots are ever visited.
        assert store.detected_pages("abit") == 8
        assert drv.stats.ptes_visited == 16

    def test_resumable_cursor_covers_table(self):
        cfg = TMPConfig(abit_scan_budget_pages=8, abit_scan_resumable=True)
        m, vma, store, drv = _setup(npages=64, config=cfg, tlb_entries=4)
        m.run_batch(AccessBatch.from_pages(vma.vpns, pid=1))
        for _ in range(8):
            drv.scan([1])
        # 8 passes x 8 PTEs = the whole 64-page table.
        assert store.detected_pages("abit") == 64

    def test_budget_larger_than_table(self):
        cfg = TMPConfig(abit_scan_budget_pages=1000)
        m, vma, store, drv = _setup(npages=16, config=cfg)
        m.run_batch(AccessBatch.from_pages(vma.vpns, pid=1))
        drv.scan([1])
        assert drv.stats.ptes_visited == 16

    def test_unbounded_budget(self):
        cfg = TMPConfig(abit_scan_budget_pages=None)
        m, vma, store, drv = _setup(npages=64, config=cfg)
        m.run_batch(AccessBatch.from_pages(vma.vpns, pid=1))
        drv.scan([1])
        assert store.detected_pages("abit") == 64


class TestMultiProcess:
    def test_scans_each_tracked_pid(self):
        m = Machine(MachineConfig(total_frames=1 << 14, n_cpus=1))
        v1 = m.mmap(1, 8)
        v2 = m.mmap(2, 8)
        store = PageStatsStore()
        store.resize(m.n_frames)
        drv = ABitDriver(m, TMPConfig(), store)
        m.run_batch(
            AccessBatch.concat(
                [
                    AccessBatch.from_pages(v1.vpns, pid=1),
                    AccessBatch.from_pages(v2.vpns, pid=2),
                ]
            )
        )
        assert drv.scan([1, 2]) == 16
        assert drv.stats.processes_scanned == 2

    def test_untracked_pid_not_scanned(self):
        m = Machine(MachineConfig(total_frames=1 << 14, n_cpus=1))
        v1 = m.mmap(1, 8)
        v2 = m.mmap(2, 8)
        store = PageStatsStore()
        store.resize(m.n_frames)
        drv = ABitDriver(m, TMPConfig(), store)
        m.run_batch(
            AccessBatch.concat(
                [
                    AccessBatch.from_pages(v1.vpns, pid=1),
                    AccessBatch.from_pages(v2.vpns, pid=2),
                ]
            )
        )
        assert drv.scan([1]) == 8
        assert store.abit_total[v2.pfn_base : v2.pfn_base + 8].sum() == 0
