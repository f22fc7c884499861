"""Unit tests for the epoch-batched page mover."""

import numpy as np

from repro.memsim import AccessBatch, Machine, MachineConfig
from repro.tiering import TIER1, TIER2, PageMover, make_tiers


def _tm(n=10, cap=3):
    tm = make_tiers(n, cap)
    tm.place(np.arange(n), TIER2)  # everything starts slow
    return tm


class TestApplyTarget:
    def test_promotes_target(self):
        tm = _tm()
        mover = PageMover(tm)
        res = mover.apply_target(np.array([4, 7]))
        assert res.promoted == 2
        assert res.demoted == 0
        np.testing.assert_array_equal(tm.tier1_pages(), [4, 7])

    def test_demotes_evicted(self):
        tm = _tm()
        mover = PageMover(tm)
        mover.apply_target(np.array([1, 2, 3]))
        res = mover.apply_target(np.array([4, 5, 6]))
        assert res.promoted == 3 and res.demoted == 3
        np.testing.assert_array_equal(np.sort(tm.tier1_pages()), [4, 5, 6])
        assert tm.tier_of[1] == TIER2

    def test_stable_target_no_moves(self):
        tm = _tm()
        mover = PageMover(tm)
        mover.apply_target(np.array([1, 2]))
        res = mover.apply_target(np.array([1, 2]))
        assert res.moved == 0
        assert res.shootdowns == 0

    def test_target_clamped_to_capacity_hottest_first(self):
        tm = _tm(cap=2)
        mover = PageMover(tm)
        res = mover.apply_target(np.array([9, 8, 7, 6]))  # hottest-first order
        assert res.promoted == 2
        np.testing.assert_array_equal(np.sort(tm.tier1_pages()), [8, 9])

    def test_partial_overlap(self):
        tm = _tm()
        mover = PageMover(tm)
        mover.apply_target(np.array([1, 2, 3]))
        res = mover.apply_target(np.array([2, 3, 4]))
        assert res.promoted == 1 and res.demoted == 1

    def test_totals_accumulate(self):
        tm = _tm()
        mover = PageMover(tm)
        mover.apply_target(np.array([1]))
        mover.apply_target(np.array([2]))
        assert mover.total.promoted == 2
        assert mover.total.demoted == 1

    def test_empty_target_demotes_all(self):
        tm = _tm()
        mover = PageMover(tm)
        mover.apply_target(np.array([1, 2]))
        res = mover.apply_target(np.zeros(0, dtype=np.int64))
        assert res.demoted == 2
        assert tm.occupancy(TIER1) == 0


class TestShootdownIntegration:
    def test_single_shootdown_per_batch(self):
        m = Machine(MachineConfig(total_frames=1 << 12, tlb_entries=64, n_cpus=2))
        vma = m.mmap(1, 8)
        m.run_batch(AccessBatch.from_pages(vma.vpns, pid=1))
        tm = make_tiers(m.n_frames, 4)
        tm.place(np.arange(m.n_frames), TIER2)
        mover = PageMover(tm, m)

        before = m.tlb.stats.shootdowns
        res = mover.apply_target(vma.pfns[:3].astype(np.int64))
        assert res.shootdowns == 1
        assert m.tlb.stats.shootdowns == before + 1
        # The moved pages' translations are gone; untouched ones remain.
        resident = m.tlb.contains(
            np.full(8, 1, dtype=np.int32), vma.vpns
        )
        assert not resident[:3].any()
        assert resident[3:].all()

    def test_no_moves_no_shootdown(self):
        m = Machine(MachineConfig(total_frames=1 << 12))
        m.mmap(1, 4)
        tm = make_tiers(m.n_frames, 2)
        tm.place(np.arange(m.n_frames), TIER2)
        mover = PageMover(tm, m)
        mover.apply_target(np.zeros(0, dtype=np.int64))
        assert m.tlb.stats.shootdowns == 0


def _per_vma_shootdown_keys(machine, pfns):
    """The old per-VMA masking loop, kept here as the reference."""
    keys = set()
    for pid, pt in machine.page_tables.items():
        for vma in pt.vmas:
            lo, hi = vma.pfn_base, vma.pfn_base + vma.npages
            hit = pfns[(pfns >= lo) & (pfns < hi)]
            unit = (hit - lo) >> vma.page_order << vma.page_order
            keys.update((pid, int(vma.start_vpn + u)) for u in unit)
    return keys


class TestShootdownOfMovedPages:
    def _machine(self):
        m = Machine(MachineConfig(total_frames=1 << 14, tlb_entries=2048, n_cpus=3))
        # Interleaved mmaps: frame order is not PID order; one THP region.
        regions = [
            m.mmap(2, 24),
            m.mmap(1, 40),
            m.mmap(2, 1024, page_order=9),
            m.mmap(3, 8),
            m.mmap(1, 16),
        ]
        m.allocator.alloc(5)  # frames no VMA maps
        regions.append(m.mmap(3, 12))
        return m, regions

    def _warm(self, m):
        for pid, pt in m.page_tables.items():
            for cpu in range(3):
                for vma in pt.vmas:
                    m.run_batch(AccessBatch.from_pages(vma.vpns, pid=pid, cpu=cpu))

    def test_same_keys_and_same_tlb_stats_as_the_per_vma_loop(self):
        rng = np.random.default_rng(11)
        for trial in range(4):
            m, _ = self._machine()
            twin, _ = self._machine()
            self._warm(m)
            self._warm(twin)
            moved = rng.choice(m.n_frames, 200, replace=False).astype(np.int64)
            want = _per_vma_shootdown_keys(m, moved)

            flushed = []
            real = m.tlb.shootdown_pages
            m.tlb.shootdown_pages = lambda pids, vpns: (
                flushed.extend(zip(pids.tolist(), vpns.tolist())),
                real(pids, vpns),
            )
            PageMover(make_tiers(m.n_frames, 4), m)._shootdown_moved(moved)
            assert set(flushed) == want

            pids, vpns = (np.array(col) for col in zip(*sorted(want)))
            twin.tlb.shootdown_pages(pids.astype(np.int32), vpns)
            assert m.tlb.stats == twin.tlb.stats
            assert m.tlb.stats.entries_invalidated > 0
            assert m.tlb.occupancy() == twin.tlb.occupancy()

    def test_thp_unit_flushes_its_head(self):
        m, regions = self._machine()
        self._warm(m)
        thp = regions[2]
        inside = np.array([thp.pfn_base + 512 + 37], dtype=np.int64)
        PageMover(make_tiers(m.n_frames, 4), m)._shootdown_moved(inside)
        heads = np.array([thp.start_vpn, thp.start_vpn + 512], dtype=np.uint64)
        np.testing.assert_array_equal(
            m.tlb.contains(np.full(2, 2, dtype=np.int32), heads), [True, False]
        )

    def test_frames_outside_every_vma_flush_nothing(self):
        m, regions = self._machine()
        self._warm(m)
        unmapped = np.arange(regions[-1].pfn_base - 5, regions[-1].pfn_base)
        PageMover(make_tiers(m.n_frames, 4), m)._shootdown_moved(unmapped)
        assert m.tlb.stats.shootdowns == 0

    def test_machine_without_processes(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        PageMover(make_tiers(8, 4), m)._shootdown_moved(np.arange(4))
        assert m.tlb.stats.shootdowns == 0
