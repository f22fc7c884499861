"""Unit tests for the page-table walker's A/D/poison semantics."""

import numpy as np
import pytest

from repro.memsim.frames import FrameAllocator
from repro.memsim.page_table import PageTable
from repro.memsim.ptw import PageTableWalker
from repro.memsim.pte import PTE_POISON, is_accessed, is_dirty


@pytest.fixture
def pt():
    table = PageTable(1)
    table.mmap(0x100, 16, FrameAllocator(1 << 16))
    return table


class TestFillWalks:
    def test_sets_accessed_bits(self, pt):
        w = PageTableWalker()
        w.fill_walks(pt, np.array([0, 3, 3], dtype=np.int64))
        acc = is_accessed(pt.flags)
        assert acc[0] and acc[3]
        assert not acc[1]

    def test_counts_walks_per_miss(self, pt):
        w = PageTableWalker()
        w.fill_walks(pt, np.array([0, 3, 3], dtype=np.int64))
        assert w.stats.walks == 3

    def test_a_bits_set_counts_transitions_only(self, pt):
        w = PageTableWalker()
        w.fill_walks(pt, np.array([0], dtype=np.int64))
        w.fill_walks(pt, np.array([0], dtype=np.int64))
        assert w.stats.a_bits_set == 1

    def test_empty(self, pt):
        w = PageTableWalker()
        assert w.fill_walks(pt, np.zeros(0, dtype=np.int64)).size == 0
        assert w.stats.walks == 0

    def test_poison_fault_mask(self, pt):
        w = PageTableWalker()
        pt.flags[5] |= PTE_POISON
        mask = w.fill_walks(pt, np.array([4, 5, 5, 6], dtype=np.int64))
        np.testing.assert_array_equal(mask, [False, True, True, False])
        assert w.stats.poison_faults == 2

    def test_poisoned_pte_still_gets_a_bit(self, pt):
        w = PageTableWalker()
        pt.flags[5] |= PTE_POISON
        w.fill_walks(pt, np.array([5], dtype=np.int64))
        assert is_accessed(pt.flags)[5]


class TestDirtyUpdates:
    def test_sets_dirty_on_store(self, pt):
        w = PageTableWalker()
        newly = w.dirty_updates(pt, np.array([2, 2, 7], dtype=np.int64))
        np.testing.assert_array_equal(np.sort(newly), [2, 7])
        assert is_dirty(pt.flags)[2] and is_dirty(pt.flags)[7]

    def test_already_dirty_not_relogged(self, pt):
        w = PageTableWalker()
        w.dirty_updates(pt, np.array([2], dtype=np.int64))
        newly = w.dirty_updates(pt, np.array([2], dtype=np.int64))
        assert newly.size == 0
        assert w.stats.d_bits_set == 1

    def test_dirty_independent_of_accessed(self, pt):
        w = PageTableWalker()
        w.dirty_updates(pt, np.array([2], dtype=np.int64))
        assert not is_accessed(pt.flags)[2]

    def test_empty(self, pt):
        w = PageTableWalker()
        assert w.dirty_updates(pt, np.zeros(0, dtype=np.int64)).size == 0


def _reference_walks(flags, slots, bit):
    """One PTE at a time: set ``bit`` on each slot, note the transitions."""
    flags = flags.copy()
    newly = set()
    for s in slots.tolist():
        if not int(flags[s]) & bit:
            flags[s] |= np.uint64(bit)
            newly.add(s)
    return flags, sorted(newly)


class TestAgainstScalarReference:
    """Random slot arrays with duplicates, pre-set bits and poisoned PTEs."""

    N_SLOTS = 64

    def _table(self, rng):
        from repro.memsim.pte import PTE_ACCESSED, PTE_DIRTY

        table = PageTable(1)
        table.mmap(0x100, self.N_SLOTS, FrameAllocator(1 << 16))
        for bit in (PTE_ACCESSED, PTE_DIRTY, PTE_POISON):
            preset = rng.random(self.N_SLOTS) < 0.3
            table.flags[preset] |= np.uint64(bit)
        return table

    def _slots(self, rng):
        # A narrow range on most draws, so duplicates are the rule.
        hi = int(rng.choice([4, 16, self.N_SLOTS]))
        return rng.integers(0, hi, int(rng.integers(1, 200))).astype(np.int64)

    @pytest.mark.parametrize("seed", range(25))
    def test_fill_walks(self, seed):
        from repro.memsim.pte import PTE_ACCESSED

        rng = np.random.default_rng(seed)
        table, w = self._table(rng), PageTableWalker()
        for _ in range(4):
            slots = self._slots(rng)
            before = table.flags.copy()
            want_flags, want_new = _reference_walks(before, slots, PTE_ACCESSED)
            a0, p0, w0 = w.stats.a_bits_set, w.stats.poison_faults, w.stats.walks
            poisoned = w.fill_walks(table, slots)
            np.testing.assert_array_equal(table.flags, want_flags)
            np.testing.assert_array_equal(poisoned, (before[slots] & PTE_POISON) != 0)
            assert w.stats.a_bits_set - a0 == len(want_new)
            assert w.stats.poison_faults - p0 == int(poisoned.sum())
            assert w.stats.walks - w0 == slots.size

    @pytest.mark.parametrize("seed", range(25))
    def test_dirty_updates(self, seed):
        from repro.memsim.pte import PTE_DIRTY

        rng = np.random.default_rng(100 + seed)
        table, w = self._table(rng), PageTableWalker()
        for _ in range(4):
            slots = self._slots(rng)
            want_flags, want_new = _reference_walks(table.flags, slots, PTE_DIRTY)
            d0 = w.stats.d_bits_set
            newly = w.dirty_updates(table, slots)
            np.testing.assert_array_equal(table.flags, want_flags)
            assert newly.tolist() == want_new  # distinct and ascending
            assert w.stats.d_bits_set - d0 == len(want_new)

    def test_sorting_work_follows_transitions(self, monkeypatch):
        """No timer needed: whatever ``np.unique`` / ``np.sort`` are
        handed in total is bounded by the bits that actually flipped,
        however many PTEs were walked."""
        seen = []
        for name in ("unique", "sort"):
            real = getattr(np, name)

            def counting(arr, *args, _real=real, **kwargs):
                seen.append(np.asarray(arr).size)
                return _real(arr, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)

        rng = np.random.default_rng(7)
        table, w = self._table(rng), PageTableWalker()
        walked = 0
        for _ in range(20):
            slots = rng.integers(0, self.N_SLOTS, 500).astype(np.int64)
            w.fill_walks(table, slots)
            w.dirty_updates(table, slots)
            walked += 2 * slots.size
        transitions = w.stats.a_bits_set + w.stats.d_bits_set
        assert 0 < transitions <= 2 * self.N_SLOTS
        assert sum(seen) <= transitions < walked // 100
