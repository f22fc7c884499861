"""Unit tests for VMA-backed page tables."""

import numpy as np
import pytest

from repro.memsim.frames import FrameAllocator
from repro.memsim.page_table import PageTable, TranslationFault
from repro.memsim.pte import PTE_ACCESSED, is_accessed, is_present


@pytest.fixture
def alloc():
    return FrameAllocator(1 << 20)


class TestMmap:
    def test_basic(self, alloc):
        pt = PageTable(1)
        vma = pt.mmap(0x100, 10, alloc, name="heap")
        assert vma.start_vpn == 0x100
        assert vma.end_vpn == 0x10A
        assert vma.npages == 10
        assert pt.n_pages == 10

    def test_eager_frames(self, alloc):
        pt = PageTable(1)
        v1 = pt.mmap(0x100, 4, alloc)
        v2 = pt.mmap(0x200, 4, alloc)
        assert v2.pfn_base == v1.pfn_base + 4

    def test_overlap_rejected(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 10, alloc)
        with pytest.raises(ValueError, match="overlaps"):
            pt.mmap(0x105, 10, alloc)
        with pytest.raises(ValueError, match="overlaps"):
            pt.mmap(0xF8, 9, alloc)  # tail overlaps head

    def test_adjacent_ok(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 10, alloc)
        pt.mmap(0x10A, 10, alloc)  # exactly adjacent
        assert pt.n_pages == 20

    def test_zero_pages_rejected(self, alloc):
        pt = PageTable(1)
        with pytest.raises(ValueError):
            pt.mmap(0x100, 0, alloc)

    def test_fresh_ptes_present_not_accessed(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 4, alloc)
        assert is_present(pt.flags).all()
        assert not is_accessed(pt.flags).any()


class TestTranslate:
    def test_identity_mapping_within_vma(self, alloc):
        pt = PageTable(1)
        vma = pt.mmap(0x100, 10, alloc)
        pfns, slots = pt.translate(np.array([0x100, 0x105, 0x109], dtype=np.uint64))
        np.testing.assert_array_equal(pfns, vma.pfn_base + np.array([0, 5, 9]))
        np.testing.assert_array_equal(slots, [0, 5, 9])

    def test_multiple_vmas(self, alloc):
        pt = PageTable(1)
        v1 = pt.mmap(0x100, 4, alloc)
        v2 = pt.mmap(0x500, 4, alloc)
        pfns, slots = pt.translate(np.array([0x501, 0x101], dtype=np.uint64))
        assert pfns[0] == v2.pfn_base + 1
        assert pfns[1] == v1.pfn_base + 1
        np.testing.assert_array_equal(slots, [5, 1])

    def test_unmapped_faults(self, alloc):
        pt = PageTable(3)
        pt.mmap(0x100, 4, alloc)
        with pytest.raises(TranslationFault) as ei:
            pt.translate(np.array([0x104], dtype=np.uint64))
        assert ei.value.pid == 3

    def test_below_first_vma_faults(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 4, alloc)
        with pytest.raises(TranslationFault):
            pt.translate(np.array([0x50], dtype=np.uint64))

    def test_gap_between_vmas_faults(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 4, alloc)
        pt.mmap(0x200, 4, alloc)
        with pytest.raises(TranslationFault):
            pt.translate(np.array([0x150], dtype=np.uint64))

    def test_empty_table_empty_query(self, alloc):
        pt = PageTable(1)
        pfns, slots = pt.translate(np.zeros(0, dtype=np.uint64))
        assert pfns.size == 0 and slots.size == 0

    def test_empty_table_faults(self, alloc):
        pt = PageTable(1)
        with pytest.raises(TranslationFault):
            pt.translate(np.array([1], dtype=np.uint64))


class TestSlotMappings:
    def test_slot_to_vpn_roundtrip(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 4, alloc)
        pt.mmap(0x500, 4, alloc)
        vpns = np.array([0x100, 0x103, 0x500, 0x502], dtype=np.uint64)
        _, slots = pt.translate(vpns)
        np.testing.assert_array_equal(pt.slot_to_vpn(slots), vpns)

    def test_slot_to_pfn_roundtrip(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 8, alloc)
        vpns = np.array([0x101, 0x107], dtype=np.uint64)
        pfns, slots = pt.translate(vpns)
        np.testing.assert_array_equal(pt.slot_to_pfn(slots), pfns)

    @pytest.mark.parametrize("page_order, npages, n_slots", [(0, 8, 8), (9, 1500, 3)])
    @pytest.mark.parametrize("method", ["slot_to_pfn", "slot_to_vpn"])
    def test_unowned_slot_is_an_index_error(self, alloc, method, page_order, npages, n_slots):
        """A slot no VMA owns used to come back as whatever ``np.empty``
        held (``[3, 140164212923616, 16520197559526106898]``); negative
        ones must not wrap around to the table's tail either."""
        pt = PageTable(1)
        pt.mmap(0x40, 2, alloc)
        vma = pt.mmap(0x1000, npages, alloc, page_order=page_order)
        assert pt.n_pages == 2 + n_slots
        convert = getattr(pt, method)
        base = vma.pfn_base if method == "slot_to_pfn" else vma.start_vpn
        np.testing.assert_array_equal(
            convert(np.array([2, pt.n_pages - 1])),
            [base, base + ((n_slots - 1) << page_order)],
        )
        with pytest.raises(IndexError, match=r"slot\(s\) \[99, -1\]"):
            convert(np.array([3, 99, -1]))
        with pytest.raises(IndexError, match=rf"\[{pt.n_pages}\]"):
            convert(np.array([pt.n_pages]))
        assert convert(np.zeros(0, dtype=np.int64)).size == 0
        assert convert(np.array([0])).dtype == np.uint64


class TestWalk:
    def test_walk_visits_all_vmas(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 4, alloc)
        pt.mmap(0x500, 6, alloc)
        visited = [(vma.name, flags.size) for vma, flags in pt.walk()]
        assert sum(n for _, n in visited) == 10
        assert len(visited) == 2

    def test_walk_flags_are_writable_views(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x100, 4, alloc)
        for _, flags in pt.walk():
            flags |= PTE_ACCESSED
        assert is_accessed(pt.flags).all()

    def test_walk_sorted_by_vpn(self, alloc):
        pt = PageTable(1)
        pt.mmap(0x500, 2, alloc)
        pt.mmap(0x100, 2, alloc)
        starts = [vma.start_vpn for vma, _ in pt.walk()]
        assert starts == sorted(starts)


class TestFindVMA:
    def test_hit_and_miss(self, alloc):
        pt = PageTable(1)
        vma = pt.mmap(0x100, 4, alloc, name="x")
        assert pt.find_vma(0x102) is vma
        assert pt.find_vma(0x104) is None
        assert 0x102 in vma
        assert 0x104 not in vma

    def test_vma_arrays(self, alloc):
        pt = PageTable(1)
        vma = pt.mmap(0x10, 3, alloc)
        np.testing.assert_array_equal(vma.vpns, [0x10, 0x11, 0x12])
        assert vma.pfns.size == 3
