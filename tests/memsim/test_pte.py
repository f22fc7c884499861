"""Unit tests for PTE flag encoding."""

import numpy as np

from repro.memsim import pte


class TestFlagBits:
    def test_bits_disjoint(self):
        bits = [pte.PTE_PRESENT, pte.PTE_WRITABLE, pte.PTE_ACCESSED, pte.PTE_DIRTY, pte.PTE_POISON]
        for i, a in enumerate(bits):
            for b in bits[i + 1 :]:
                assert a & b == 0

    def test_poison_is_bit_51(self):
        assert pte.PTE_POISON == np.uint64(1 << 51)

    def test_default_present_writable_clean(self):
        f = np.array([pte.PTE_DEFAULT])
        assert pte.is_present(f).all()
        assert not pte.is_accessed(f).any()
        assert not pte.is_dirty(f).any()
        assert not pte.is_poisoned(f).any()


class TestPredicates:
    def test_masks(self):
        f = np.array(
            [0, pte.PTE_PRESENT, pte.PTE_PRESENT | pte.PTE_ACCESSED, pte.PTE_DIRTY],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(pte.is_present(f), [False, True, True, False])
        np.testing.assert_array_equal(pte.is_accessed(f), [False, False, True, False])
        np.testing.assert_array_equal(pte.is_dirty(f), [False, False, False, True])


class TestTestAndClear:
    def test_returns_previous_and_clears(self):
        f = np.array([pte.PTE_ACCESSED, 0, pte.PTE_ACCESSED], dtype=np.uint64)
        had = pte.test_and_clear(f, pte.PTE_ACCESSED)
        np.testing.assert_array_equal(had, [True, False, True])
        assert not pte.is_accessed(f).any()

    def test_other_bits_preserved(self):
        f = np.array([pte.PTE_PRESENT | pte.PTE_ACCESSED | pte.PTE_DIRTY], dtype=np.uint64)
        pte.test_and_clear(f, pte.PTE_ACCESSED)
        assert pte.is_present(f).all()
        assert pte.is_dirty(f).all()

    def test_idempotent_second_clear(self):
        f = np.array([pte.PTE_ACCESSED], dtype=np.uint64)
        assert pte.test_and_clear(f, pte.PTE_ACCESSED).all()
        assert not pte.test_and_clear(f, pte.PTE_ACCESSED).any()
