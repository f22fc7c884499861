"""Unit tests for address arithmetic."""

import numpy as np
import pytest

from repro.memsim import address as A


class TestConstants:
    def test_page_size(self):
        assert A.PAGE_SIZE == 4096
        assert A.PAGE_SIZE == 1 << A.PAGE_SHIFT

    def test_line_size(self):
        assert A.LINE_SIZE == 64
        assert A.LINES_PER_PAGE == 64

    def test_masks(self):
        assert A.PAGE_OFFSET_MASK == 0xFFF
        assert A.LINE_OFFSET_MASK == 0x3F


class TestPageOf:
    def test_scalar(self):
        assert A.page_of(0) == 0
        assert A.page_of(4095) == 0
        assert A.page_of(4096) == 1

    def test_array(self):
        addrs = np.array([0, 4096, 8192 + 17], dtype=np.uint64)
        np.testing.assert_array_equal(A.page_of(addrs), [0, 1, 2])

    def test_dtype(self):
        assert A.page_of(np.array([1], dtype=np.uint64)).dtype == np.uint64

    def test_high_addresses(self):
        addr = np.uint64((1 << 47) + 123)
        assert A.page_of(addr) == (1 << 47) >> 12


class TestLineOf:
    def test_scalar(self):
        assert A.line_of(63) == 0
        assert A.line_of(64) == 1

    def test_lines_within_page(self):
        base = 5 * A.PAGE_SIZE
        lines = A.line_of(np.arange(base, base + A.PAGE_SIZE, 64, dtype=np.uint64))
        assert len(np.unique(lines)) == A.LINES_PER_PAGE


class TestCompose:
    def test_roundtrip(self):
        vpn = np.array([0, 7, 123456], dtype=np.uint64)
        off = np.array([0, 100, 4095], dtype=np.uint64)
        addr = A.compose(vpn, off)
        np.testing.assert_array_equal(A.page_of(addr), vpn)
        np.testing.assert_array_equal(addr & np.uint64(A.PAGE_OFFSET_MASK), off)

    def test_offset_wrap_masked(self):
        # Offsets beyond page size are masked, not carried.
        assert A.compose(1, 4096) == 4096

    def test_page_base(self):
        assert A.compose(3, 0) == 3 * 4096


class TestIsPow2:
    @pytest.mark.parametrize("n", [1, 2, 4, 1024, 1 << 40])
    def test_true(self, n):
        assert A.is_pow2(n)

    @pytest.mark.parametrize("n", [0, -2, 3, 6, 1023])
    def test_false(self, n):
        assert not A.is_pow2(n)
