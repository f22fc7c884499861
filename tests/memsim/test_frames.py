"""Unit tests for frame allocation and ground-truth frame stats."""

import numpy as np
import pytest

from repro.memsim.frames import FrameAllocator, FrameStats, GrowableArray


class TestGrowableArray:
    def test_starts_empty(self):
        g = GrowableArray(np.int64)
        assert len(g) == 0
        assert g.data().size == 0

    def test_resize_and_fill_value(self):
        g = GrowableArray(np.int64, fill=-1, initial_capacity=2)
        g.resize(5)
        assert len(g) == 5
        assert (g.data() == -1).all()

    def test_growth_preserves_data(self):
        g = GrowableArray(np.int64, initial_capacity=2)
        g.resize(2)
        g.data()[:] = [7, 8]
        g.resize(100)
        np.testing.assert_array_equal(g.data()[:2], [7, 8])
        assert (g.data()[2:] == 0).all()

    def test_shrink_is_noop(self):
        g = GrowableArray(np.int64)
        g.resize(10)
        g.resize(3)
        assert len(g) == 10

    def test_fill(self):
        g = GrowableArray(np.int64)
        g.resize(4)
        g.fill(9)
        assert (g.data() == 9).all()


class TestFrameAllocator:
    def test_monotonic(self):
        a = FrameAllocator(100)
        assert a.alloc(10) == 0
        assert a.alloc(5) == 10
        assert a.allocated == 15
        assert a.free == 85

    def test_exhaustion(self):
        a = FrameAllocator(8)
        a.alloc(8)
        with pytest.raises(MemoryError):
            a.alloc(1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            FrameAllocator(0)
        a = FrameAllocator(4)
        with pytest.raises(ValueError):
            a.alloc(0)


class TestFrameStats:
    def _record(self, fs, pfns, mem=None, tlbmiss=None, op_base=0):
        pfns = np.asarray(pfns, dtype=np.uint64)
        z = np.zeros(pfns.size, dtype=bool)
        return fs.record(
            pfns,
            z if mem is None else np.asarray(mem, dtype=bool),
            z if tlbmiss is None else np.asarray(tlbmiss, dtype=bool),
            op_base,
        )

    def test_access_counts(self):
        fs = FrameStats()
        fs.resize(4)
        counts = self._record(fs, [0, 1, 1, 3])
        np.testing.assert_array_equal(counts.access, [1, 2, 0, 1])

    def test_mem_counts(self):
        fs = FrameStats()
        fs.resize(2)
        counts = self._record(fs, [0, 0, 1], mem=[False, True, True])
        np.testing.assert_array_equal(counts.mem, [1, 1])

    def test_tlb_miss_counts(self):
        fs = FrameStats()
        fs.resize(2)
        counts = self._record(fs, [0, 1, 1], tlbmiss=[True, True, False])
        np.testing.assert_array_equal(counts.tlb_miss, [1, 1])

    def test_counts_are_per_batch(self):
        fs = FrameStats()
        fs.resize(1)
        self._record(fs, [0])
        assert self._record(fs, [0]).access[0] == 1

    def test_first_touch_stamps_once(self):
        fs = FrameStats()
        fs.resize(3)
        self._record(fs, [2, 0], op_base=10)
        self._record(fs, [0, 1], op_base=100)
        np.testing.assert_array_equal(fs.first_touch_op, [11, 101, 10])

    def test_first_touch_within_batch_duplicates(self):
        fs = FrameStats()
        fs.resize(1)
        self._record(fs, [0, 0, 0], op_base=5)
        assert fs.first_touch_op[0] == 5

    def test_touched_mask(self):
        fs = FrameStats()
        fs.resize(3)
        self._record(fs, [1])
        np.testing.assert_array_equal(fs.touched_mask(), [False, True, False])

    def test_empty_record_noop(self):
        fs = FrameStats()
        fs.resize(2)
        counts = self._record(fs, [])
        np.testing.assert_array_equal(counts.access, [0, 0])
        assert not fs.touched_mask().any()
