"""Unit tests for the page-stats store (extended page descriptors)."""

import numpy as np
import pytest

from repro.core import PageStatsStore


class TestRecording:
    def test_abit_counts(self):
        s = PageStatsStore()
        s.resize(4)
        s.record_abit(np.array([0, 2, 2]))
        np.testing.assert_array_equal(s.abit_total, [1, 0, 2, 0])
        np.testing.assert_array_equal(s.end_epoch().abit, [1, 0, 2, 0])

    def test_trace_counts(self):
        s = PageStatsStore()
        s.resize(3)
        s.record_trace(np.array([1, 1, 1]))
        assert s.trace_total[1] == 3

    def test_trace_weights(self):
        s = PageStatsStore()
        s.resize(2)
        s.record_trace(np.array([0, 1]), weights=np.array([5.0, 2.0]))
        np.testing.assert_array_equal(s.trace_total, [5, 2])

    def test_auto_resize_on_large_pfn(self):
        s = PageStatsStore()
        s.record_abit(np.array([100]))
        assert len(s) == 101
        assert s.abit_total[100] == 1

    def test_empty_record(self):
        s = PageStatsStore()
        s.resize(2)
        s.record_abit(np.zeros(0, dtype=np.int64))
        assert s.abit_total.sum() == 0


class TestEpochs:
    def test_end_epoch_freezes_and_resets(self):
        s = PageStatsStore()
        s.resize(2)
        s.record_abit(np.array([0]))
        s.record_trace(np.array([1]))
        p = s.end_epoch()
        assert p.epoch == 0
        np.testing.assert_array_equal(p.abit, [1, 0])
        np.testing.assert_array_equal(p.trace, [0, 1])
        # Epoch accumulators reset; totals persist.
        assert s.abit_total.sum() == 1
        assert s.epoch == 1
        assert s.end_epoch().abit.sum() == 0

    def test_profile_is_a_copy(self):
        s = PageStatsStore()
        s.resize(1)
        s.record_abit(np.array([0]))
        p = s.end_epoch()
        s.record_abit(np.array([0]))
        assert p.abit[0] == 1

    def test_epoch_rank_weights(self):
        s = PageStatsStore()
        s.resize(1)
        s.record_abit(np.array([0]))
        s.record_trace(np.array([0, 0]))
        p = s.end_epoch()
        assert p.rank()[0] == 3
        assert p.rank(abit_weight=2.0, trace_weight=0.5)[0] == 3.0


class TestDetectedPages:
    def _store(self):
        s = PageStatsStore()
        s.resize(4)
        s.record_abit(np.array([0, 1]))
        s.record_trace(np.array([1, 2]))
        return s

    def test_methods(self):
        s = self._store()
        assert s.detected_pages("abit") == 2
        assert s.detected_pages("trace") == 2
        assert s.detected_pages("both") == 1
        assert s.detected_pages("either") == 3

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            self._store().detected_pages("psychic")

    def test_cumulative_across_epochs(self):
        s = self._store()
        s.end_epoch()
        s.record_abit(np.array([3]))
        assert s.detected_pages("abit") == 3
