"""Unit tests for tier specs and the placement map."""

import numpy as np
import pytest

from repro.tiering import TIER1, TIER2, UNPLACED, TieredMemory, TierSpec, make_tiers


class TestTierSpec:
    def test_fields(self):
        t = TierSpec("dram", 100, 80.0)
        assert t.name == "dram"
        assert t.capacity_pages == 100

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TierSpec("x", -1, 80.0)

    def test_frozen(self):
        t = TierSpec("dram", 100, 80.0)
        with pytest.raises(AttributeError):
            t.capacity_pages = 5


class TestTieredMemory:
    def test_initially_unplaced(self):
        tm = make_tiers(10, 4)
        assert tm.occupancy(UNPLACED) == 10
        assert tm.occupancy(TIER1) == 0

    def test_place_and_query(self):
        tm = make_tiers(10, 4)
        tm.place(np.array([1, 3]), TIER1)
        np.testing.assert_array_equal(tm.tier1_pages(), [1, 3])
        np.testing.assert_array_equal(tm.tier_of[[1, 2, 3]], [TIER1, UNPLACED, TIER1])

    def test_capacity_enforced(self):
        tm = make_tiers(10, 2)
        tm.place(np.array([0, 1]), TIER1)
        with pytest.raises(MemoryError, match="over capacity"):
            tm.place(np.array([2]), TIER1)

    def test_replace_same_pages_not_counted_twice(self):
        tm = make_tiers(10, 2)
        tm.place(np.array([0, 1]), TIER1)
        tm.place(np.array([0, 1]), TIER1)  # no-op, no capacity error
        assert tm.occupancy(TIER1) == 2

    def test_move_between_tiers(self):
        tm = make_tiers(10, 4)
        tm.place(np.array([5]), TIER1)
        tm.place(np.array([5]), TIER2)
        assert tm.occupancy(TIER1) == 0
        np.testing.assert_array_equal(np.flatnonzero(tm.tier_of == TIER2), [5])

    def test_free_pages(self):
        tm = make_tiers(10, 4)
        tm.place(np.array([0]), TIER1)
        assert tm.free_pages(TIER1) == 3

    def test_resize_preserves(self):
        tm = make_tiers(4, 2)
        tm.place(np.array([1]), TIER1)
        tm.resize(8)
        assert tm.n_frames == 8
        np.testing.assert_array_equal(tm.tier1_pages(), [1])
        assert tm.tier_of[7] == UNPLACED

    def test_resize_shrink_noop(self):
        tm = make_tiers(8, 2)
        tm.resize(4)
        assert tm.n_frames == 8

    def test_summary(self):
        tm = make_tiers(10, 4)
        tm.place(np.array([0, 1]), TIER1)
        tm.place(np.array([2]), TIER2)
        s = tm.summary()
        assert s["tier1_used"] == 2
        assert s["tier2_used"] == 1
        assert s["unplaced"] == 7

    def test_empty_place(self):
        tm = make_tiers(4, 2)
        tm.place(np.zeros(0, dtype=np.int64), TIER1)
        assert tm.occupancy(TIER1) == 0

    def test_make_tiers_default_tier2_fits_all(self):
        tm = make_tiers(100, 4)
        tm.place(np.arange(100), TIER2)
        assert tm.occupancy(TIER2) == 100
