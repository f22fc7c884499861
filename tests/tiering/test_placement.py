"""Unit tests for first-come-first-allocate placement."""

import numpy as np

from repro.tiering import TIER1, TIER2, UNPLACED, make_tiers
from repro.tiering.placement import fcfa_full_placement, fcfa_place_new

NEVER = np.uint64(np.iinfo(np.uint64).max)


def _first_touch(*stamps):
    return np.array([NEVER if s is None else s for s in stamps], dtype=np.uint64)


class TestFcfaPlaceNew:
    def test_fills_tier1_in_touch_order(self):
        tm = make_tiers(4, 2)
        ft = _first_touch(30, 10, 20, 40)
        placed = fcfa_place_new(tm, ft, ft != NEVER)
        assert placed == 4
        # Pages 1 (t=10) and 2 (t=20) got the fast tier.
        np.testing.assert_array_equal(tm.tier1_pages(), [1, 2])
        np.testing.assert_array_equal(np.flatnonzero(tm.tier_of == TIER2), [0, 3])

    def test_untouched_stay_unplaced(self):
        tm = make_tiers(3, 2)
        ft = _first_touch(5, None, 7)
        fcfa_place_new(tm, ft, ft != NEVER)
        assert tm.tier_of[1] == UNPLACED

    def test_incremental_placement(self):
        tm = make_tiers(4, 2)
        ft = _first_touch(10, None, None, None)
        fcfa_place_new(tm, ft, ft != NEVER)
        assert tm.occupancy(TIER1) == 1
        # Page 2 touched later: takes the last tier1 slot.
        ft2 = _first_touch(10, None, 50, None)
        placed = fcfa_place_new(tm, ft2, ft2 != NEVER)
        assert placed == 1
        np.testing.assert_array_equal(tm.tier1_pages(), [0, 2])

    def test_already_placed_untouched_by_second_call(self):
        tm = make_tiers(2, 1)
        ft = _first_touch(10, 20)
        fcfa_place_new(tm, ft, ft != NEVER)
        before = tm.tier_of.copy()
        assert fcfa_place_new(tm, ft, ft != NEVER) == 0
        np.testing.assert_array_equal(tm.tier_of, before)

    def test_grows_map(self):
        tm = make_tiers(2, 1)
        ft = _first_touch(10, 20, 30)
        fcfa_place_new(tm, ft, ft != NEVER)
        assert tm.n_frames == 3
        assert tm.tier_of[2] == TIER2


class TestFcfaFullPlacement:
    def test_pure_function(self):
        ft = _first_touch(30, 10, None, 20)
        tiers = fcfa_full_placement(4, 2, ft)
        assert tiers[1] == TIER1 and tiers[3] == TIER1
        assert tiers[0] == TIER2
        assert tiers[2] == UNPLACED
