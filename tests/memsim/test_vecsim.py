"""Unit and property tests for the lookup-structure engines.

The key invariant: ``VectorDirectMapped`` is bit-for-bit equivalent to
``SequentialSetAssoc(ways=1)`` on any access sequence, including across
batch boundaries, flushes and fills.
"""

import re
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.vecsim import VectorDirectMapped, VectorSetAssoc, make_engine

from .reference import SequentialSetAssoc, reference_engine


class TestVectorDirectMappedBasics:
    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            VectorDirectMapped(12)

    def test_cold_miss_then_hit(self):
        e = VectorDirectMapped(16)
        keys = np.array([5, 5, 5], dtype=np.uint64)
        np.testing.assert_array_equal(e.access(keys), [False, True, True])

    def test_conflict_eviction(self):
        e = VectorDirectMapped(16)
        # 5 and 21 map to the same set (mod 16): they evict each other.
        keys = np.array([5, 21, 5, 21], dtype=np.uint64)
        np.testing.assert_array_equal(e.access(keys), [False, False, False, False])

    def test_distinct_sets_no_interference(self):
        e = VectorDirectMapped(16)
        keys = np.array([1, 2, 3, 1, 2, 3], dtype=np.uint64)
        np.testing.assert_array_equal(
            e.access(keys), [False, False, False, True, True, True]
        )

    def test_state_persists_across_batches(self):
        e = VectorDirectMapped(16)
        e.access(np.array([7], dtype=np.uint64))
        assert e.access(np.array([7], dtype=np.uint64))[0]

    def test_empty_batch(self):
        e = VectorDirectMapped(16)
        assert e.access(np.zeros(0, dtype=np.uint64)).size == 0

    def test_flush(self):
        e = VectorDirectMapped(16)
        e.access(np.array([3], dtype=np.uint64))
        e.flush()
        assert not e.access(np.array([3], dtype=np.uint64))[0]
        assert e.occupancy() == 1

    def test_flush_keys(self):
        e = VectorDirectMapped(16)
        e.access(np.array([3, 4], dtype=np.uint64))
        n = e.flush_keys(np.array([3], dtype=np.uint64))
        assert n == 1
        hits = e.access(np.array([3, 4], dtype=np.uint64))
        np.testing.assert_array_equal(hits, [False, True])

    def test_flush_keys_nonresident_noop(self):
        e = VectorDirectMapped(16)
        e.access(np.array([3], dtype=np.uint64))
        assert e.flush_keys(np.array([19], dtype=np.uint64)) == 0  # same set, diff tag
        assert e.access(np.array([3], dtype=np.uint64))[0]

    def test_flush_where(self):
        e = VectorDirectMapped(16)
        e.access(np.array([1, 2, 3], dtype=np.uint64))
        n = e.flush_where(lambda tags: tags >= 2)
        assert n == 2
        hits = e.access(np.array([1, 2, 3], dtype=np.uint64))
        np.testing.assert_array_equal(hits, [True, False, False])

    def test_contains_non_mutating(self):
        e = VectorDirectMapped(16)
        e.access(np.array([9], dtype=np.uint64))
        assert e.contains(np.array([9], dtype=np.uint64))[0]
        assert not e.contains(np.array([10], dtype=np.uint64))[0]
        # contains must not install.
        assert not e.access(np.array([10], dtype=np.uint64))[0]

    def test_fill_installs_without_stats(self):
        e = VectorDirectMapped(16)
        e.fill(np.array([5], dtype=np.uint64))
        assert e.access(np.array([5], dtype=np.uint64))[0]

    def test_fill_last_wins_per_set(self):
        e = VectorDirectMapped(16)
        e.fill(np.array([5, 21], dtype=np.uint64))  # same set; 21 should stay
        hits = e.access(np.array([21], dtype=np.uint64))
        assert hits[0]

    def test_occupancy(self):
        e = VectorDirectMapped(16)
        assert e.occupancy() == 0
        e.access(np.array([1, 2, 18], dtype=np.uint64))  # 2 and 18 collide
        assert e.occupancy() == 2


class TestSequentialSetAssoc:
    def test_lru_within_set(self):
        e = SequentialSetAssoc(1, 2)  # one set, two ways
        keys = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        # 1 miss, 2 miss, 1 hit (LRU now 2), 3 evicts 2, 2 miss.
        np.testing.assert_array_equal(
            e.access(keys), [False, False, True, False, False]
        )

    def test_ways_capacity(self):
        e = SequentialSetAssoc(1, 4)
        e.access(np.arange(4, dtype=np.uint64))
        assert e.access(np.arange(4, dtype=np.uint64)).all()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SequentialSetAssoc(3, 2)
        with pytest.raises(ValueError):
            SequentialSetAssoc(4, 0)

    def test_flush_keys(self):
        e = SequentialSetAssoc(2, 2)
        e.access(np.array([1, 2, 3], dtype=np.uint64))
        assert e.flush_keys(np.array([1, 3], dtype=np.uint64)) == 2

    def test_fill_respects_capacity(self):
        e = SequentialSetAssoc(1, 2)
        e.fill(np.array([1, 2, 3], dtype=np.uint64))
        assert e.occupancy() == 2
        hits = e.access(np.array([2, 3], dtype=np.uint64))
        np.testing.assert_array_equal(hits, [True, True])


class TestMakeEngine:
    def test_default_direct_mapped(self):
        e = make_engine(64)
        assert isinstance(e, VectorDirectMapped)
        assert e.capacity == 64

    def test_exact_assoc(self):
        e = make_engine(64, ways=4, exact_assoc=True)
        assert isinstance(e, VectorSetAssoc)
        assert e.capacity == 64
        assert e.ways == 4

    def test_reference_has_the_vector_engines_geometry(self):
        # The switch is gone from ``make_engine``; the test-side
        # substitute builds the reference at the geometry asked for.
        e = reference_engine(64, ways=4, exact_assoc=True, shards=3)
        assert isinstance(e, SequentialSetAssoc)
        assert (e.capacity, e.ways, e.nsets, e.shards) == (64, 4, 16, 3)
        e = reference_engine(64)
        assert isinstance(e, SequentialSetAssoc)
        assert (e.capacity, e.ways) == (64, 1)

    def test_ways_without_exact_assoc_is_refused(self):
        # It used to return a direct-mapped engine of the full capacity
        # and say nothing.
        from repro.memsim import Machine, MachineConfig

        with pytest.raises(ValueError, match="ways=4.*exact_assoc"):
            make_engine(64, ways=4)
        for field in ("tlb_ways", "cache_ways"):
            with pytest.raises(ValueError, match="exact_assoc"):
                Machine(MachineConfig.scaled(**{field: 4}))
        Machine(MachineConfig.scaled(exact_assoc=True, tlb_ways=4, cache_ways=4))

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"l1_bytes": 32}, "l1_bytes=32, cache_ways=1: 0 entries"),
            ({"l2_bytes": 0}, "l2_bytes=0, cache_ways=1: 0 entries"),
            ({"llc_bytes": -64}, "llc_bytes=-64, cache_ways=1: -1 entries"),
            ({"tlb_entries": 0}, "tlb_entries=0, tlb_ways=1: 0 entries"),
            (
                {"exact_assoc": True, "cache_ways": 256},
                "l1_bytes=8192, cache_ways=256: capacity 128 is not divisible",
            ),
            (
                {"exact_assoc": True, "tlb_ways": 3},
                "tlb_entries=256, tlb_ways=3: capacity 256 is not divisible",
            ),
            ({"exact_assoc": True, "cache_ways": 0}, "cache_ways=0: ways must be >= 1"),
            ({"tlb_ways": 2}, "tlb_ways=2: ways=2 needs exact_assoc"),
        ],
    )
    def test_geometry_errors_name_their_field(self, fields, named):
        # They used to be "negative shift count", or a capacity error
        # that named no level.
        from repro.memsim import Machine, MachineConfig

        with pytest.raises(ValueError, match=re.escape(named)):
            Machine(MachineConfig.scaled(**fields))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            make_engine(60)
        with pytest.raises(ValueError):
            make_engine(64, ways=3, exact_assoc=True)


@st.composite
def access_trace(draw, keys_per_set=4):
    """A trace split into batches, over a small key universe."""
    nsets = draw(st.sampled_from([1, 2, 4, 8]))
    universe = draw(st.integers(min_value=1, max_value=keys_per_set * nsets))
    n_batches = draw(st.integers(min_value=1, max_value=4))
    batches = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=universe - 1),
                min_size=0,
                max_size=50,
            )
        )
        for _ in range(n_batches)
    ]
    return nsets, batches


class TextbookLRU:
    """The oracle of last resort: an ``OrderedDict`` per set, oldest first."""

    def __init__(self, nsets, ways):
        self.sets = [OrderedDict() for _ in range(nsets)]
        self.ways = ways

    def access(self, keys):
        hits = []
        for key in map(int, keys):
            lines = self.sets[key % len(self.sets)]
            hits.append(key in lines)
            lines[key] = None
            lines.move_to_end(key)
            if len(lines) > self.ways:
                lines.popitem(last=False)
        return hits


class TestTextbookLRUDifferential:
    """All three engines against the textbook, on ``access`` alone."""

    @given(access_trace(keys_per_set=10), st.sampled_from([1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_every_engine_is_textbook_lru(self, trace, ways):
        nsets, batches = trace
        engines = [VectorSetAssoc(nsets, ways), SequentialSetAssoc(nsets, ways)]
        if ways == 1:
            engines.append(VectorDirectMapped(nsets))
        oracle = TextbookLRU(nsets, ways)
        for batch in batches:
            keys = np.asarray(batch, dtype=np.uint64)
            expect = oracle.access(keys)
            for engine in engines:
                np.testing.assert_array_equal(
                    engine.access(keys), expect, err_msg=type(engine).__name__
                )


class TestEquivalenceProperty:
    @given(access_trace())
    @settings(max_examples=200, deadline=None)
    def test_vector_equals_sequential_direct_mapped(self, trace):
        """VectorDirectMapped ≡ SequentialSetAssoc(ways=1) on any trace."""
        nsets, batches = trace
        vec = VectorDirectMapped(nsets)
        seq = SequentialSetAssoc(nsets, 1)
        for batch in batches:
            keys = np.asarray(batch, dtype=np.uint64)
            np.testing.assert_array_equal(
                vec.access(keys), seq.access(keys), err_msg=f"batch={batch}"
            )
        assert vec.occupancy() == seq.occupancy()

    @given(access_trace(), st.lists(st.integers(0, 31), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_equivalence_with_flush_keys(self, trace, flushes):
        nsets, batches = trace
        vec = VectorDirectMapped(nsets)
        seq = SequentialSetAssoc(nsets, 1)
        for batch in batches:
            keys = np.asarray(batch, dtype=np.uint64)
            np.testing.assert_array_equal(vec.access(keys), seq.access(keys))
            fk = np.asarray(flushes, dtype=np.uint64)
            assert vec.flush_keys(fk) == seq.flush_keys(fk)

    @given(access_trace())
    @settings(max_examples=100, deadline=None)
    def test_hits_never_exceed_capacity_cold(self, trace):
        """First batch on a cold engine: hits require a prior access."""
        nsets, batches = trace
        vec = VectorDirectMapped(nsets)
        seen: set[int] = set()
        for batch in batches:
            keys = np.asarray(batch, dtype=np.uint64)
            hits = vec.access(keys)
            for k, h in zip(batch, hits):
                if h:
                    assert k in seen
                seen.add(k)
