"""Randomized cross-checks: vectorized engines ≡ the scalar reference.

``SequentialSetAssoc`` is the golden reference — per-set MRU-ordered
lists, one Python step per access, trivially auditable.  Every test
here drives a vectorized engine and the reference through identical
operation sequences and asserts bit-identical observable state: hit
masks, flush counts, ``contains``/``contains_any`` masks, occupancy.

Coverage axes:

* geometry — ``nsets`` x ``ways`` x ``shards``, down to the degenerate
  one-set engine (pure LRU) where the rounds loop's scalar tail does
  all the work;
* operation mix — interleaved ``access``/``fill``/``flush_keys``/
  ``flush_where``/``contains``/``flush``, including eviction-heavy
  traces (universe >> capacity) and shootdown-heavy mixes;
* machine level — whole ``Machine``/``TieredSimulator`` runs with the
  vectorized engines vs the reference substituted for them (the
  ``reference_engines`` fixture) must yield identical per-access
  outcomes and ``EpochMetrics``.
"""

import pickle
from contextlib import nullcontext

import numpy as np
import pytest

from repro.memsim.vecsim import VectorDirectMapped, VectorSetAssoc

from .reference import SequentialSetAssoc

SEEDS = range(6)
GEOMETRIES = [(1, 2, 1), (1, 4, 1), (2, 1, 1), (8, 4, 1), (8, 2, 6), (64, 4, 2)]


def _drive(vec, seq, rng, universe, *, flush_weight=1, steps=8, batch_max=300):
    """Interleave random operations, asserting equivalence after each."""
    ops = ["access", "access", "fill", "contains"] + [
        "flush_keys",
        "flush_where",
        "flush_all",
    ] * flush_weight
    shards = vec.shards
    for step in range(steps):
        op = ops[int(rng.integers(0, len(ops)))]
        n = int(rng.integers(0, batch_max))
        keys = rng.integers(0, universe, n).astype(np.uint64)
        shard = rng.integers(0, shards, n) if shards > 1 else None
        if op == "access":
            np.testing.assert_array_equal(
                vec.access(keys, shard), seq.access(keys, shard), err_msg=f"step {step}"
            )
        elif op == "fill":
            vec.fill(keys, shard)
            seq.fill(keys, shard)
        elif op == "contains":
            np.testing.assert_array_equal(
                vec.contains(keys, shard), seq.contains(keys, shard)
            )
            np.testing.assert_array_equal(
                vec.contains_any(keys), seq.contains_any(keys)
            )
        elif op == "flush_keys":
            fk = rng.integers(0, universe, int(rng.integers(0, 24))).astype(np.uint64)
            assert vec.flush_keys(fk) == seq.flush_keys(fk)
        elif op == "flush_where":
            t = np.uint64(rng.integers(0, universe))
            assert vec.flush_where(lambda x: x >= t) == seq.flush_where(
                lambda x: x >= t
            )
        else:
            vec.flush()
            seq.flush()
        assert vec.occupancy() == seq.occupancy(), f"step {step}"


class TestSetAssocEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("nsets,ways,shards", GEOMETRIES)
    def test_interleaved_ops(self, nsets, ways, shards, seed):
        rng = np.random.default_rng(seed * 1000 + nsets * 10 + ways)
        vec = VectorSetAssoc(nsets, ways, shards)
        seq = SequentialSetAssoc(nsets, ways, shards)
        universe = int(rng.integers(2, 6 * nsets * ways + 2))
        _drive(vec, seq, rng, universe)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eviction_heavy(self, seed):
        # Universe 16x capacity: nearly every access evicts.
        rng = np.random.default_rng(seed)
        vec = VectorSetAssoc(8, 4)
        seq = SequentialSetAssoc(8, 4)
        for _ in range(6):
            keys = rng.integers(0, 512, 400).astype(np.uint64)
            np.testing.assert_array_equal(vec.access(keys), seq.access(keys))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shootdown_heavy(self, seed):
        rng = np.random.default_rng(seed + 100)
        vec = VectorSetAssoc(8, 2, shards=4)
        seq = SequentialSetAssoc(8, 2, shards=4)
        _drive(vec, seq, rng, universe=64, flush_weight=4, steps=12)

    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    def test_single_set_alternation(self, ways):
        # One set, keys cycling just past capacity: worst-case LRU churn
        # resolved almost entirely by the scalar-tail path.
        rng = np.random.default_rng(ways)
        vec = VectorSetAssoc(1, ways)
        seq = SequentialSetAssoc(1, ways)
        keys = rng.integers(0, ways + 2, 5000).astype(np.uint64)
        np.testing.assert_array_equal(vec.access(keys), seq.access(keys))
        keys = np.arange(5000, dtype=np.uint64) % (ways + 1)  # strict cycle
        np.testing.assert_array_equal(vec.access(keys), seq.access(keys))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uneven_segments_over_many_rows(self, seed):
        # Skewed touch counts over hundreds of rows: vector rounds over
        # the longest-first prefix still live, then the scalar tail;
        # halfway the engine is pickled, which drops the round scratch.
        rng = np.random.default_rng(seed)
        vec = VectorSetAssoc(128, 4, shards=2)
        seq = SequentialSetAssoc(128, 4, shards=2)
        for step in range(4):
            keys = (rng.zipf(1.3, 6000) % 4096).astype(np.uint64)
            shard = rng.integers(0, 2, keys.size)
            np.testing.assert_array_equal(
                vec.access(keys, shard), seq.access(keys, shard), err_msg=f"step {step}"
            )
            if step == 1:
                vec = pickle.loads(pickle.dumps(vec))
        assert vec.occupancy() == seq.occupancy()

    def test_repeat_runs_collapse_to_hits(self):
        # Adjacent same-key repeats are hits and advance recency: after
        # [a a a b], a must be MRU-ranked above nothing but b.
        vec = VectorSetAssoc(1, 2)
        seq = SequentialSetAssoc(1, 2)
        trace = np.array([5, 5, 5, 9, 5, 7, 9], dtype=np.uint64)
        np.testing.assert_array_equal(vec.access(trace), seq.access(trace))

    def test_state_carries_across_batches(self):
        rng = np.random.default_rng(0)
        vec = VectorSetAssoc(4, 2)
        seq = SequentialSetAssoc(4, 2)
        for _ in range(10):
            keys = rng.integers(0, 32, int(rng.integers(0, 50))).astype(np.uint64)
            np.testing.assert_array_equal(vec.access(keys), seq.access(keys))


class TestDirectMappedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shards", [1, 3, 6])
    def test_interleaved_ops(self, shards, seed):
        rng = np.random.default_rng(seed * 31 + shards)
        vec = VectorDirectMapped(16, shards=shards)
        seq = SequentialSetAssoc(16, 1, shards=shards)
        _drive(vec, seq, rng, universe=80)

    #: (nsets, shards): ``nsets * shards`` = 49152 (the unscaled L2:
    #: uint16 rows, and ``int16 cpu * nsets`` would wrap), 65536 (the
    #: last geometry with uint16 rows; with one shard the truncating
    #: cast is the whole mask) and 131072 (intp rows).
    WIDE_GEOMETRIES = [(8192, 6), (16384, 4), (65536, 1), (32768, 4)]

    @staticmethod
    def _aliasing_keys(rng, nsets, n):
        """Keys that collide: few sets (both ends of the range), tags
        differing only above the index bits, up to bit 63."""
        sets = np.concatenate(([0, nsets - 1], rng.integers(0, nsets, 10)))
        high = np.array([0, nsets, 1 << 16, 1 << 40, 1 << 63], dtype=np.uint64)
        return sets[rng.integers(0, sets.size, n)].astype(np.uint64) | high[
            rng.integers(0, high.size, n)
        ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("nsets,shards", WIDE_GEOMETRIES)
    def test_both_sides_of_the_16_bit_line(self, nsets, shards, seed):
        rng = np.random.default_rng(seed * 7 + shards)
        vec = VectorDirectMapped(nsets, shards=shards)
        seq = SequentialSetAssoc(nsets, 1, shards=shards)
        assert vec._row_dtype is (np.uint16 if nsets * shards <= 65536 else np.intp)
        for step in range(6):
            n = int(rng.integers(1, 400))
            keys = self._aliasing_keys(rng, nsets, n)
            # The machine's cpu column is int16, highest shard included.
            shard = rng.integers(0, shards, n).astype(np.int16)
            shard[0] = shards - 1
            if step == 3:
                vec.fill(keys, shard)
                seq.fill(keys, shard)
            np.testing.assert_array_equal(
                vec.access(keys, shard), seq.access(keys, shard), err_msg=f"step {step}"
            )
            np.testing.assert_array_equal(
                vec.contains(keys, shard), seq.contains(keys, shard)
            )
            assert vec.occupancy() == seq.occupancy()
            if step == 4:
                assert vec.flush_keys(keys[:5]) == seq.flush_keys(keys[:5])

    @pytest.mark.parametrize("cpus", [[0, 1, 2, 3], [4, 5, -1, -2], [7, 300, -300, 1]])
    def test_raw_cpu_ids_fold_like_a_modulo(self, cpus):
        from repro.memsim.cache import CacheHierarchy
        from repro.memsim.tlb import TLBArray
        from repro.memsim.vecsim import fold_shards

        cpus = np.array(cpus * 8, dtype=np.int16)
        folded = cpus.astype(np.int64) % 3
        np.testing.assert_array_equal(fold_shards(cpus, 3), folded)
        if (cpus == folded).all():
            assert fold_shards(cpus, 3) is cpus  # in range: handed back as is
        lines = np.arange(cpus.size, dtype=np.uint64) % np.uint64(5)
        pids = np.ones(cpus.size, dtype=np.int32)
        raw, pre, ref = (TLBArray(n_cpus=3, entries=16) for _ in range(3))
        expect = ref.access(pids, lines, folded)
        np.testing.assert_array_equal(raw.access(pids, lines, cpus), expect)
        np.testing.assert_array_equal(
            pre.access(pids, lines, shard=folded.astype(np.int16)), expect
        )
        raw, pre, ref = (CacheHierarchy(512, 2048, 8192, n_cpus=3) for _ in range(3))
        expect = ref.access(lines, folded)
        np.testing.assert_array_equal(raw.access(lines, cpus), expect)
        np.testing.assert_array_equal(
            pre.access(lines, shard=folded.astype(np.int16)), expect
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vector_set_assoc_ways1_matches_direct_mapped(self, seed):
        # ways=1 set-assoc degenerates to direct-mapped exactly.
        rng = np.random.default_rng(seed)
        a = VectorSetAssoc(16, 1)
        b = VectorDirectMapped(16)
        for _ in range(5):
            keys = rng.integers(0, 64, int(rng.integers(0, 200))).astype(np.uint64)
            np.testing.assert_array_equal(a.access(keys), b.access(keys))
        assert a.occupancy() == b.occupancy()


def _isin_flush_keys(engine, keys) -> int:
    """``flush_keys`` as one membership test over every resident tag."""
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size == 0:
        return 0
    doomed = engine._valid & np.isin(engine._tags, keys)
    n = int(np.count_nonzero(doomed))
    engine._valid[doomed] = False
    return n


def _isin_contains_any(engine, keys) -> np.ndarray:
    return np.isin(np.asarray(keys, dtype=np.uint64), engine._tags[engine._valid])


class TestSetProbesEqualMembership:
    """``flush_keys`` / ``contains_any`` probe each key's own set on
    every shard; a membership test over every resident tag is the
    definition they must equal — counts, masks and the state left."""

    ENGINES = [
        lambda shards: VectorDirectMapped(16, shards),
        lambda shards: VectorDirectMapped(32768, shards),  # intp rows past 1 shard
        lambda shards: VectorSetAssoc(8, 4, shards),
        lambda shards: VectorSetAssoc(1, 2, shards),
    ]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shards", [1, 3, 6])
    @pytest.mark.parametrize("engine", range(len(ENGINES)))
    def test_probe_equals_isin(self, engine, shards, seed):
        rng = np.random.default_rng(seed * 100 + shards * 10 + engine)
        probed, member = (self.ENGINES[engine](shards) for _ in range(2))
        # TLB-shaped keys (pid << 48 | vpn), both small and high tags.
        pids = np.array([1, 7, 1 << 15], dtype=np.uint64) << np.uint64(48)
        for step in range(10):
            n = int(rng.integers(1, 200))
            keys = pids[rng.integers(0, pids.size, n)] | rng.integers(
                0, 96, n
            ).astype(np.uint64)
            shard = rng.integers(0, shards, n) if shards > 1 else None
            np.testing.assert_array_equal(
                probed.access(keys, shard), member.access(keys, shard)
            )
            # Resident keys (repeated), absent ones and an empty list.
            absent = pids[0] | np.arange(1000, 1005, dtype=np.uint64)
            k = int(rng.integers(0, 40))
            probe = np.concatenate((keys[rng.integers(0, n, k)], absent[: k % 6]))
            rng.shuffle(probe)
            np.testing.assert_array_equal(
                probed.contains_any(probe), _isin_contains_any(member, probe)
            )
            got = probed.flush_keys(probe)
            assert got == _isin_flush_keys(member, probe), f"step {step}"
            np.testing.assert_array_equal(probed._valid, member._valid)
            assert probed.occupancy() == member.occupancy()
        probed.access(keys, shard), member.access(keys, shard)
        assert probed.flush_keys(keys) == _isin_flush_keys(member, keys) > 0
        assert probed.occupancy() == member.occupancy()


class TestMachineLevelEquivalence:
    """The whole pipeline, vectorized vs golden-reference engines."""

    def _run_pair(self, reference_engines, **config_kw):
        from repro.memsim import AccessBatch, Machine, MachineConfig

        results = []
        for engines in (nullcontext, reference_engines):
            cfg = MachineConfig.scaled(**config_kw)
            with engines():
                m = Machine(cfg)
            assert isinstance(m.tlb._engine, SequentialSetAssoc) == (
                engines is reference_engines
            )
            vma = m.mmap(1, 512)
            rng = np.random.default_rng(0)
            outs = []
            for _ in range(3):
                n = 4000
                batch = AccessBatch.from_pages(
                    rng.choice(vma.vpns, n),
                    pid=1,
                    cpu=rng.integers(0, cfg.n_cpus, n).astype(np.int16),
                    is_store=rng.random(n) < 0.3,
                    offset=(rng.integers(0, 64, n) << 6).astype(np.uint64),
                )
                outs.append(m.run_batch(batch))
            results.append((m, outs))
        return results

    @pytest.mark.parametrize(
        "config_kw",
        [
            {},  # default direct-mapped
            {"exact_assoc": True, "tlb_ways": 4, "cache_ways": 4},
            {"exact_assoc": True, "tlb_ways": 8, "cache_ways": 2},
        ],
        ids=["direct", "ways4", "mixed"],
    )
    def test_run_batch_bit_identical(self, config_kw, reference_engines):
        (m_vec, out_vec), (m_ref, out_ref) = self._run_pair(
            reference_engines, **config_kw
        )
        for rv, rr in zip(out_vec, out_ref):
            np.testing.assert_array_equal(rv.tlb_hit, rr.tlb_hit)
            np.testing.assert_array_equal(rv.data_source, rr.data_source)
            np.testing.assert_array_equal(rv.pfn, rr.pfn)
            assert rv.raw_events == rr.raw_events
            assert rv.cycles == rr.cycles
        assert m_vec.tlb.stats == m_ref.tlb.stats
        assert m_vec.caches.miss_counts() == m_ref.caches.miss_counts()

    @pytest.mark.parametrize("exact", [False, True], ids=["direct", "ways4"])
    def test_simulator_epoch_metrics_identical(self, exact, reference_engines):
        from repro.memsim import MachineConfig
        from repro.tiering import TieredSimulator
        from repro.tiering.policies import POLICIES
        from repro.workloads import make_workload

        results = []
        for engines in (nullcontext, reference_engines):
            kw = {"exact_assoc": True, "tlb_ways": 4, "cache_ways": 4} if exact else {}
            with engines():
                sim = TieredSimulator(
                    make_workload("gups", footprint_pages=512, accesses_per_epoch=4000),
                    POLICIES["history"](),
                    machine_config=MachineConfig.scaled(ibs_period=64, **kw),
                    seed=3,
                )
            assert isinstance(sim.machine.caches.llc._engine, SequentialSetAssoc) == (
                engines is reference_engines
            )
            sim.start()
            sim.step(3)
            results.append(sim.result)
        vec, ref = results
        assert len(vec.epochs) == len(ref.epochs)
        for ev, er in zip(vec.epochs, ref.epochs):
            assert ev == er
