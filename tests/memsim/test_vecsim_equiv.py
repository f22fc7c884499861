"""Randomized cross-checks: vectorized engines ≡ the scalar reference.

``SequentialSetAssoc`` is the golden reference — per-set MRU-ordered
lists, one Python step per access, trivially auditable.  Every test
here drives a vectorized engine and the reference through identical
operation sequences and asserts bit-identical observable state: hit
masks, flush counts, ``contains``/``contains_any`` masks, occupancy.

Coverage axes:

* geometry — ``nsets`` x ``ways`` x ``shards``, down to the degenerate
  one-set engine (pure LRU), with ``ways`` from 1 to 16;
* the set-associative look-back — rows deep enough for the scalar tail
  beside rows the vector passes decide, rows cut by block boundaries,
  holes left by shootdowns, the extreme keys, one-access batches and a
  pickled engine;
* operation mix — interleaved ``access``/``fill``/``flush_keys``/
  ``flush_where``/``contains``/``flush``, including eviction-heavy
  traces (universe >> capacity) and shootdown-heavy mixes;
* machine level — whole ``Machine``/``TieredSimulator`` runs with the
  vectorized engines vs the reference substituted for them (the
  ``reference_engines`` fixture) must yield identical per-access
  outcomes and ``EpochMetrics``.
"""

import pickle
import sys
import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro.memsim import vecsim
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
        # One set, keys cycling just past capacity: worst-case LRU churn,
        # every touch a miss found ``ways`` keys back.
        rng = np.random.default_rng(ways)
        vec = VectorSetAssoc(1, ways)
        seq = SequentialSetAssoc(1, ways)
        keys = rng.integers(0, ways + 2, 5000).astype(np.uint64)
        np.testing.assert_array_equal(vec.access(keys), seq.access(keys))
        keys = np.arange(5000, dtype=np.uint64) % (ways + 1)  # strict cycle
        np.testing.assert_array_equal(vec.access(keys), seq.access(keys))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uneven_segments_over_many_rows(self, seed):
        # Skewed touch counts over hundreds of rows, one hot row holding
        # most of a batch; halfway the engine is pickled.
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


class TestLookBack:
    """Cases the set-associative engine's look-back treats specially,
    each held to the reference."""

    @staticmethod
    def _tail_rows(monkeypatch):
        """Rows handed to the scalar tail, call by call."""
        calls = []
        replay = VectorSetAssoc._replay_segments

        def counted(self, rows, *args):
            calls.append(rows.tolist())
            return replay(self, rows, *args)

        monkeypatch.setattr(VectorSetAssoc, "_replay_segments", counted)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_deep_rows_beside_decided_rows(self, seed, monkeypatch):
        # Set 0: a hot pair alternating for longer than the look-back's
        # depth, a cold key recurring behind it — a hit only a deep look
        # finds.  Sets 1-3: random keys the vector passes decide.
        tail = self._tail_rows(monkeypatch)
        rng = np.random.default_rng(seed)
        vec, seq = VectorSetAssoc(4, 4), SequentialSetAssoc(4, 4)
        hot = np.array([4, 8], dtype=np.uint64)  # set 0
        for _ in range(3):
            deep = np.concatenate(
                [np.concatenate(([12], np.tile(hot, 60))) for _ in range(4)]
            ).astype(np.uint64)
            other = rng.integers(0, 64, 400).astype(np.uint64) * 4 + np.uint64(1)
            other += rng.integers(0, 3, 400).astype(np.uint64)
            keys = np.concatenate((deep, other))
            keys = keys[np.argsort(rng.random(keys.size), kind="stable")]
            keys[np.flatnonzero(keys % 4 == 0)] = deep  # set 0 keeps its order
            np.testing.assert_array_equal(vec.access(keys), seq.access(keys))
        assert vec.occupancy() == seq.occupancy()
        assert tail and all(rows == [0] for rows in tail)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_cut_by_block_boundaries(self, seed, monkeypatch):
        # Tiny blocks: rows are cut mid-run by the touch count and by
        # the row cap, and each part goes on from the state before it.
        monkeypatch.setattr(vecsim, "_BLOCK", 37)
        monkeypatch.setattr(vecsim, "_BLOCK_ROWS", 3)
        rng = np.random.default_rng(seed)
        vec = VectorSetAssoc(8, 4, shards=2)
        seq = SequentialSetAssoc(8, 4, shards=2)
        _drive(vec, seq, rng, universe=96, steps=10)

    @pytest.mark.parametrize("position", range(4))
    def test_holes_from_a_shootdown(self, position):
        # Four keys fill one set; shooting one down leaves a hole at its
        # recency position; the rest keep their order around it.
        vec, seq = VectorSetAssoc(2, 4), SequentialSetAssoc(2, 4)
        filled = np.array([2, 4, 6, 8], dtype=np.uint64)
        np.testing.assert_array_equal(vec.access(filled), seq.access(filled))
        assert vec.flush_keys(filled[position : position + 1]) == 1
        seq.flush_keys(filled[position : position + 1])
        for trace in ([10, 2, 12, 4, 6, 8], [8, 6, 4, 2], [2, 14, 16, 18, 6]):
            trace = np.array(trace, dtype=np.uint64)
            np.testing.assert_array_equal(vec.access(trace), seq.access(trace))
            assert vec.occupancy() == seq.occupancy()

    @pytest.mark.parametrize("seed", range(3))
    def test_holes_anywhere(self, seed):
        rng = np.random.default_rng(seed)
        vec, seq = VectorSetAssoc(4, 8, shards=3), SequentialSetAssoc(4, 8, shards=3)
        for step in range(12):
            keys = rng.integers(0, 80, 200).astype(np.uint64)
            shard = rng.integers(0, 3, 200)
            np.testing.assert_array_equal(
                vec.access(keys, shard), seq.access(keys, shard), err_msg=f"{step}"
            )
            doomed = keys[rng.integers(0, keys.size, 6)]
            assert vec.flush_keys(doomed) == seq.flush_keys(doomed)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ways", [1, 2, 4, 8, 16])
    def test_ways(self, ways, seed):
        rng = np.random.default_rng(seed * 100 + ways)
        vec = VectorSetAssoc(4, ways, shards=2)
        seq = SequentialSetAssoc(4, ways, shards=2)
        _drive(vec, seq, rng, universe=8 * ways, steps=10)

    def test_extreme_keys(self):
        # 0 and 2**64 - 1, beside keys sharing their sets: no key is
        # special, whatever the engine places between rows.
        top = 2**64 - 1
        pool = np.array(
            [0, top, 2, top - 2, 4, top - 4, 6, top - 6], dtype=np.uint64
        )
        vec, seq = VectorSetAssoc(2, 2), SequentialSetAssoc(2, 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            keys = pool[rng.integers(0, pool.size, int(rng.integers(1, 40)))]
            np.testing.assert_array_equal(vec.access(keys), seq.access(keys))
        assert vec.flush_keys(pool[:2]) == seq.flush_keys(pool[:2])
        np.testing.assert_array_equal(vec.contains(pool), seq.contains(pool))

    @pytest.mark.parametrize("ways", [1, 4])
    def test_one_access_batches(self, ways):
        rng = np.random.default_rng(ways)
        vec, seq = VectorSetAssoc(2, ways), SequentialSetAssoc(2, ways)
        for key in rng.integers(0, 4 * ways + 2, 300).astype(np.uint64):
            keys = np.array([key], dtype=np.uint64)
            np.testing.assert_array_equal(vec.access(keys), seq.access(keys))

    def test_pickled_mid_stream(self):
        rng = np.random.default_rng(7)
        vec, seq = VectorSetAssoc(16, 4, shards=2), SequentialSetAssoc(16, 4, shards=2)
        for step in range(6):
            if step in (2, 4):
                vec = pickle.loads(pickle.dumps(vec))
            keys = (rng.zipf(1.2, 3000) % 512).astype(np.uint64)
            shard = rng.integers(0, 2, keys.size)
            np.testing.assert_array_equal(
                vec.access(keys, shard), seq.access(keys, shard), err_msg=f"{step}"
            )
        assert vec.occupancy() == seq.occupancy()


    def test_threads_keep_their_own_arrays(self):
        # The look-back's working arrays are per thread: engines stepping
        # on several threads at once (the service's step executor) must
        # not write into each other's.
        errors = []

        def run(seed):
            rng = np.random.default_rng(seed)
            vec, seq = VectorSetAssoc(8, 4, shards=2), SequentialSetAssoc(8, 4, 2)
            for step in range(20):
                keys = rng.integers(0, 96, 500).astype(np.uint64)
                shard = rng.integers(0, 2, 500)
                if not np.array_equal(vec.access(keys, shard), seq.access(keys, shard)):
                    errors.append((seed, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


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
