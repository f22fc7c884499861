"""Per-workload behavioural tests for the Table III suite."""

import numpy as np
import pytest

from repro.memsim import Machine, MachineConfig
from repro.workloads import (
    WORKLOAD_NAMES,
    DataCaching,
    Graph500,
    GUPS,
    WebServing,
    XSBench,
    make_workload,
    paper_suite,
)


def _machine():
    return Machine(MachineConfig.scaled())


def _run_epochs(name, n_epochs=2, seed=0, **kw):
    m = _machine()
    w = make_workload(name, **kw)
    w.attach(m)
    rng = np.random.default_rng(seed)
    results = [m.run_batch(w.epoch(e, rng)) for e in range(n_epochs)]
    return m, w, results


def _access_counts(results):
    """Per-frame accesses summed over the batches (the frame space is
    mapped at attach, so every batch counts the same frames)."""
    return sum(r.frame_counts.access for r in results)


class TestRegistry:
    def test_all_eight_present(self):
        assert len(WORKLOAD_NAMES) == 8
        assert set(WORKLOAD_NAMES) == {
            "data-analytics",
            "data-caching",
            "graph500",
            "graph-analytics",
            "gups",
            "lulesh",
            "web-serving",
            "xsbench",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            make_workload("nope")

    def test_paper_suite_instantiates(self):
        suite = paper_suite(scale=0.1)
        assert set(suite) == set(WORKLOAD_NAMES)

    def test_scale_shrinks_footprint(self):
        big = make_workload("gups", scale=1.0)
        small = make_workload("gups", scale=0.1)
        assert small.footprint_pages < big.footprint_pages

    def test_scale_floor(self):
        tiny = make_workload("graph500", scale=1e-9)
        assert tiny.footprint_pages >= 256


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestEveryWorkload:
    def test_executes_two_epochs(self, name):
        _, _, results = _run_epochs(name)
        assert all(r.n > 0 for r in results)

    def test_deterministic(self, name):
        _, _, r1 = _run_epochs(name, seed=7)
        _, _, r2 = _run_epochs(name, seed=7)
        np.testing.assert_array_equal(r1[0].pfn, r2[0].pfn)
        np.testing.assert_array_equal(r1[1].tlb_hit, r2[1].tlb_hit)

    def test_paper_process_counts(self, name):
        expected = {
            "data-analytics": 33,
            "data-caching": 12,
            "graph500": 8,
            "graph-analytics": 17,
            "gups": 8,
            "lulesh": 8,
            "web-serving": 15,
            "xsbench": 8,
        }
        w = make_workload(name)
        assert w.n_processes == expected[name]


class TestGUPSCharacter:
    def test_sparse_random_updates(self):
        m, w, results = _run_epochs("gups")
        r = results[1]
        # GUPS: high TLB miss rate even warm, high memory fraction.
        assert (1 - r.tlb_hit.mean()) > 0.3
        assert r.mem_mask.mean() > 0.7

    def test_rmw_store_fraction(self):
        _, w, _ = _run_epochs("gups")
        m2 = _machine()
        w2 = GUPS()
        w2.attach(m2)
        b = w2.epoch(0, np.random.default_rng(0))
        # ~45% stores (RMW pairs on 90% of accesses).
        assert 0.35 < b.is_store.mean() < 0.55

    def test_wide_page_coverage(self):
        m, w, results = _run_epochs("gups")
        touched = int(m.frame_stats.touched_mask().sum())
        assert touched > 0.8 * w.footprint_pages


class TestXSBenchCharacter:
    def test_thin_huge_footprint(self):
        _, _, results = _run_epochs("xsbench")
        counts = _access_counts(results)
        touched = counts[counts > 0]
        # Footprint dwarfs per-epoch touches; per-page counts stay tiny.
        assert np.median(touched) <= 8

    def test_highest_tlb_hostility(self):
        _, _, r_xs = _run_epochs("xsbench")
        _, _, r_ws = _run_epochs("web-serving")
        assert (1 - r_xs[1].tlb_hit.mean()) > 3 * (1 - r_ws[1].tlb_hit.mean())


class TestWebServingCharacter:
    def test_low_memory_intensity(self):
        _, _, results = _run_epochs("web-serving")
        assert results[1].mem_mask.mean() < 0.6

    def test_load_wave_intensity_varies(self):
        m = _machine()
        w = WebServing()
        w.attach(m)
        rng = np.random.default_rng(0)
        sizes = [w.epoch(e, rng).n for e in range(5)]
        assert max(sizes) > 3 * min(sizes)

    def test_session_churn_touches_fresh_pages(self):
        m = _machine()
        w = WebServing()
        w.attach(m)
        rng = np.random.default_rng(0)
        m.run_batch(w.epoch(0, rng))
        before = m.frame_stats.touched_mask().sum()
        m.run_batch(w.epoch(1, rng))
        after = m.frame_stats.touched_mask().sum()
        assert after > before  # new session pages every epoch

    def test_session_touches_must_be_positive(self):
        # Zero touches once constructed and then divided by zero in the
        # first epoch.
        with pytest.raises(ValueError, match="session_touches"):
            WebServing(session_touches=0)


class TestGraph500Character:
    def test_bfs_wave_intensity(self):
        m = _machine()
        w = Graph500()
        w.attach(m)
        rng = np.random.default_rng(0)
        sizes = [w.epoch(e, rng).n for e in range(5)]
        assert max(sizes) > 5 * min(sizes)

    def test_power_law_edge_popularity(self):
        _, _, results = _run_epochs("graph500", n_epochs=3)
        counts = np.sort(_access_counts(results))[::-1]
        top = counts[: max(1, counts.size // 100)].sum()
        assert top > 0.05 * counts.sum()


class TestDataCachingCharacter:
    def test_zipf_hot_head(self):
        _, _, results = _run_epochs("data-caching", n_epochs=3)
        counts = _access_counts(results)
        touched = counts[counts > 0]
        # Zipf: the hottest 10% of touched pages carry most accesses.
        s = np.sort(touched)[::-1]
        top10 = s[: max(1, s.size // 10)].sum()
        assert top10 > 0.4 * touched.sum()

    def test_set_fraction_writes(self):
        m2 = _machine()
        w2 = DataCaching()
        w2.attach(m2)
        b = w2.epoch(0, np.random.default_rng(0))
        assert 0.01 < b.is_store.mean() < 0.15


class TestLULESHCharacter:
    def test_sweep_locality(self):
        _, _, results = _run_epochs("lulesh")
        # Dwell-8 sweeps: TLB miss rate far below GUPS.
        assert (1 - results[1].tlb_hit.mean()) < 0.4

    def test_moving_window(self):
        m, w, _ = _run_epochs("lulesh", n_epochs=4)
        # Multiple epochs touch an expanding set of frames.
        assert m.frame_stats.touched_mask().sum() > 0.1 * w.footprint_pages


class TestDataAnalyticsCharacter:
    def test_hot_model_reuse(self):
        _, _, results = _run_epochs("data-analytics", n_epochs=2)
        counts = _access_counts(results)
        # Model pages are orders hotter than the scan tail.
        s = np.sort(counts[counts > 0])[::-1]
        assert s[0] > 20 * np.median(s)


class TestGraphAnalyticsCharacter:
    def test_epoch_stability_for_history_policy(self):
        m = _machine()
        w = make_workload("graph-analytics")
        w.attach(m)
        rng = np.random.default_rng(0)
        r1 = m.run_batch(w.epoch(0, rng))
        c1 = r1.frame_counts.access
        r2 = m.run_batch(w.epoch(1, rng))
        c2 = r2.frame_counts.access
        # Hot sets overlap heavily between successive epochs.
        k = max(1, m.n_frames // 20)
        hot1 = set(np.argsort(c1)[-k:])
        hot2 = set(np.argsort(c2)[-k:])
        assert len(hot1 & hot2) > 0.5 * k
