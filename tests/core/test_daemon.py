"""Unit tests for the user-space daemon and numa_maps export."""

import numpy as np
import pytest

from repro.core import TMPConfig, TMPDaemon, TMProfiler, format_numa_maps
from repro.memsim import AccessBatch, Machine, MachineConfig
from repro.workloads import make_workload


def _setup():
    m = Machine(
        MachineConfig(
            total_frames=1 << 14,
            tlb_entries=64,
            ibs_period=10,
            n_cpus=1,
            ops_per_second=100.0,
        )
    )
    prof = TMProfiler(m, TMPConfig())
    return m, prof, TMPDaemon(prof)


class TestRegistration:
    def test_add_program(self):
        m, prof, d = _setup()
        entry = d.add_program("svc", [1, 2])
        assert entry.pids == [1, 2]
        assert prof.registered_pids == [1, 2]

    def test_add_program_merges_pids(self):
        m, prof, d = _setup()
        d.add_program("svc", [1])
        d.add_program("svc", [1, 2])
        assert d.programs["svc"].pids == [1, 2]

    def test_add_workload(self):
        m, prof, d = _setup()
        w = make_workload("gups", footprint_pages=512, accesses_per_epoch=1000)
        w.attach(m)
        entry = d.add_workload(w)
        assert entry.name == "gups"
        assert prof.registered_pids == w.pids


class TestPollingAndConfig:
    def test_reconfigure(self):
        m, prof, d = _setup()
        d.reconfigure(min_cpu_share=0.2)
        assert prof.config.min_cpu_share == 0.2

    def test_reconfigure_unknown_key(self):
        _, _, d = _setup()
        with pytest.raises(AttributeError):
            d.reconfigure(bogus=1)

    def test_reconfigure_unknown_key_is_atomic(self):
        _, prof, d = _setup()
        before = prof.config.min_cpu_share
        with pytest.raises(AttributeError):
            d.reconfigure(min_cpu_share=0.42, bogus=1)
        # Nothing is applied when any key is rejected.
        assert prof.config.min_cpu_share == before

    def test_reconfigure_routes_trace_sample_period(self):
        m, prof, d = _setup()
        d.reconfigure(trace_sample_period=5)
        # The change reaches the live sampler, not just the config.
        assert m.ibs.period == 5

    def test_reconfigure_mixes_config_and_driver_keys(self):
        m, prof, d = _setup()
        d.reconfigure(trace_sample_period=7, min_mem_share=0.25)
        assert m.ibs.period == 7
        assert prof.config.min_mem_share == 0.25

    def test_reconfigure_invalid_trace_period_is_atomic(self):
        # Regression: an invalid trace_sample_period used to be applied
        # *after* the plain config fields were already mutated, leaving
        # a half-applied config behind the ValueError.
        m, prof, d = _setup()
        before_share = prof.config.min_cpu_share
        before_period = m.ibs.period
        with pytest.raises(ValueError):
            d.reconfigure(min_cpu_share=0.42, trace_sample_period=0)
        assert prof.config.min_cpu_share == before_share
        assert m.ibs.period == before_period

    def test_reconfigure_non_integer_trace_period_is_atomic(self):
        m, prof, d = _setup()
        before = prof.config.min_mem_share
        with pytest.raises((TypeError, ValueError)):
            d.reconfigure(min_mem_share=0.33, trace_sample_period="fast")
        assert prof.config.min_mem_share == before

    def test_trace_source_frozen(self):
        _, prof, d = _setup()
        with pytest.raises(ValueError):
            d.reconfigure(trace_source="pebs")
        assert prof.config.trace_source == "ibs"

    def test_set_trace_period(self):
        m, prof, d = _setup()
        d.set_trace_period(5)
        assert m.ibs.period == 5


class TestStatistics:
    def test_statistics_keys(self):
        m, prof, d = _setup()
        vma = m.mmap(1, 32)
        d.add_program("p", [1])
        b = AccessBatch.from_pages(vma.vpns, pid=1)
        prof.observe_batch(b, m.run_batch(b))
        prof.end_epoch()
        s = d.statistics()
        assert s["epochs"] == 1
        assert s["programs"] == ["p"]
        assert s["pages_detected_abit"] == 32
        assert s["abit_scans"] == 1
        assert 0 <= s["overhead_fraction"] < 1


class TestNumaMaps:
    def test_format_one_pid(self):
        m, prof, d = _setup()
        vma = m.mmap(1, 32, name="heap")
        d.add_program("p", [1])
        b = AccessBatch.from_pages(vma.vpns, pid=1, is_store=True)
        prof.observe_batch(b, m.run_batch(b))
        prof.end_epoch()
        text = format_numa_maps(m, prof.store, 1)
        assert "heap" in text
        assert "anon=32" in text
        assert "dirty=32" in text
        assert "abit=32" in text

    def test_unknown_pid(self):
        m, prof, _ = _setup()
        with pytest.raises(KeyError):
            format_numa_maps(m, prof.store, 404)

    def test_daemon_numa_maps_all(self):
        m, prof, d = _setup()
        m.mmap(1, 8)
        m.mmap(2, 8)
        text = d.numa_maps()
        assert "# pid 1" in text and "# pid 2" in text

    def test_hottest_page_reported(self):
        m, prof, d = _setup()
        vma = m.mmap(1, 8, name="heap")
        d.add_program("p", [1])
        # Spread the hot page's accesses across lines so they reach
        # memory (cache-resident reuse is deliberately not counted).
        rng = np.random.default_rng(0)
        hot = np.repeat(vma.vpns[3:4], 50)
        offsets = np.concatenate(
            [np.zeros(8, dtype=np.int64), rng.permutation(50) * 64]
        )
        b = AccessBatch.from_pages(np.concatenate([vma.vpns, hot]), pid=1, offset=offsets)
        prof.observe_batch(b, m.run_batch(b))
        prof.end_epoch()
        text = format_numa_maps(m, prof.store, 1)
        expected = hex((vma.start_vpn + 3) << 12)
        assert f"hottest={expected}" in text
