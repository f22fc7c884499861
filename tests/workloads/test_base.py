"""Tests for the Workload base class and interleaving."""

import numpy as np
import pytest

from repro.memsim import AccessBatch, Machine, MachineConfig
from repro.workloads.base import Workload, interleave
from repro.workloads.synth import sequential_sweep


class _Toy(Workload):
    """Minimal workload: sequential sweep over the data VMA."""

    name = "toy"

    def _process_epoch(self, proc, epoch_idx, n_accesses, out):
        vma = proc.vma("data")
        out.add(vma, sequential_sweep(vma.npages, n_accesses), pid=proc.pid, cpu=proc.cpu)


def _machine():
    return Machine(MachineConfig(total_frames=1 << 16))


class TestAttach:
    def test_creates_processes_and_vmas(self):
        w = _Toy(footprint_pages=100, n_processes=4)
        w.attach(_machine())
        assert len(w.processes) == 4
        assert w.pids == [100, 101, 102, 103]
        assert all(p.vma("data").npages == 25 for p in w.processes)

    def test_double_attach_rejected(self):
        w = _Toy(footprint_pages=10)
        m = _machine()
        w.attach(m)
        with pytest.raises(RuntimeError, match="already attached"):
            w.attach(m)

    def test_epoch_before_attach_rejected(self):
        w = _Toy(footprint_pages=10)
        with pytest.raises(RuntimeError, match="not attached"):
            w.epoch(0, np.random.default_rng(0))

    def test_cpu_assignment_round_robin(self):
        w = _Toy(footprint_pages=100, n_processes=8)
        w.attach(_machine())
        cpus = [p.cpu for p in w.processes]
        assert cpus == [0, 1, 2, 3, 4, 5, 0, 1]

    def test_bad_params(self):
        with pytest.raises(ValueError):
            _Toy(footprint_pages=2, n_processes=4)
        with pytest.raises(ValueError):
            _Toy(footprint_pages=4, n_processes=0)


class TestEpoch:
    def test_total_accesses_close_to_config(self):
        w = _Toy(footprint_pages=64, n_processes=4, accesses_per_epoch=1000)
        w.attach(_machine())
        b = w.epoch(0, np.random.default_rng(0))
        assert b.n == 1000

    def test_all_pids_present(self):
        w = _Toy(footprint_pages=64, n_processes=4, accesses_per_epoch=1000)
        w.attach(_machine())
        b = w.epoch(0, np.random.default_rng(0))
        assert set(np.unique(b.pid)) == set(w.pids)

    def test_deterministic_under_seed(self):
        def gen():
            w = _Toy(footprint_pages=64, n_processes=3, accesses_per_epoch=500)
            w.attach(_machine())
            return w.epoch(0, np.random.default_rng(42))

        a, b = gen(), gen()
        np.testing.assert_array_equal(a.vaddr, b.vaddr)
        np.testing.assert_array_equal(a.pid, b.pid)

    def test_machine_executes_without_faults(self):
        m = _machine()
        w = _Toy(footprint_pages=64, n_processes=4, accesses_per_epoch=1000)
        w.attach(m)
        r = m.run_batch(w.epoch(0, np.random.default_rng(0)))
        assert r.n == 1000


class TestInterleave:
    def _stream(self, pid, n):
        return AccessBatch.from_pages(np.arange(n, dtype=np.uint64), pid=pid)

    def test_preserves_per_stream_order(self):
        rng = np.random.default_rng(0)
        out = interleave([self._stream(1, 1000), self._stream(2, 1000)], rng, chunk=64)
        for pid in (1, 2):
            sub = out.vaddr[out.pid == pid] >> 12
            np.testing.assert_array_equal(sub, np.arange(1000))

    def test_actually_interleaves(self):
        rng = np.random.default_rng(0)
        out = interleave([self._stream(1, 1000), self._stream(2, 1000)], rng, chunk=64)
        # The two streams alternate rather than concatenate.
        first_half_pids = set(np.unique(out.pid[:1000]))
        assert first_half_pids == {1, 2}

    def test_single_stream_passthrough(self):
        s = self._stream(1, 10)
        out = interleave([s], np.random.default_rng(0))
        assert out is s

    def test_empty_inputs(self):
        assert interleave([], np.random.default_rng(0)).n == 0
        assert interleave([AccessBatch.empty()], np.random.default_rng(0)).n == 0

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        out = interleave(
            [self._stream(1, 333), self._stream(2, 77), self._stream(3, 500)],
            rng,
            chunk=50,
        )
        assert out.n == 910
        assert int((out.pid == 2).sum()) == 77
