"""Unit tests for ProfiledRun, the one execute-and-profile epoch loop."""

import numpy as np
import pytest

from repro.core import EpochRecord, ProfiledRun, TMPConfig
from repro.memsim import MachineConfig
from repro.tiering import record_run
from repro.workloads import make_workload


def _run(wname="web-serving", **kw):
    kw.setdefault("machine_config", MachineConfig.scaled(ibs_period=16))
    return ProfiledRun(make_workload(wname, accesses_per_epoch=8_000), **kw)


def _count_calls(owner, attr, calls):
    """Wrap a bound method on the live instance, as the e2e tracer does."""
    inner = getattr(owner, attr)

    def wrapped(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((attr, result))
        return result

    setattr(owner, attr, wrapped)


class TestConstruction:
    def test_owns_attached_workload_and_profiler(self):
        run = _run(seed=3, epoch_slices=2)
        assert run.profiler.machine is run.machine
        assert run.profiler.registered_pids == sorted(run.workload.pids)
        assert run.epochs_run == 0 and run.event_totals == {}

    def test_bad_slices(self):
        with pytest.raises(ValueError, match="epoch_slices"):
            _run(epoch_slices=0)


class TestPopulate:
    def test_discards_one_profile_and_drains_write_log(self):
        run = _run(machine_config=MachineConfig.scaled(enable_pml=True))
        run.populate()
        assert len(run.profiler.reports) == 1
        assert run.epochs_run == 0
        # The population stream writes every page: the log saw them, and
        # both the log and the D bits are re-armed for epoch 0.
        assert run.machine.pml.stats.logged > 0
        assert run.machine.pml.pending == 0
        for pt in run.machine.page_tables.values():
            assert run.machine.pml.clear_dirty(pt) == 0
        assert run.machine.frame_stats.touched_mask().all()

    def test_runs_as_one_batch_whatever_the_slicing(self):
        run = _run(epoch_slices=4)
        calls = []
        _count_calls(run.machine, "run_batch", calls)
        _count_calls(run.profiler, "tick", calls)
        run.populate()
        assert [name for name, _ in calls] == ["run_batch"]


class TestRunEpoch:
    def test_record_shape_and_numbering(self):
        run = _run()
        run.populate()
        first = run.run_epoch()
        # Checked while that report is the newest: older ones give
        # their arrays up (TestReportsRetention).
        assert first.profile is run.profiler.reports[-1].profile
        second = run.run_epoch()
        assert isinstance(first, EpochRecord)
        assert (first.epoch, second.epoch, run.epochs_run) == (0, 1, 2)
        n = run.machine.n_frames
        for arr in (first.counts, first.mem_counts, first.tlb_counts):
            assert arr.size == n and arr.dtype == np.int64
        assert first.counts.sum() == first.accesses
        assert first.overhead_s == run.profiler.reports[-2].overhead.total_s

    def test_write_set_only_when_pml_is_on(self):
        off = _run()
        assert off.run_epoch().dirty_pages is None
        on = _run(machine_config=MachineConfig.scaled(enable_pml=True))
        dirty = on.run_epoch().dirty_pages
        assert dirty.dtype == np.int64 and dirty.size > 0
        assert on.machine.pml.pending == 0

    @pytest.mark.parametrize("slices", [1, 2, 5])
    def test_k_slices_give_k_minus_one_ticks(self, slices):
        """One machine pass per epoch: the walks run once per slice with
        a ``tick`` between slices; the TLB is looked up once."""
        calls, rec = self._counted_epoch(slices, shootdown=False)
        names = [name for name, _ in calls]
        assert names.count("epoch") == names.count("end_epoch") == 1
        assert names.count("run_batch") == names.count("observe_batch") == 1
        assert names.count("record") == names.count("access") == 1
        assert names.count("tick") == slices - 1
        assert names.count("fill_walks") == names.count("dirty_updates") == slices
        # Each tick comes after its slice's walks and before the next's.
        walks_and_ticks = [n for n in names if n in ("fill_walks", "tick")]
        assert walks_and_ticks == ["fill_walks", "tick"] * (slices - 1) + ["fill_walks"]
        assert sum(r.n for name, r in calls if name == "run_batch") == rec.accesses

    @pytest.mark.parametrize("slices", [1, 2, 5])
    def test_a_shootdown_scan_cuts_the_tlb_lookups(self, slices):
        """A scan that shoots translations down changes what the next
        slice finds in the TLB, so each slice looks up on its own —
        still inside the one ``run_batch``."""
        calls, _ = self._counted_epoch(slices, shootdown=True)
        names = [name for name, _ in calls]
        assert names.count("run_batch") == names.count("record") == 1
        assert names.count("access") == names.count("fill_walks") == slices
        looked_up = [n for n in names if n in ("access", "tick")]
        assert looked_up == ["access", "tick"] * (slices - 1) + ["access"]

    @staticmethod
    def _counted_epoch(slices, *, shootdown):
        run = _run(epoch_slices=slices, tmp_config=TMPConfig(abit_shootdown=shootdown))
        m = run.machine
        calls = []
        for owner, attr in (
            (run.workload, "epoch"),
            (m, "run_batch"),
            (m.tlb, "access"),
            (m.ptw, "fill_walks"),
            (m.ptw, "dirty_updates"),
            (m.frame_stats, "record"),
            (run.profiler, "observe_batch"),
            (run.profiler, "tick"),
            (run.profiler, "end_epoch"),
        ):
            _count_calls(owner, attr, calls)
        return calls, run.run_epoch()

    def test_machine_methods_are_looked_up_on_the_instance_at_every_call(self):
        """The e2e tracer replaces these after construction; a cached
        bound method or a private fast path would leave its span empty."""
        run = _run(epoch_slices=2)
        m = run.machine
        calls = []
        for owner, attr in (
            (m.tlb, "access"),
            (m.caches, "access"),
            (m.ptw, "fill_walks"),
            (m.ptw, "dirty_updates"),
            (m.ibs, "observe"),
            (m.pebs, "observe"),
            (m.lwp, "observe"),
            (m.frame_stats, "record"),
            (run.profiler, "observe_batch"),
            (run.profiler, "tick"),
        ):
            _count_calls(owner, attr, calls)
        run.run_epoch()
        names = [name for name, _ in calls]
        assert names.count("access") == 2  # the TLB and the caches, once
        assert names.count("observe") == 3
        assert names.count("record") == names.count("observe_batch") == 1
        assert names.count("fill_walks") == names.count("dirty_updates") == 2
        assert names.count("tick") == 1

    def test_steps_under_a_one_argument_run_batch(self):
        """``benchmarks/e2e/sim_child.py`` replaces ``run_batch`` with a
        wrapper that takes the batch and nothing else; the service
        points reach the machine some other way."""
        run = _run(epoch_slices=4)
        inner, seen = run.machine.run_batch, []

        def counting_run_batch(batch):
            result = inner(batch)
            seen.append(result.raw_events["retired_ops"])
            return result

        run.machine.run_batch = counting_run_batch
        ticks = []
        _count_calls(run.profiler, "tick", ticks)
        run.populate()
        records = [run.run_epoch() for _ in range(2)]
        assert seen[1:] == [rec.accesses for rec in records]
        assert len(ticks) == 2 * 3
        # Outside the epoch the machine holds no service points: a
        # pickled machine keeps its shape (and snapshots their stamp).
        assert "_service" not in vars(run.machine)

    @pytest.mark.parametrize("slices", [1, 4])
    def test_report_counts_every_scan_of_the_epoch(self, slices):
        """``tick`` used to drop its scan's count: with 4 slices the
        report said 109 pages for an epoch credited 459 detections."""
        run = _run(epoch_slices=slices)
        run.populate()
        stats = run.profiler.abit.stats
        for _ in range(3):
            before = stats.bits_found_set
            run.run_epoch()
            report = run.profiler.reports[-1]
            assert report.abit_pages_found == report.profile.abit.sum() > 0
            assert report.abit_pages_found == stats.bits_found_set - before
        assert stats.scans == 1 + 3 * slices

    def test_slicing_keeps_ground_truth(self):
        one, four = _run(seed=5), _run(seed=5, epoch_slices=4)
        a, b = one.run_epoch(), four.run_epoch()
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.mem_counts, b.mem_counts)
        np.testing.assert_array_equal(a.tlb_counts, b.tlb_counts)


def _array_bytes(root) -> int:
    """Bytes of every distinct numpy array reachable from ``root``."""
    seen, total, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is None:
                total += obj.nbytes
            else:
                stack.append(obj.base)  # a view pins its whole buffer
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        elif obj is not None and hasattr(type(obj), "__slots__"):
            stack.extend(getattr(obj, s, None) for s in type(obj).__slots__)
    return total


class TestReportsRetention:
    def test_only_the_newest_report_keeps_arrays(self):
        run = _run("gups")
        run.populate()
        for _ in range(50):
            record = run.run_epoch()
        reports = run.profiler.reports
        assert len(reports) == 51  # populate's + 50 scored
        newest = reports[-1]
        assert newest.profile is record.profile and newest.samples.n > 0
        assert _array_bytes(reports) == _array_bytes(newest) > 0
        # The scalar fields every summary reads survive on all of them.
        assert [r.epoch for r in reports] == list(range(51))
        assert sum(r.trace_samples for r in reports[-10:]) > newest.trace_samples
        assert all(r.overhead.total_s >= 0 and r.app_time_s > 0 for r in reports)

    def test_a_held_report_keeps_what_it_was_handed(self):
        run = _run()
        held = run.profiler.end_epoch()
        profile = held.profile
        run.run_epoch()
        assert held.profile is profile and held.rank().size == profile.abit.size


class TestAgainstRecordRun:
    def test_event_totals_are_the_summed_raw_events(self):
        run = _run(epoch_slices=3)
        calls = []
        _count_calls(run.machine, "run_batch", calls)
        run.populate()
        for _ in range(2):
            run.run_epoch()
        summed = {}
        for _, res in calls:
            for key, value in res.raw_events.items():
                summed[key] = summed.get(key, 0) + value
        assert summed == run.event_totals
        recorded = record_run(
            make_workload("web-serving", accesses_per_epoch=8_000),
            machine_config=MachineConfig.scaled(ibs_period=16),
            epochs=2,
            epoch_slices=3,
        )
        assert recorded.event_totals == summed

    def test_stepped_equals_one_shot(self):
        """Epoch-by-epoch driving draws the same RNG stream as
        ``record_run``'s back-to-back loop."""
        kw = dict(machine_config=MachineConfig.scaled(enable_pml=True), seed=11)
        run = _run(**kw)
        run.populate()
        stepped = [run.run_epoch() for _ in range(3)]
        recorded = record_run(
            make_workload("web-serving", accesses_per_epoch=8_000), epochs=3, **kw
        )
        for mine, theirs in zip(stepped, recorded.epochs):
            assert (mine.epoch, mine.accesses) == (theirs.epoch, theirs.accesses)
            assert mine.overhead_s == theirs.overhead_s
            for field in ("counts", "mem_counts", "tlb_counts", "dirty_pages"):
                np.testing.assert_array_equal(
                    getattr(mine, field), getattr(theirs, field)
                )
            np.testing.assert_array_equal(mine.profile.abit, theirs.profile.abit)
            np.testing.assert_array_equal(mine.profile.trace, theirs.profile.trace)
