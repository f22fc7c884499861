"""One machine pass per epoch against the per-slice loop it replaced.

``ProfiledRun.run_epoch`` hands the whole epoch to one
``Machine.run_batch`` that stops at ``epoch_slices - 1`` service points:
translation, caches, samplers and ground truth run once, the walks and
dirty bits slice by slice with the profiler's ``tick`` between them,
the PMU gets one update per slice, and the TLB is cut per slice only
when a scan may shoot translations down.  The loop it replaced — one
``run_batch`` per ``batch.take`` slice, per-frame counts summed across
them, a ``tick`` between — is kept here as the reference.  Both drive
twin runs over random configurations and must leave the same records,
profiles, PTE flags, PML log (in order), sampler, walker, TLB and cache
statistics, PMU state and readings, event totals, and the op clock
every ``tick`` saw.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import EpochRecord, ProfiledRun, TMPConfig
from repro.memsim import MachineConfig
from repro.workloads import make_workload

EPOCHS = 4


def _add_counts(totals: np.ndarray, parts) -> np.ndarray:
    width = max(part.size for part in parts)
    if width > totals.shape[1]:
        totals = np.pad(totals, ((0, 0), (0, width - totals.shape[1])))
    for total, part in zip(totals, parts):
        total[: part.size] += part
    return totals


def per_slice_run_epoch(run: ProfiledRun) -> EpochRecord:
    """The previous ``ProfiledRun.run_epoch``, verbatim but for names:
    one machine pass per slice."""
    totals = np.zeros((3, run.machine.n_frames), dtype=np.int64)
    batch = run.workload.epoch(run.epochs_run, run.rng)
    bounds = np.linspace(0, batch.n, run.epoch_slices + 1).astype(int)
    for i in range(run.epoch_slices):
        res = run._run(batch.take(slice(int(bounds[i]), int(bounds[i + 1]))))
        totals = _add_counts(totals, res.frame_counts)
        if i < run.epoch_slices - 1:
            run.profiler.tick()
    accesses = batch.n
    counts, mem_counts, tlb_counts = totals
    report = run.profiler.end_epoch()
    record = EpochRecord(
        epoch=run.epochs_run,
        accesses=accesses,
        profile=report.profile,
        counts=counts,
        mem_counts=mem_counts,
        tlb_counts=tlb_counts,
        dirty_pages=run._read_write_set(),
        overhead_s=report.overhead.total_s,
        samples=report.samples,
    )
    run.epochs_run += 1
    return record


WORKLOADS = {
    "web-serving": dict(accesses_per_epoch=3_000),
    "gups": dict(footprint_pages=2_048, n_processes=3, accesses_per_epoch=4_000),
    # Fewer accesses than slices: empty slices, and their service points.
    "gups-tiny": dict(footprint_pages=256, n_processes=2, accesses_per_epoch=5),
}


def random_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def coin(p=0.5):
        return bool(rng.random() < p)

    exact = coin(0.3)
    machine = dict(
        enable_pml=coin(),
        ibs_jitter=0.3 if coin() else 0.0,
        # One counter for the two gating events: the PMU multiplexes.
        pmu_counters=int(rng.choice([1, 6])),
        ibs_period=int(rng.choice([16, 64])),
        **(dict(exact_assoc=True, tlb_ways=4, cache_ways=4) if exact else {}),
    )
    tmp = dict(
        trace_source=str(rng.choice(["ibs", "pebs", "lwp"])),
        hwpc_gating=coin(),
        process_filter=coin(),
        abit_shootdown=coin(),
        abit_scan_interval_s=float(rng.choice([0.0, 0.004])),
        abit_scan_budget_pages=[None, 64, 1024][int(rng.integers(3))],
    )
    name = str(rng.choice(list(WORKLOADS), p=[0.45, 0.45, 0.1]))
    return dict(
        workload=name,
        slices=int(rng.integers(1, 8)),
        machine=machine,
        tmp=tmp,
        seed=int(rng.integers(1 << 16)),
    )


def build(spec: dict):
    name = spec["workload"]
    run = ProfiledRun(
        make_workload(name.removesuffix("-tiny"), **WORKLOADS[name]),
        machine_config=MachineConfig.scaled(**spec["machine"]),
        tmp_config=TMPConfig(**spec["tmp"]),
        seed=spec["seed"],
        epoch_slices=spec["slices"],
    )
    clock = []
    tick = run.profiler.tick

    def watched_tick():
        clock.append(run.machine.op_counter)
        return tick()

    run.profiler.tick = watched_tick
    run.populate()
    return run, clock


def state(run: ProfiledRun, record: EpochRecord) -> dict:
    """Everything the epoch left, as arrays and plain values."""
    m, prof = run.machine, run.profiler
    report = prof.reports[-1]
    out = dict(
        accesses=record.accesses,
        epoch=record.epoch,
        overhead_s=record.overhead_s,
        counts=record.counts,
        mem_counts=record.mem_counts,
        tlb_counts=record.tlb_counts,
        dirty_pages=record.dirty_pages,
        profile_abit=record.profile.abit,
        profile_trace=record.profile.trace,
        abit_total=prof.store.abit_total,
        trace_total=prof.store.trace_total,
        pte_flags=m.pte.flags,
        first_touch=m.frame_stats.first_touch_op,
        fault_counts=m.badgertrap.fault_counts,
        event_totals=dict(run.event_totals),
        op_counter=m.op_counter,
        cycles=m.cycles,
        report=(
            report.abit_pages_found,
            report.trace_samples,
            report.app_time_s,
            report.tracked_pids,
            report.gating,
        ),
        pmu=(m.pmu._counted, m.pmu._active_slices, m.pmu._total_slices, m.pmu._rotor),
        pmu_readings=m.pmu.read_all(),
    )
    for field in dataclasses.fields(record.samples):
        out[f"samples.{field.name}"] = getattr(record.samples, field.name)
    for name, stats in (
        ("ibs", m.ibs.stats),
        ("pebs", m.pebs.stats),
        ("lwp", m.lwp.stats),
        ("pml", m.pml.stats),
        ("ptw", m.ptw.stats),
        ("badgertrap", m.badgertrap.stats),
        ("tlb", m.tlb.stats),
        ("abit", prof.abit.stats),
        ("trace", prof.trace.stats),
        *((f"cache.{level.name}", level.stats) for level in m.caches.levels),
    ):
        out[name] = dataclasses.asdict(stats)
    out["tlb_occupancy"] = m.tlb.occupancy()
    return out


def assert_same(got: dict, want: dict, where: str) -> None:
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], np.ndarray):
            assert got[key].dtype == want[key].dtype, f"{where}: {key}"
            np.testing.assert_array_equal(got[key], want[key], err_msg=f"{where}: {key}")
        else:
            assert got[key] == want[key], f"{where}: {key}"


CASES = [random_config(seed) for seed in range(40)]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_one_pass_equals_the_per_slice_loop(case):
    spec = CASES[case]
    new, new_clock = build(spec)
    ref, ref_clock = build(spec)
    for epoch in range(EPOCHS):
        got = state(new, new.run_epoch())
        want = state(ref, per_slice_run_epoch(ref))
        assert_same(got, want, f"{spec} epoch {epoch}")
        assert new_clock == ref_clock
    assert len(new_clock) == EPOCHS * (spec["slices"] - 1)


def test_the_random_configs_cover_every_axis():
    """What the cases above are meant to reach, reached."""
    seen = lambda f: {f(c) for c in CASES}  # noqa: E731
    assert seen(lambda c: c["slices"]) == set(range(1, 8))
    assert seen(lambda c: c["workload"]) == set(WORKLOADS)
    for key in ("enable_pml", "exact_assoc"):
        assert seen(lambda c: c["machine"].get(key, False)) == {False, True}, key
    assert seen(lambda c: c["machine"]["ibs_jitter"] > 0) == {False, True}
    for key in ("hwpc_gating", "process_filter", "abit_shootdown"):
        assert seen(lambda c: c["tmp"][key]) == {False, True}, key
    assert seen(lambda c: c["tmp"]["abit_scan_interval_s"] > 0) == {False, True}
    assert seen(lambda c: c["tmp"]["trace_source"]) == {"ibs", "pebs", "lwp"}
    # Gating with more events than counters, with shootdown and slices.
    assert any(
        c["tmp"]["hwpc_gating"] and c["machine"]["pmu_counters"] == 1 and c["slices"] > 1
        for c in CASES
    )
    assert any(c["tmp"]["abit_shootdown"] and c["slices"] > 2 for c in CASES)
