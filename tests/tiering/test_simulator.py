"""Integration tests for the online tiered simulator."""

import gc
import weakref

import numpy as np
import pytest

from repro.memsim import MachineConfig
from repro.workloads import make_workload
from repro.tiering import (
    FCFAPolicy,
    HistoryPolicy,
    OraclePolicy,
    RandomPolicy,
    TieredSimulator,
    TrueOraclePolicy,
)


def _sim(policy, wname="data-caching", **kw):
    defaults = dict(
        tier1_ratio=1 / 16,
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=0,
    )
    defaults.update(kw)
    w = make_workload(wname)
    return TieredSimulator(w, policy, **defaults)


class TestBasics:
    def test_runs_and_reports(self):
        res = _sim(HistoryPolicy()).run(3)
        assert len(res.epochs) == 3
        assert res.policy == "history"
        assert res.workload == "data-caching"
        for e in res.epochs:
            assert 0 <= e.hitrate <= 1
            assert e.runtime_s > 0

    def test_capacity_from_ratio(self):
        sim = _sim(FCFAPolicy(), tier1_ratio=1 / 8)
        assert sim.tier1_capacity == round(sim.workload.footprint_pages / 8)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            _sim(FCFAPolicy(), tier1_ratio=0.0)
        with pytest.raises(ValueError):
            _sim(FCFAPolicy(), tier1_ratio=1.5)

    def test_bad_slices(self):
        with pytest.raises(ValueError):
            _sim(FCFAPolicy(), epoch_slices=0)

    def test_public_attributes_are_the_objects_it_drives(self):
        """The e2e tracer wraps methods on ``sim.machine``, ``sim.policy``
        … with ``setattr``; that only times the epoch if those are the
        very objects the driver and the step call."""
        sim = _sim(HistoryPolicy(), wname="web-serving")
        assert sim.machine is sim.profiled.machine is sim.profiler.machine
        assert sim.workload is sim.profiled.workload
        assert sim.profiler is sim.profiled.profiler
        step = sim.placement
        assert (sim.policy, sim.mover, sim.tiers, sim.latency_model) == (
            step.policy, step.mover, step.tiers, step.latency_model
        )
        assert sim.mover.machine is sim.machine
        seen = []

        def tap(owner, attr):
            inner = getattr(owner, attr)

            def wrapped(*args, **kwargs):
                seen.append(attr)
                return inner(*args, **kwargs)

            setattr(owner, attr, wrapped)

        tap(sim.policy, "target_tier1")
        tap(sim.mover, "apply_target")
        tap(sim.latency_model, "epoch_latency")
        sim.run(2)
        assert seen == ["target_tier1", "apply_target", "epoch_latency"] * 2

    def test_deterministic(self):
        a = _sim(HistoryPolicy()).run(3)
        b = _sim(HistoryPolicy()).run(3)
        assert a.mean_hitrate == b.mean_hitrate
        assert a.total_migrations == b.total_migrations


class TestHistoryLeftOut:
    """A result without its per-epoch history still totals like the
    whole series: the running sums continue, never combine."""

    def test_totals_continue_bit_identically(self):
        import sys
        from dataclasses import replace

        full = _sim(HistoryPolicy()).run(6)
        rng = np.random.default_rng(3)
        # Scale the floats apart, so a partial-sum shortcut would round
        # differently from one left-to-right pass.
        epochs = [
            replace(e, hitrate=float(e.hitrate * 10.0 ** rng.integers(-8, 8)))
            for e in full.epochs
        ]
        whole = replace(full, epochs=epochs)
        totals = (whole.mean_hitrate, whole.total_runtime_s, whole.total_migrations)
        if sys.version_info < (3, 12):  # ``sum()`` adds floats left to right
            assert totals == (
                sum(e.hitrate * e.mem_accesses for e in epochs)
                / sum(e.mem_accesses for e in epochs),
                sum(e.runtime_s for e in epochs),
                sum(e.promoted + e.demoted for e in epochs),
            )
        head = replace(full, epochs=epochs[:4]).without_history()
        assert head.epochs == [] and head.epochs_run == 4
        head.epochs.extend(epochs[4:])
        again = head.without_history()
        for res in (head, again):
            assert res.epochs_run == 6
            assert (
                res.mean_hitrate, res.total_runtime_s, res.total_migrations
            ) == totals

    def test_history_is_back_after_the_block(self):
        from repro.core.config import TMPConfig

        sim = _sim(HistoryPolicy(), tmp_config=TMPConfig(hwpc_gating=True))
        sim.run(3)
        result, reports = sim.result, sim.profiler.reports
        decisions = sim.profiler.hwpc.decisions
        assert len(decisions) == len(reports) == 4  # population + 3
        with sim.history_left_out():
            assert sim.result.epochs == [] and sim.result.epochs_run == 3
            assert sim.profiler.reports == reports[-1:]
            assert sim.profiler.hwpc.decisions == decisions[-1:]
        assert sim.result is result and len(result.epochs) == 3
        assert sim.profiler.reports is reports
        assert sim.profiler.hwpc.decisions is decisions
        assert sim.profiler.epochs_closed == len(reports)


class TestStepping:
    """The incremental start()/step() driving style (service path)."""

    def test_step_matches_run_bit_identical(self):
        batch = _sim(HistoryPolicy()).run(4)
        sim = _sim(HistoryPolicy())
        sim.start()
        stepped = sim.step(1) + sim.step(2) + sim.step(1)
        assert sim.epochs_run == 4
        for a, b in zip(batch.epochs, stepped):
            assert a.hitrate == b.hitrate
            assert a.promoted == b.promoted
            assert a.demoted == b.demoted
            assert a.runtime_s == b.runtime_s
        assert sim.result.mean_hitrate == batch.mean_hitrate

    def test_step_requires_start(self):
        with pytest.raises(RuntimeError, match="start"):
            _sim(HistoryPolicy()).step()

    def test_double_start_rejected(self):
        sim = _sim(HistoryPolicy())
        sim.start()
        with pytest.raises(RuntimeError, match="already started"):
            sim.start()

    def test_run_after_run_rejected(self):
        sim = _sim(HistoryPolicy())
        sim.run(1)
        with pytest.raises(RuntimeError, match="already started"):
            sim.run(1)

    def test_bad_step_count(self):
        sim = _sim(HistoryPolicy())
        sim.start()
        with pytest.raises(ValueError):
            sim.step(0)

    def test_epoch_hooks_fire_in_order(self):
        sim = _sim(HistoryPolicy())
        seen = []
        sim.add_epoch_hook(lambda m: seen.append(m.epoch))
        sim.start()
        sim.step(2)
        sim.step(1)
        assert seen == [0, 1, 2]
        assert [m.epoch for m in sim.result.epochs] == [0, 1, 2]


    @pytest.mark.parametrize("wname", ["gups", "web-serving"])
    def test_a_dropped_simulator_is_freed_at_once(self, wname):
        """No cycle holds its arrays until a full collection (one through
        each page table's own index once did: half a megabyte per
        discarded simulator, and whatever heap lay below it)."""
        gc.collect()
        gc.disable()
        try:
            sim = _sim(HistoryPolicy(), wname=wname)
            sim.start()
            sim.step(2)
            parts = [sim.machine, sim.profiler, sim.mover, sim.placement]
            parts += sim.machine.page_tables.values()
            gone = [weakref.ref(part) for part in parts]
            del sim, parts
            assert [ref() for ref in gone] == [None] * len(gone)
        finally:
            gc.enable()


class TestPolicyOrdering:
    def test_true_oracle_beats_fcfa(self):
        oracle = _sim(TrueOraclePolicy()).run(5)
        fcfa = _sim(FCFAPolicy()).run(5)
        assert oracle.mean_hitrate > fcfa.mean_hitrate + 0.05

    def test_fcfa_never_migrates(self):
        res = _sim(FCFAPolicy()).run(4)
        assert res.total_migrations == 0

    def test_history_beats_random(self):
        hist = _sim(HistoryPolicy()).run(5)
        rand = _sim(RandomPolicy(seed=3)).run(5)
        assert hist.mean_hitrate > rand.mean_hitrate

    def test_oracle_at_least_history(self):
        oracle = _sim(OraclePolicy()).run(5)
        hist = _sim(HistoryPolicy()).run(5)
        assert oracle.mean_hitrate >= hist.mean_hitrate - 0.02


class TestCapacitySweep:
    def test_hitrate_monotone_in_capacity(self):
        rates = []
        for ratio in (1 / 256, 1 / 64, 1 / 16):
            rates.append(_sim(TrueOraclePolicy(), tier1_ratio=ratio).run(4).mean_hitrate)
        assert rates[0] < rates[1] < rates[2]

    def test_full_capacity_perfect(self):
        res = _sim(TrueOraclePolicy(), tier1_ratio=1.0).run(3)
        assert res.mean_hitrate > 0.95


class TestRuntimeModel:
    def test_runtime_decomposition(self):
        res = _sim(HistoryPolicy()).run(3)
        for e in res.epochs:
            assert e.runtime_s == pytest.approx(
                e.latency.total_s + e.profiler_overhead_s
            )

    def test_speedup_over(self):
        hist = _sim(HistoryPolicy()).run(4)
        fcfa = _sim(FCFAPolicy()).run(4)
        s = hist.speedup_over(fcfa)
        assert s == pytest.approx(fcfa.total_runtime_s / hist.total_runtime_s)

    def test_speedup_of_an_empty_run_is_nan(self):
        empty = _sim(HistoryPolicy(), wname="web-serving").run(0)
        assert np.isnan(empty.speedup_over(empty))


class TestInitPhase:
    def test_init_places_everything_touched(self):
        sim = _sim(FCFAPolicy())
        res = sim.run(2, init=True)
        from repro.tiering.tiers import UNPLACED

        assert sim.tiers.occupancy(UNPLACED) == 0

    def test_no_init_differs(self):
        a = _sim(FCFAPolicy()).run(3, init=True)
        b = _sim(FCFAPolicy()).run(3, init=False)
        # Init changes first-touch order and thus FCFA's placement.
        assert a.mean_hitrate != b.mean_hitrate
