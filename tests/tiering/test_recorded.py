"""Tests for record-once / evaluate-offline (the Fig. 6 method)."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.memsim import MachineConfig
from repro.workloads import make_workload
from repro.tiering import (
    FCFAPolicy,
    HistoryPolicy,
    OraclePolicy,
    TieredSimulator,
    evaluate_recorded,
    record_run,
)


def _record(wname="data-caching", epochs=4, **kw):
    defaults = dict(
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=0,
    )
    defaults.update(kw)
    w = make_workload(wname, accesses_per_epoch=60_000)
    return record_run(w, epochs=epochs, **defaults)


class TestRecordRun:
    def test_shape(self):
        rec = _record(epochs=3)
        assert rec.n_epochs == 3
        assert rec.workload == "data-caching"
        for r in rec.epochs:
            assert r.counts.size == rec.n_frames
            assert r.mem_counts.size == rec.n_frames
            assert (r.mem_counts <= r.counts).all()

    def test_first_touch_epochs(self):
        rec = _record(epochs=3)
        # With an init phase, the bulk of frames are touched at init (-1).
        assert (rec.first_touch_epoch == -1).sum() > 0.5 * rec.n_frames
        assert rec.first_touch_epoch.max() <= 3

    def test_profiles_nonempty(self):
        rec = _record(epochs=3)
        for r in rec.epochs:
            assert r.profile.abit.sum() > 0
            assert r.profile.trace.sum() > 0

    def test_deterministic(self):
        a, b = _record(epochs=2), _record(epochs=2)
        np.testing.assert_array_equal(a.epochs[1].counts, b.epochs[1].counts)
        np.testing.assert_array_equal(a.epochs[1].profile.trace, b.epochs[1].profile.trace)

    def test_bad_slices(self):
        w = make_workload("gups", accesses_per_epoch=1000)
        with pytest.raises(ValueError):
            record_run(w, epoch_slices=0)

    def test_slices_give_graded_abit(self):
        rec = _record(epochs=2, epoch_slices=4)
        assert rec.epochs[1].profile.abit.max() > 1


def _recorded_digest(rec) -> str:
    """SHA-256 over everything a recording holds except raw samples."""
    h = hashlib.sha256()

    def arr(a):
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())

    arr(rec.first_touch_epoch)
    arr(rec.first_touch_op)
    totals = {k: int(v) for k, v in rec.event_totals.items()}
    h.update(json.dumps(totals, sort_keys=True).encode())
    for r in rec.epochs:
        h.update(f"{r.epoch}:{r.accesses}:{r.overhead_s!r}".encode())
        for a in (
            r.profile.abit,
            r.profile.trace,
            r.counts,
            r.mem_counts,
            r.tlb_counts,
            r.dirty_pages,
        ):
            arr(a)
    return h.hexdigest()


class TestRecordedGolden:
    """Recordings are byte-stable: cached ``.npz`` entries and
    ``serialize._FORMAT_VERSION`` stay valid only while these hold.
    Digests computed at commit 8d44ac8 (before the shared driver)."""

    @pytest.mark.parametrize(
        "slices, digest",
        [
            (1, "7240376b79b31bea8712f2672bc216c5362b667e49f84e6032c02feaf79ce491"),
            (4, "bf2245618621585f766aafa13ff9efce91e6a73d20086960e5d20c82b93cbc2f"),
        ],
    )
    def test_gups_recording_digest(self, slices, digest):
        rec = record_run(make_workload("gups"), epochs=3, seed=0, epoch_slices=slices)
        assert _recorded_digest(rec) == digest


class TestOnlineEqualsOffline:
    """FCFA never migrates, so there is no shootdown feedback and the
    online loop and the offline replay must agree on every field —
    except the base epoch time (online: accesses / ops_per_second;
    offline: the paper's one-second epoch) and the sums containing it."""

    @pytest.mark.parametrize("slices", [1, 4])
    @pytest.mark.parametrize("wname", ["data-caching", "web-serving"])
    def test_every_epoch_metric_matches(self, wname, slices):
        kw = dict(
            machine_config=MachineConfig.scaled(ibs_period=16),
            seed=0,
            epoch_slices=slices,
        )
        online = TieredSimulator(
            make_workload(wname, accesses_per_epoch=20_000),
            FCFAPolicy(),
            tier1_ratio=1 / 16,
            **kw,
        ).run(3)
        offline = evaluate_recorded(
            record_run(make_workload(wname, accesses_per_epoch=20_000), epochs=3, **kw),
            FCFAPolicy(),
            tier1_ratio=1 / 16,
        )
        assert len(online.epochs) == len(offline.epochs) == 3
        for a, b in zip(online.epochs, offline.epochs):
            da, db = asdict(a), asdict(b)
            assert da["latency"].pop("base_s") != db["latency"].pop("base_s")
            assert da == db
        for field in ("workload", "policy", "rank_source", "tier1_ratio", "tier1_capacity"):
            assert getattr(online, field) == getattr(offline, field)


class TestEvaluateRecorded:
    def test_matches_online_simulator_hitrate(self):
        """Offline evaluation reproduces the online loop's hitrates
        (the only feedback difference is migration-induced TLB state,
        which FCFA — migration-free — does not have at all)."""
        rec = _record(epochs=4)
        offline = evaluate_recorded(rec, FCFAPolicy(), tier1_ratio=1 / 16)

        w = make_workload("data-caching", accesses_per_epoch=60_000)
        online = TieredSimulator(
            w,
            FCFAPolicy(),
            tier1_ratio=1 / 16,
            machine_config=MachineConfig.scaled(ibs_period=16),
            seed=0,
        ).run(4)
        assert offline.mean_hitrate == pytest.approx(online.mean_hitrate, abs=1e-9)

    def test_history_offline_close_to_online(self):
        rec = _record(epochs=4)
        offline = evaluate_recorded(rec, HistoryPolicy(), tier1_ratio=1 / 16)
        w = make_workload("data-caching", accesses_per_epoch=60_000)
        online = TieredSimulator(
            w,
            HistoryPolicy(),
            tier1_ratio=1 / 16,
            machine_config=MachineConfig.scaled(ibs_period=16),
            seed=0,
        ).run(4)
        assert offline.mean_hitrate == pytest.approx(online.mean_hitrate, abs=0.05)

    def test_many_configs_one_recording(self):
        rec = _record(epochs=3)
        results = [
            evaluate_recorded(rec, HistoryPolicy(), tier1_ratio=r, rank_source=s)
            for r in (1 / 8, 1 / 32)
            for s in ("abit", "trace", "combined")
        ]
        assert len({(x.tier1_ratio, x.rank_source) for x in results}) == 6

    def test_hitrate_monotone_in_ratio(self):
        rec = _record(epochs=3)
        small = evaluate_recorded(rec, OraclePolicy(), tier1_ratio=1 / 64)
        big = evaluate_recorded(rec, OraclePolicy(), tier1_ratio=1 / 4)
        assert big.mean_hitrate > small.mean_hitrate

    def test_bad_ratio(self):
        rec = _record(epochs=1)
        with pytest.raises(ValueError):
            evaluate_recorded(rec, FCFAPolicy(), tier1_ratio=0)

    def test_latency_recorded(self):
        rec = _record(epochs=2)
        res = evaluate_recorded(rec, HistoryPolicy(), tier1_ratio=1 / 16)
        for e in res.epochs:
            assert e.latency.total_s >= 1.0  # base epoch second
