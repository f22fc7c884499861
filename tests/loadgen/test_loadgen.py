"""The load generator end to end against a real threaded server."""

import asyncio
import json

import pytest

from repro.loadgen import (
    AsyncServiceClient,
    LoadTestConfig,
    run_load_test,
    write_report,
)
from repro.loadgen.report import LatencyRecorder, evaluate_slo, percentile
from repro.obs import metrics as obs_metrics
from repro.service import ServerThread

SMALL = {"footprint_pages": 256, "accesses_per_epoch": 1000}


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs_metrics.set_default_registry(obs_metrics.MetricsRegistry())
    yield
    obs_metrics.set_default_registry(previous)


def small_config(**overrides) -> LoadTestConfig:
    base = dict(
        sessions=16,
        arrival_rate=400.0,
        steps_per_session=2,
        epochs_per_step=1,
        workload="gups",
        workload_kwargs=dict(SMALL),
        connections=2,
        subscribe_fraction=1.0,
        stats_fraction=0.5,
        tenants=2,
        seed=7,
        timeout_s=120.0,
    )
    base.update(overrides)
    return LoadTestConfig(**base)


class TestPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestLatencyRecorder:
    def test_summary_and_obs_mirroring(self):
        registry = obs_metrics.MetricsRegistry()
        rec = LatencyRecorder(registry=registry)
        for ms in (1, 2, 3, 4, 5):
            rec.record("step", ms / 1000)
        rec.count_error("step", "overloaded")
        summary = rec.summary()
        assert summary["step"]["count"] == 5
        assert summary["step"]["errors"] == {"overloaded": 1}
        assert summary["step"]["p50_s"] == pytest.approx(0.003)
        snap = registry.snapshot()
        hist = snap["repro_loadgen_op_seconds"]["samples"][0]
        assert hist["count"] == 5
        outcomes = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["repro_loadgen_ops_total"]["samples"]
        }
        assert outcomes[(("op", "step"), ("outcome", "ok"))] == 5
        assert outcomes[(("op", "step"), ("outcome", "overloaded"))] == 1


class TestEvaluateSlo:
    def test_no_threshold(self):
        assert evaluate_slo({"step": {"p99_s": 0.5}}, None)["ok"] is None

    def test_pass_and_fail(self):
        summary = {"step": {"p99_s": 0.5}}
        assert evaluate_slo(summary, 1.0)["ok"] is True
        assert evaluate_slo(summary, 0.1)["ok"] is False

    def test_no_steps_fails_when_gated(self):
        assert evaluate_slo({}, 1.0)["ok"] is False


class TestAsyncClient:
    def test_reads_a_response_past_asyncio_default_limit(self):
        # 300 epochs answer in one ~95 KB line: legal under the
        # protocol's 1 MiB bound, fatal to a 64 KiB StreamReader.
        async def main(address):
            client = await AsyncServiceClient.connect(address=address)
            try:
                info = await client.request(
                    "create_session", workload="gups", workload_kwargs=dict(SMALL)
                )
                stepped = await client.request(
                    "step", session=info["session"], epochs=300
                )
                assert len(json.dumps(stepped)) > 2**16
                return stepped["epochs_run"]
            finally:
                await client.close()

        with ServerThread(port=0, workers=0, reap_interval_s=0) as srv:
            assert asyncio.run(main(srv.address)) == 300


class TestRunLoadTest:
    def test_full_run_report(self, tmp_path):
        cfg = small_config()
        with ServerThread(
            port=0, workers=0, max_sessions=cfg.sessions, reap_interval_s=0
        ) as srv:
            report = run_load_test(srv.address, cfg, slo_step_p99_s=30.0)

        sessions = report["sessions"]
        assert sessions["target"] == cfg.sessions
        assert sessions["created"] == cfg.sessions
        assert sessions["completed"] == cfg.sessions
        assert sessions["rejected"] == {}
        assert sessions["peak_concurrent"] >= 1

        ops = report["ops"]
        assert ops["create"]["count"] == cfg.sessions
        assert ops["step"]["count"] == cfg.sessions * cfg.steps_per_session
        assert ops["close"]["count"] == cfg.sessions
        assert ops["subscribe"]["count"] == cfg.sessions  # fraction 1.0
        for stats in ops.values():
            if stats["count"]:
                assert 0 < stats["p50_s"] <= stats["p99_s"] <= stats["max_s"]

        # Every session subscribed: epoch frames flowed and none of the
        # per-subscription accounting went missing.
        events = report["events"]
        assert events["subscriptions_seen"] == cfg.sessions
        assert events["epoch_frames"] > 0
        assert events["goodbyes"] == {}

        assert report["slo"]["ok"] is True
        assert report["server"]["sessions"] == 0  # all closed by the end
        assert "repro_loadgen_op_seconds" in report["metrics"]

        out = tmp_path / "BENCH_load.json"
        write_report(out, report)
        assert json.loads(out.read_text())["sessions"]["completed"] == cfg.sessions

    def test_tenants_spread_across_names(self):
        cfg = small_config(sessions=8, subscribe_fraction=0.0, tenants=4)
        with ServerThread(
            port=0, workers=0, max_sessions=cfg.sessions, reap_interval_s=0
        ) as srv:
            report = run_load_test(srv.address, cfg)
        assert report["sessions"]["completed"] == 8
        # server_info's tenants map is empty post-run (all closed), but
        # nothing was rejected despite 4 distinct tenant names.
        assert report["sessions"]["rejected"] == {}

    def test_timeout_reaps_in_flight_sessions(self):
        # The wall-clock cap (asyncio.wait_for — available on 3.10,
        # unlike asyncio.timeout) fires while every session is
        # mid-think: the run cancels the spawned session tasks instead
        # of leaking them, and still returns a valid report flagged
        # ``timed_out`` rather than raising (a blown deadline is a
        # result, not a crash).
        cfg = small_config(
            sessions=4,
            arrival_rate=1000.0,
            subscribe_fraction=0.0,
            stats_fraction=0.0,
            think_s=60.0,
            timeout_s=1.0,
        )
        with ServerThread(
            port=0, workers=0, max_sessions=cfg.sessions, reap_interval_s=0
        ) as srv:
            report = run_load_test(srv.address, cfg)
        assert report["timed_out"] is True
        assert report["sessions"]["completed"] == 0
        # No session finished a step, yet the report is still a valid,
        # writable document with a clean (unjudged) SLO verdict.
        assert report["slo"]["ok"] is None

    def test_zero_completed_ops_still_writes_report_and_judges_slo(
        self, tmp_path
    ):
        # Every session's first (and only) step outlives the deadline
        # (~1500 epochs at a few ms each vs a 1 s budget): zero steps
        # complete, yet the run emits valid BENCH_load.json and the SLO
        # gate fails cleanly (no latency promise was met) instead of
        # raising on empty percentiles.
        cfg = small_config(
            sessions=3,
            arrival_rate=1000.0,
            steps_per_session=1,
            epochs_per_step=1500,
            subscribe_fraction=0.0,
            stats_fraction=0.0,
            timeout_s=1.0,
            # One connection per session: a connection's requests are
            # handled in order, so on a shared one a create that
            # arrives behind another session's 1500-epoch step is never
            # answered inside the budget (and `cancelled` reads 2).
            connections=3,
        )
        with ServerThread(
            port=0, workers=0, max_sessions=cfg.sessions, reap_interval_s=0
        ) as srv:
            report = run_load_test(srv.address, cfg, slo_step_p99_s=0.5)
        assert report["timed_out"] is True
        assert report["slo"] == {
            "step_p99_s": None,
            "threshold_s": 0.5,
            "ok": False,
        }
        assert report["sessions"]["completed"] == 0
        assert report["sessions"]["cancelled"] == 3
        out = tmp_path / "BENCH_load.json"
        write_report(out, report)
        assert json.loads(out.read_text())["slo"]["ok"] is False

    def test_evict_resume_lifecycle_mix(self, tmp_path):
        # Checkpoint/resume soak in miniature: every session runs half
        # its steps, idles past the TTL, is checkpointed to disk by the
        # reaper, resumes through normal admission, and finishes.
        cfg = small_config(
            sessions=3,
            arrival_rate=50.0,
            steps_per_session=2,
            subscribe_fraction=0.0,
            stats_fraction=0.0,
            evict_resume_fraction=1.0,
            evict_wait_s=30.0,
        )
        with ServerThread(
            port=0,
            workers=0,
            max_sessions=cfg.sessions,
            idle_ttl_s=0.6,
            reap_interval_s=0.05,
            ledger_dir=str(tmp_path),
            evict_to_disk=True,
        ) as srv:
            report = run_load_test(srv.address, cfg)
        sessions = report["sessions"]
        assert sessions["completed"] == 3
        assert sessions["resumed"] == 3
        assert sessions["resume_failed"] == 0
        # Server-side lifetime counters agree: every checkpointed
        # session came back (what the CI soak asserts).
        assert report["server"]["sessions_checkpointed"] >= 3
        assert (
            report["server"]["sessions_resumed"]
            == report["server"]["sessions_checkpointed"]
        )
        assert report["ops"]["resume"]["count"] == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadTestConfig(sessions=0)
        with pytest.raises(ValueError):
            LoadTestConfig(arrival_rate=0)
        with pytest.raises(ValueError):
            LoadTestConfig(connections=0)
        with pytest.raises(ValueError):
            LoadTestConfig(tenants=0)
