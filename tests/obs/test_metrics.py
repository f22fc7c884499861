"""Tests for the in-process metrics registry and snapshot algebra."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    default_registry,
    merge_snapshots,
    per_registry,
    render_prometheus,
    set_default_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("requests_total", "Requests")
        assert c.value() == 0
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_labels_split_series(self, registry):
        c = registry.counter("jobs_total", "", labelnames=("stage",))
        c.inc(stage="record")
        c.inc(2, stage="evaluate")
        assert c.value(stage="record") == 1
        assert c.value(stage="evaluate") == 2

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("jobs_total", "", labelnames=("stage",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(phase="record")
        with pytest.raises(ValueError, match="expects labels"):
            registry.counter("plain_total").inc(stage="x")

    def test_cannot_decrease(self, registry):
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("n_total").inc(-1)

    def test_get_or_create_returns_same_handle(self, registry):
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_type_collision_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("active")
        g.set(7)
        g.inc(2)
        g.inc(-1)
        assert g.value() == 8


class TestHistogram:
    def test_observe_buckets_cumulatively(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)  # beyond the last bound: only sum/count see it
        snap = registry.snapshot()["lat"]["samples"][0]
        assert snap["buckets"] == {"0.1": 1, "1.0": 2, "10.0": 3}
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(55.55)
        assert h.count() == 4

    def test_default_buckets_sorted(self, registry):
        h = registry.histogram("lat2")
        assert h.buckets == tuple(sorted(DEFAULT_BUCKETS))

    def test_needs_buckets(self, registry):
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("empty", buckets=())


class TestRegistry:
    def test_snapshot_is_plain_data(self, registry):
        import json

        registry.counter("c_total", "help text").inc(3)
        registry.gauge("g", labelnames=("k",)).set(1.5, k="v")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        # Round-trips through JSON: nothing live leaks out.
        assert json.loads(json.dumps(snap)) == snap
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["help"] == "help text"
        assert snap["g"]["samples"] == [{"labels": {"k": "v"}, "value": 1.5}]

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c_total").inc(5)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["c_total"]["samples"] == []
        assert snap["h"]["samples"] == []

    def test_clear(self, registry):
        registry.counter("c_total").inc()
        registry.clear()
        assert registry.snapshot() == {}

    def test_default_registry_swap(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(previous)

    def test_bound_handles_follow_a_swapped_default(self):
        bound = per_registry(lambda r: r.counter("c_total"))
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_default_registry(first)
        try:
            bound().inc()
            assert bound() is bound()
            set_default_registry(second)
            bound().inc(2)
        finally:
            set_default_registry(previous)
        assert first.counter("c_total").value() == 1
        assert second.counter("c_total").value() == 2

    def test_concurrent_increments_are_not_lost(self, registry):
        c = registry.counter("c_total")
        n, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == n * per_thread


class TestMerge:
    def _snap(self, value):
        r = MetricsRegistry()
        r.counter("c_total", "help", labelnames=("k",)).inc(value, k="a")
        r.gauge("g").set(value)
        h = r.histogram("h", buckets=(1.0, 10.0))
        h.observe(value)
        return r.snapshot()

    def test_counters_gauges_histograms_sum(self):
        merged = merge_snapshots([self._snap(0.5), self._snap(5.0)])
        assert merged["c_total"]["samples"] == [
            {"labels": {"k": "a"}, "value": 5.5}
        ]
        assert merged["g"]["samples"][0]["value"] == 5.5
        hist = merged["h"]["samples"][0]
        assert hist["buckets"] == {"1.0": 1, "10.0": 2}
        assert hist["count"] == 2

    def test_disjoint_series_union(self):
        a = MetricsRegistry()
        a.counter("c_total", labelnames=("k",)).inc(k="a")
        b = MetricsRegistry()
        b.counter("c_total", labelnames=("k",)).inc(2, k="b")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["c_total"]["samples"] == [
            {"labels": {"k": "a"}, "value": 1},
            {"labels": {"k": "b"}, "value": 2},
        ]

    def test_type_conflict_rejected(self):
        a = MetricsRegistry()
        a.counter("x")
        b = MetricsRegistry()
        b.gauge("x")
        with pytest.raises(ValueError, match="in another"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_does_not_mutate_inputs(self):
        one, two = self._snap(1.0), self._snap(2.0)
        merge_snapshots([one, two])
        assert one["g"]["samples"][0]["value"] == 1.0


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self, registry):
        registry.counter("c_total", "Things counted", ("k",)).inc(3, k="v")
        registry.gauge("g", "A level").set(1.5)
        text = render_prometheus(registry.snapshot())
        assert "# HELP c_total Things counted" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="v"} 3' in text
        assert "g 1.5" in text
        assert text.endswith("\n")

    def test_histogram_lines(self, registry):
        h = registry.histogram("lat", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(registry.snapshot())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 5.55" in text

    def test_label_escaping(self, registry):
        registry.counter("c_total", labelnames=("msg",)).inc(
            msg='say "hi"\nback\\slash'
        )
        text = render_prometheus(registry.snapshot())
        assert r'msg="say \"hi\"\nback\\slash"' in text

    def test_empty_snapshot(self):
        assert render_prometheus({}) == ""
