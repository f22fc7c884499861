"""A lightweight in-process metrics registry.

TMP's operating premise (§V of the paper) is that a production
profiler must *observe itself*: per-component overhead accounting is a
first-class output, not an afterthought.  This module gives every
layer of the reproduction — the service, the experiment runner, the
profiler core — one shared vocabulary for that self-observation:

``Counter``
    A monotonically increasing total (requests served, epochs stepped,
    frames dropped).
``Gauge``
    A point-in-time level (active sessions, live workers).
``Histogram``
    A bucketed distribution plus sum/count (step latency).

All three support Prometheus-style labels.  A :class:`MetricsRegistry`
owns a set of metrics behind one lock, so :meth:`MetricsRegistry
.snapshot` is *atomic*: the returned plain-dict snapshot is a
consistent cut across every metric, never a torn read taken while a
step was updating two counters.

Snapshots — not registries — travel between processes: each service
worker process answers a ``metrics`` command with its registry's
snapshot, and :func:`merge_snapshots` folds any number of them into
one aggregate (counters and histograms sum; gauges sum too, which is
the right semantics for the additive per-process gauges used here).
:func:`render_prometheus` turns a snapshot into the Prometheus text
exposition format (0.0.4) served by ``repro serve --metrics-port``.

Registration is get-or-create, so most instrumentation sites fetch
their handles at call time from :func:`default_registry`; a hot path
binds them once with :func:`per_registry` instead.  The
whole subsystem can be switched off (every mutation a no-op) with
``REPRO_OBS_DISABLED=1`` or :func:`configure`.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "configure",
    "default_registry",
    "merge_snapshots",
    "per_registry",
    "render_prometheus",
    "set_default_registry",
]

#: Default histogram buckets (seconds): spans sub-millisecond metric
#: reads up to multi-second multi-epoch steps.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared base: name/help/labelnames plus the registry's lock."""

    type = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple, registry):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._lock = registry._lock
        self._series: dict[tuple, object] = {}

    def _check_labels(self, labels: dict) -> dict:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return labels

    def remove(self, **labels) -> None:
        """Drop one labelled child, so a snapshot stops carrying it."""
        with self._lock:
            self._series.pop(_label_key(labels), None)

    def _samples(self) -> list[dict]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total."""

    type = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _label_key(self._check_labels(labels))
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def _samples(self) -> list[dict]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Gauge(_Metric):
    """A point-in-time level that can move both ways."""

    type = "gauge"

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self._check_labels(labels))
        with self._lock:
            self._series[key] = value

    def inc(self, amount: float = 1, **labels) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self._check_labels(labels))
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def _samples(self) -> list[dict]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Histogram(_Metric):
    """Bucketed observations plus running sum and count."""

    type = "histogram"

    def __init__(self, name, help, labelnames, registry, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames, registry)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")

    def observe(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self._check_labels(labels))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"buckets": [0] * len(self.buckets), "sum": 0.0, "count": 0}
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["buckets"][i] += 1
            series["sum"] += value
            series["count"] += 1

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series["count"] if series else 0

    def _samples(self) -> list[dict]:
        return [
            {
                "labels": dict(key),
                "buckets": {
                    repr(bound): count
                    for bound, count in zip(self.buckets, series["buckets"])
                },
                "sum": series["sum"],
                "count": series["count"],
            }
            for key, series in sorted(self._series.items())
        ]


class MetricsRegistry:
    """A named set of metrics with atomic snapshot semantics."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, tuple(labelnames), self, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.type}"
                )
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def snapshot(self) -> dict:
        """One consistent cut across every metric, as plain JSON data."""
        with self._lock:
            out = {}
            for name, metric in sorted(self._metrics.items()):
                entry = {
                    "type": metric.type,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "samples": metric._samples(),
                }
                if metric.type == "histogram":
                    entry["buckets"] = [repr(b) for b in metric.buckets]
                out[name] = entry
            return out

    def clear(self) -> None:
        """Drop every metric (test isolation helper)."""
        with self._lock:
            self._metrics.clear()


# --------------------------------------------------------------------------
# The process-default registry
# --------------------------------------------------------------------------

_default = MetricsRegistry(
    enabled=not os.environ.get("REPRO_OBS_DISABLED")
)


def default_registry() -> MetricsRegistry:
    """The process-wide registry instrumentation sites record into."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-default registry (returns the previous one)."""
    global _default
    previous = _default
    _default = registry
    return previous


def per_registry(bind):
    """Return ``handles()``: ``bind(registry)`` for the default registry,
    called again only when the default registry is swapped.

    For hot paths (one request, one step, one frame per subscriber):
    every lookup by name takes the registry lock, a bound handle does
    not.  Keyed by registry identity, so code that swaps the default
    (:func:`set_default_registry`) still records into the right one.
    """
    bound = None

    def handles():
        nonlocal bound
        registry = _default
        if bound is None or bound[0] is not registry:
            bound = (registry, bind(registry))
        return bound[1]

    return handles


def configure(enabled: bool) -> None:
    """Turn the default registry's collection on or off in place."""
    _default.enabled = bool(enabled)


# --------------------------------------------------------------------------
# Snapshot algebra + rendering
# --------------------------------------------------------------------------


def _merge_histogram_sample(into: dict, sample: dict) -> None:
    for bound, count in sample["buckets"].items():
        into["buckets"][bound] = into["buckets"].get(bound, 0) + count
    into["sum"] += sample["sum"]
    into["count"] += sample["count"]


def merge_snapshots(snapshots) -> dict:
    """Fold many per-process snapshots into one aggregate snapshot.

    Counters, gauges, and histograms all *sum* across processes —
    every gauge in this codebase is additive per process (sessions on
    this worker, workers alive from the parent's viewpoint), so the
    sum is the fleet-wide level.
    """
    merged: dict = {}
    for snap in snapshots:
        for name, entry in snap.items():
            target = merged.get(name)
            if target is None:
                target = {
                    "type": entry["type"],
                    "help": entry["help"],
                    "labelnames": list(entry["labelnames"]),
                    "samples": [],
                }
                if "buckets" in entry:
                    target["buckets"] = list(entry["buckets"])
                merged[name] = target
            elif target["type"] != entry["type"]:
                raise ValueError(
                    f"metric {name!r} is {target['type']} in one snapshot "
                    f"and {entry['type']} in another"
                )
            by_labels = {
                _label_key(s["labels"]): s for s in target["samples"]
            }
            for sample in entry["samples"]:
                key = _label_key(sample["labels"])
                existing = by_labels.get(key)
                if existing is None:
                    if entry["type"] == "histogram":
                        copy = {
                            "labels": dict(sample["labels"]),
                            "buckets": dict(sample["buckets"]),
                            "sum": sample["sum"],
                            "count": sample["count"],
                        }
                    else:
                        copy = {
                            "labels": dict(sample["labels"]),
                            "value": sample["value"],
                        }
                    target["samples"].append(copy)
                    by_labels[key] = copy
                elif entry["type"] == "histogram":
                    _merge_histogram_sample(existing, sample)
                else:
                    existing["value"] += sample["value"]
    for entry in merged.values():
        entry["samples"].sort(key=lambda s: _label_key(s["labels"]))
    return dict(sorted(merged.items()))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    pairs = dict(labels)
    if extra:
        pairs.update(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(pairs.items())
    )
    return "{" + body + "}"


def _format_value(value) -> str:
    f = float(value)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text format (0.0.4)."""
    lines: list[str] = []
    for name, entry in sorted(snapshot.items()):
        if entry["help"]:
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        if entry["type"] == "histogram":
            for sample in entry["samples"]:
                # Stored bucket counts are already cumulative (observe
                # increments every bucket whose bound >= value).
                for bound in sorted(sample["buckets"], key=float):
                    labels = _format_labels(
                        sample["labels"], {"le": _format_value(float(bound))}
                    )
                    lines.append(f"{name}_bucket{labels} {sample['buckets'][bound]}")
                inf_labels = _format_labels(sample["labels"], {"le": "+Inf"})
                lines.append(f"{name}_bucket{inf_labels} {sample['count']}")
                labels = _format_labels(sample["labels"])
                lines.append(f"{name}_sum{labels} {repr(float(sample['sum']))}")
                lines.append(f"{name}_count{labels} {sample['count']}")
        else:
            for sample in entry["samples"]:
                labels = _format_labels(sample["labels"])
                lines.append(f"{name}{labels} {_format_value(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
