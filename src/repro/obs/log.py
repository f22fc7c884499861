"""Structured JSON logging with correlation IDs.

One event is one JSON object on one line — the same framing the
service speaks on its wire — so service logs are machine-parseable by
construction and a stream of them can be joined against the metrics
the same process exports.  Correlation happens through *bound
context*: a logger carries a dict of fields (``session=...``,
``worker=...``) merged into every event it emits, and :meth:`bind`
derives a child logger with more context without mutating the parent.

Log schema (see ``docs/observability.md``)::

    {"ts": 1712345678.123, "level": "info", "component": "service.server",
     "event": "session_created", "session": "s3", "worker": 1, ...}

Logging is off by default (a disabled logger costs one attribute
check per call): enable it with :func:`configure` or by exporting
``REPRO_LOG_JSON=1`` (as ``repro serve --log-json`` does), which sends
events to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from ..ioutil import json_default

__all__ = ["JsonLogger", "configure", "get_logger"]

_LEVELS = ("debug", "info", "warning", "error")

_state = {
    "enabled": bool(os.environ.get("REPRO_LOG_JSON")),
    "stream": None,  # None = sys.stderr at emit time (test-friendly)
}
_write_lock = threading.Lock()


def configure(enabled: bool = True, stream=None) -> None:
    """Turn structured logging on/off and choose the output stream."""
    _state["enabled"] = bool(enabled)
    _state["stream"] = stream


def _lenient_default(obj):
    """:func:`json_default`, else ``str``: a log line must never raise."""
    try:
        return json_default(obj)
    except TypeError:
        return str(obj)


class JsonLogger:
    """Emits one JSON line per event, with bound correlation context."""

    def __init__(self, component: str, context: dict | None = None):
        self.component = component
        self.context = dict(context or {})

    def bind(self, **context) -> "JsonLogger":
        """A child logger with extra correlation fields bound in."""
        merged = dict(self.context)
        merged.update(context)
        return JsonLogger(self.component, merged)

    def log(self, level: str, event: str, **fields) -> None:
        if not _state["enabled"]:
            return
        if level not in _LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        record = {
            "ts": time.time(),
            "level": level,
            "component": self.component,
            "event": event,
        }
        record.update(self.context)
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=_lenient_default)
        stream = _state["stream"] or sys.stderr
        with _write_lock:
            stream.write(line + "\n")
            flush = getattr(stream, "flush", None)
            if flush is not None:
                try:
                    flush()
                except (OSError, ValueError):
                    pass

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


def get_logger(component: str, **context) -> JsonLogger:
    """A logger for one component, with optional bound context."""
    return JsonLogger(component, context)
