"""A blocking JSON-lines client for the profiling service.

Single-threaded and socket-based: requests are synchronous (send one
frame, read until the matching response), while event frames that
arrive in between — subscription pushes interleave freely with
responses — are buffered and handed out by :meth:`next_event` /
:meth:`iter_events`.  Works over TCP or a unix socket.
"""

from __future__ import annotations

import socket
from collections import deque

from .protocol import ErrorCode, ServiceError, decode_frame, encode_frame

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking request/response + event-stream consumption."""

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        *,
        socket_path: str | None = None,
        address: tuple | list | str | None = None,
        timeout_s: float = 30.0,
    ):
        if address is not None:
            if isinstance(address, str):
                socket_path = address
            else:
                host, port = address[0], int(address[1])
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s)
            self._sock.connect(socket_path)
        elif host is not None and port is not None:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
        else:
            raise ValueError("need host+port, socket_path, or address")
        self.timeout_s = timeout_s
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        self._events: deque = deque()

    # --------------------------------------------------------------- plumbing

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_frame(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_frame(line)

    def request(self, op: str, **params) -> dict:
        """Send one request; block for its response.

        Event frames arriving before the response are buffered for
        :meth:`next_event`.  Error responses raise
        :class:`ServiceError` with the server's code.
        """
        self._next_id += 1
        request_id = self._next_id
        payload = {"id": request_id, "op": op}
        if params:
            payload["params"] = params
        self._sock.sendall(encode_frame(payload))
        while True:
            frame = self._read_frame()
            if "event" in frame:
                self._events.append(frame)
                continue
            if frame.get("id") != request_id:
                continue  # stale response (e.g. from a timed-out call)
            if frame.get("ok"):
                return frame.get("result", {})
            error = frame.get("error") or {}
            raise ServiceError(
                error.get("code", ErrorCode.INTERNAL),
                error.get("message", "unknown server error"),
            )

    def next_event(self, timeout_s: float | None = None) -> dict:
        """Return the next buffered or on-the-wire event frame.

        Raises ``TimeoutError`` (via the socket timeout) when nothing
        arrives in time.
        """
        if self._events:
            return self._events.popleft()
        previous = self._sock.gettimeout()
        if timeout_s is not None:
            self._sock.settimeout(timeout_s)
        try:
            while True:
                frame = self._read_frame()
                if "event" in frame:
                    return frame
        finally:
            if timeout_s is not None:
                self._sock.settimeout(previous)

    def iter_events(self, n: int, timeout_s: float | None = None):
        """Yield up to ``n`` event frames."""
        for _ in range(n):
            yield self.next_event(timeout_s)

    # ------------------------------------------------------------ convenience

    def ping(self) -> dict:
        return self.request("ping")

    def server_info(self) -> dict:
        return self.request("server_info")

    def list_sessions(self) -> list[dict]:
        return self.request("list_sessions")["sessions"]

    def create_session(
        self, workload: str, tenant: str | None = None, **params
    ) -> dict:
        """Create one profiling session.

        ``tenant`` names the admission principal for per-tenant quota
        accounting; over-quota creates fail with the ``overloaded``
        error code (retry with backoff, or close a session first).
        """
        if tenant is not None:
            params["tenant"] = tenant
        return self.request("create_session", workload=workload, **params)

    def resume_session(self, session: str, tenant: str | None = None) -> dict:
        """Re-admit a checkpointed (idle-evicted) session.

        Only sessions evicted by a ``--evict-to-disk`` server carry a
        checkpoint; anything else fails with ``unknown_session``.  The
        resumed session re-enters through normal admission (capacity
        and tenant quota), catches back up deterministically to its
        checkpointed epoch count, and keeps its original session id
        and seq numbering — ``subscribe(from_seq=...)`` streams
        gap-free across the eviction.
        """
        params = {"session": session}
        if tenant is not None:
            params["tenant"] = tenant
        return self.request("resume_session", **params)

    def step(self, session: str, epochs: int = 1) -> dict:
        return self.request("step", session=session, epochs=epochs)

    def stats(self, session: str) -> dict:
        return self.request("stats", session=session)

    def numa_maps(self, session: str, pids=None) -> str:
        return self.request("numa_maps", session=session, pids=pids)["numa_maps"]

    def reconfigure(self, session: str, **changes) -> dict:
        return self.request("reconfigure", session=session, changes=changes)

    def subscribe(
        self,
        session: str,
        max_queue: int = 64,
        max_rate_hz: float | None = None,
        from_seq: int | None = None,
    ) -> dict:
        """Attach to a session's event stream.

        ``from_seq`` (ledger-backed servers only) replays every
        persisted frame with ``seq >= from_seq`` before the live tail —
        the replayed frames arrive as ordinary events, in order, with
        seq numbering continuous into the live stream.
        """
        params = {"session": session, "max_queue": max_queue}
        if max_rate_hz is not None:
            params["max_rate_hz"] = max_rate_hz
        if from_seq is not None:
            params["from_seq"] = from_seq
        return self.request("subscribe", **params)

    def unsubscribe(self, subscription: str) -> dict:
        return self.request("unsubscribe", subscription=subscription)

    def close_session(
        self,
        session: str,
        include_epochs: bool = False,
        epochs_from: int = 0,
        epochs_to: int | None = None,
    ) -> dict:
        """Close a session; optionally attach a bounded epoch window."""
        params = {"session": session}
        if include_epochs:
            params["include_epochs"] = True
            params["epochs_from"] = epochs_from
            if epochs_to is not None:
                params["epochs_to"] = epochs_to
        return self.request("close_session", **params)

    def metrics(self) -> dict:
        """The server's merged metrics snapshot (all worker processes)."""
        return self.request("metrics")["metrics"]
