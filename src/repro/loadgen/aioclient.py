"""A multiplexing asyncio JSON-lines client for the profiling service.

The blocking :class:`~repro.service.client.ServiceClient` holds one
request in flight per connection — fine for a REPL, useless for a load
generator that needs thousands of concurrent operations on a box with
a bounded fd budget.  This client multiplexes: any number of
coroutines share one connection, each ``request()`` gets a fresh frame
id and parks on a future, and a single reader task routes every
response line back to its waiter by id.  Event frames (subscription
pushes and goodbye frames, which carry ``event`` instead of ``id``)
are handed to an ``on_event`` callback as they arrive, so latency
measurement never blocks behind event consumption.

Connection death is propagated: when the read loop hits EOF or an
error, every pending future fails with :class:`ConnectionError` and
subsequent requests fail fast.
"""

from __future__ import annotations

import asyncio

from ..service.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ServiceError,
    decode_frame,
    encode_frame,
)

__all__ = ["AsyncServiceClient"]


class AsyncServiceClient:
    """Many in-flight requests over one connection, response routing by id."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        on_event=None,
    ):
        self._reader = reader
        self._writer = writer
        self._on_event = on_event
        self._write_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        #: Event-stream wire accounting: frames and raw line bytes
        #: received on this connection's subscriptions (the report sums
        #: these across the pool to state delivered telemetry volume).
        self.event_frames = 0
        self.event_bytes = 0
        self._read_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str | None = None,
        port: int | None = None,
        *,
        socket_path: str | None = None,
        address: tuple | list | str | None = None,
        on_event=None,
    ) -> "AsyncServiceClient":
        """Open a TCP or unix-socket connection (same address forms as
        the blocking client)."""
        if address is not None:
            if isinstance(address, str):
                socket_path = address
            else:
                host, port = address[0], int(address[1])
        # The protocol's line limit, not asyncio's 64 KiB default: a
        # long step's response is a legal frame well past the latter.
        if socket_path is not None:
            reader, writer = await asyncio.open_unix_connection(
                socket_path, limit=MAX_LINE_BYTES
            )
        elif host is not None and port is not None:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
        else:
            raise ValueError("need host+port, socket_path, or address")
        return cls(reader, writer, on_event=on_event)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending(self) -> int:
        """Requests awaiting a response right now."""
        return len(self._pending)

    async def _read_loop(self) -> None:
        error: BaseException | None = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                frame = decode_frame(line)
                if "event" in frame:
                    self.event_frames += 1
                    self.event_bytes += len(line)
                    if self._on_event is not None:
                        self._on_event(frame)
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is None or future.done():
                    continue
                if frame.get("ok"):
                    future.set_result(frame.get("result", {}))
                else:
                    err = frame.get("error") or {}
                    future.set_exception(
                        ServiceError(
                            err.get("code", ErrorCode.INTERNAL),
                            err.get("message", "unknown server error"),
                        )
                    )
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        except Exception as exc:  # malformed frame, transport error
            error = exc
        finally:
            self._closed = True
            if error is None:
                error = ConnectionError("server closed the connection")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def request(self, op: str, **params) -> dict:
        """Send one request; await its response.

        Raises :class:`ServiceError` on an error response and
        :class:`ConnectionError` when the connection dies first.
        """
        if self._closed:
            raise ConnectionError("connection is closed")
        self._next_id += 1
        request_id = self._next_id
        payload = {"id": request_id, "op": op}
        if params:
            payload["params"] = params
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(payload))
                await self._writer.drain()
        except Exception:
            self._pending.pop(request_id, None)
            raise
        return await future

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._read_task.cancel()
        try:
            await asyncio.gather(self._read_task, return_exceptions=True)
        finally:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:
                pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
