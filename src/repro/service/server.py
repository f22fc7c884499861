"""The asyncio JSON-lines profiling server.

One connection carries any number of requests (handled sequentially
per connection, concurrently across connections) plus pushed event
frames for that connection's subscriptions.  Blocking work — session
construction, epoch stepping, daemon reads — runs in a worker
executor so the event loop stays responsive while many tenants step
at once; each session's host steps it one call at a time.

With ``workers > 0`` the executor threads are merely RPC couriers:
simulation lives in a sticky :class:`~repro.service.workers.WorkerPool`
of worker *processes*, so concurrent sessions step on separate cores
instead of contending for the GIL.  ``workers=0`` (the default for
embedded servers) hosts every session in-thread.

This module is transport and dispatch only.  Every session lifecycle
transition — create, evict/checkpoint, resume, crash recovery, close —
belongs to :class:`~repro.service.manager.SessionManager`, which
``start()`` builds once from the ledger and the pool; nothing is
assigned onto it afterwards.

Lifecycle: ``start()`` binds a TCP port or unix socket and installs
SIGTERM/SIGINT handlers when the platform allows; ``drain()`` (also
the signal path) stops accepting, rejects new work with
``shutting_down``, lets in-flight requests finish, flushes subscriber
queues, closes every session, and joins the worker pool before waking
``serve_forever``.

:class:`ServerThread` hosts a server in a daemon thread with its own
event loop — the embedding used by the blocking client's tests and by
``examples/service_quickstart.py``, whose output ``tests/test_examples.py``
pins.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

from ..ledger import Ledger
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from .manager import SessionManager
from .protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ServiceError,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    splice_event_frame,
)
from .workers import WorkerPool, resolve_workers

__all__ = ["ServiceServer", "ServerThread"]

_log = obs_log.get_logger("service.server")

#: The ``op`` label of a request whose op is not in the op table: the
#: label values stay the server's, whatever a client sends.
UNKNOWN_OP_LABEL = "unknown"

_requests_total = obs_metrics.per_registry(
    lambda registry: registry.counter(
        "repro_service_requests_total",
        "Requests handled by the JSON-lines server",
        labelnames=("op", "outcome"),
    )
)
_steps_inflight_gauge = obs_metrics.per_registry(
    lambda registry: registry.gauge(
        "repro_service_steps_inflight", "Step requests currently executing"
    )
)


def _number_param(params: dict, name: str, default=None, *, real=False, minimum=None):
    """``params[name]``, or ``default`` when absent, checked to be an
    integer (any number if ``real``) of at least ``minimum``.

    A ``None`` default makes the param optional: ``null`` reads as
    absent.  A JSON boolean is no number, although Python's ``bool``
    is an ``int``.
    """
    value = params.get(name, default)
    if value is None and default is None:
        return None
    kinds = (int, float) if real else int
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or (minimum is not None and value < minimum)
    ):
        what = "a number" if real else "an integer"
        if minimum is not None:
            what += f" >= {minimum}"
        raise ServiceError(ErrorCode.BAD_PARAMS, f"{name} must be {what}")
    return value


def _pids_param(params: dict):
    """``params["pids"]``: absent or ``null`` (every process), or a
    list of integers."""
    pids = params.get("pids")
    if pids is not None and (
        not isinstance(pids, list)
        or any(isinstance(pid, bool) or not isinstance(pid, int) for pid in pids)
    ):
        raise ServiceError(
            ErrorCode.BAD_PARAMS, "pids must be null or a list of integers"
        )
    return pids


class _Connection:
    """Per-connection state: serialized writes + live subscriptions."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        #: subscription_id -> (session, sub_queue, pump_task, wake_event)
        self.subs: dict[str, tuple] = {}

    async def send(self, frame: dict) -> None:
        await self.send_raw(encode_frame(frame))

    async def send_raw(self, blob: bytes) -> None:
        async with self.write_lock:
            self.writer.write(blob)
            await self.writer.drain()

    async def send_many(self, blobs: list[bytes]) -> None:
        """Coalesced write: everything buffered in one lock acquire.

        N frames cost one ``b"".join``, one ``write()``, and one
        ``drain()`` instead of N lock/write/drain round-trips — the
        output-side half of the serialize-once fan-out.
        """
        if not blobs:
            return
        async with self.write_lock:
            self.writer.write(b"".join(blobs))
            await self.writer.drain()

    async def flush_sub(self, subscription_id: str) -> None:
        """Push whatever the subscription has buffered right now.

        Drains the queue object directly so frames pushed right before
        a close (eviction/drain goodbyes) still deliver after the
        session detached its subscriber table.
        """
        entry = self.subs.get(subscription_id)
        if entry is None:
            return
        session, sub, _, _ = entry
        await self.send_many(session.drain_queue_encoded(sub))

    def close(self) -> None:
        for _, (session, sub, task, _) in list(self.subs.items()):
            task.cancel()
            session.unsubscribe(sub.subscription_id)
        self.subs.clear()
        try:
            self.writer.close()
        except Exception:
            pass


class ServiceServer:
    """Hosts many concurrent profiling sessions over JSON lines."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        max_sessions: int = 16,
        idle_ttl_s: float = 600.0,
        tenant_quota: int | None = None,
        max_inflight_steps: int | None = None,
        step_workers: int | None = None,
        workers: int | None = 0,
        reap_interval_s: float = 5.0,
        metrics_port: int | None = None,
        ledger_dir: str | None = None,
        ledger_fsync: str = "rotate",
        ledger_segment_bytes: int | None = None,
        ledger_retention_bytes: int | None = None,
        ledger_retention_age_s: float | None = None,
        evict_to_disk: bool = False,
    ):
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self.tenant_quota = tenant_quota
        #: Built by :meth:`start`, once the worker pool it builds
        #: sessions through exists.
        self.manager: SessionManager | None = None
        #: Global backpressure on stepping: at most this many ``step``
        #: requests execute (or wait on an executor thread) at once;
        #: excess requests are rejected immediately with a structured
        #: ``overloaded`` error instead of queueing without bound and
        #: dragging every tenant's latency down.  None/0 disables.
        self.max_inflight_steps = max_inflight_steps or None
        self._steps_inflight = 0
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.step_workers = step_workers
        #: Worker *processes* for session execution.  0 = in-process
        #: stepping (the historical path); None = $REPRO_SERVICE_WORKERS
        #: or the core count (what ``repro serve`` passes by default).
        self.workers = resolve_workers(workers)
        self.reap_interval_s = float(reap_interval_s)
        #: Optional Prometheus scrape endpoint (`--metrics-port`); 0
        #: binds an ephemeral port, None disables the endpoint.
        self.metrics_port = metrics_port
        self.metrics_address: tuple[str, int] | None = None
        #: The endpoint's :class:`~repro.obs.http.MetricsHTTPServer`.
        self._metrics_http = None
        #: Durable event-sourced telemetry (``--ledger-dir``): every
        #: session's frames append to an on-disk ledger, enabling
        #: ``subscribe(from_seq=...)`` replay and crashed-session
        #: recovery.  None disables all of it (the historical path).
        self._ledger: Ledger | None = None
        if ledger_dir:
            ledger_kwargs = {"fsync": ledger_fsync}
            if ledger_segment_bytes is not None:
                ledger_kwargs["segment_bytes"] = ledger_segment_bytes
            self._ledger = Ledger(
                ledger_dir,
                retention_bytes=ledger_retention_bytes,
                retention_age_s=ledger_retention_age_s,
                **ledger_kwargs,
            )
        self.evict_to_disk = bool(evict_to_disk)
        self.address: tuple[str, int] | str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pool: WorkerPool | None = None
        self._connections: set[_Connection] = set()
        self._reaper: asyncio.Task | None = None
        self._inflight = 0
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._ops = {
            "ping": self._op_ping,
            "server_info": self._op_server_info,
            "list_sessions": self._op_list_sessions,
            "create_session": self._op_create_session,
            "step": self._op_step,
            "stats": self._op_stats,
            "numa_maps": self._op_numa_maps,
            "reconfigure": self._op_reconfigure,
            "subscribe": self._op_subscribe,
            "unsubscribe": self._op_unsubscribe,
            "close_session": self._op_close_session,
            "resume_session": self._op_resume_session,
            "metrics": self._op_metrics,
        }

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> "ServiceServer":
        """Bind the socket, start the reaper, install signal handlers.

        Everything a request needs is imported before the bind, so no
        request pays for an import.  An in-process server (``workers=0``)
        imports the host here, and with it the simulator stack; a pooled
        parent never imports either, because its workers simulate.  The
        metrics endpoint's HTTP server is imported only when one is
        asked for.
        """
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        step_threads = self.step_workers
        if self.workers == 0:
            from . import host  # noqa: F401
        else:
            self._pool = WorkerPool(
                self.workers, on_session_crash=self._on_worker_crash
            )
            if step_threads is None:
                # Executor threads only courier RPCs to the pool; give
                # the pool headroom so threads never gate core count.
                step_threads = max(8, 4 * self.workers)
        self.manager = SessionManager(
            max_sessions=self.max_sessions,
            idle_ttl_s=self.idle_ttl_s,
            tenant_quota=self.tenant_quota,
            ledger=self._ledger,
            evict_to_disk=self.evict_to_disk,
            pool=self._pool,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=step_threads,
            thread_name_prefix="repro-service-step",
        )
        if self.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path, limit=MAX_LINE_BYTES
            )
            self.address = self.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
            )
            self.address = self._server.sockets[0].getsockname()[:2]
        if self.metrics_port is not None:
            from ..obs.http import MetricsHTTPServer

            self._metrics_http = MetricsHTTPServer(
                self.collect_metrics, host=self.host, port=self.metrics_port
            )
            self._metrics_http.start()
            self.metrics_address = self._metrics_http.address
        if self.reap_interval_s > 0:
            self._reaper = asyncio.create_task(self._reap_loop())
        _log.info(
            "server_started",
            address=list(self.address)
            if isinstance(self.address, tuple)
            else self.address,
            workers=self.workers,
            metrics_address=list(self.metrics_address)
            if self.metrics_address
            else None,
        )
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or platform without signal support:
                # drain() stays reachable programmatically.
                break
        return self

    async def serve_forever(self) -> None:
        """Block until :meth:`drain` completes (signal or explicit)."""
        if self._stopped is None:
            raise RuntimeError("call start() first")
        await self._stopped.wait()

    async def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful shutdown: finish in-flight work, flush, close all."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._loop.time() + timeout_s
        while self._inflight > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        # Flush whatever subscribers still have buffered, then detach.
        for conn in list(self._connections):
            for sub_id in list(conn.subs):
                try:
                    await conn.flush_sub(sub_id)
                except (ConnectionError, RuntimeError):
                    break
        if self._reaper is not None:
            self._reaper.cancel()
        # Close sessions while workers are still alive (summaries come
        # back over the pipes), then join the pool itself.
        await self._run_blocking(self.manager.close_all)
        # close_all fanned one structured server_drain goodbye into each
        # queue after the flush above; push those before tearing down.
        for conn in list(self._connections):
            for sub_id in list(conn.subs):
                try:
                    await conn.flush_sub(sub_id)
                except (ConnectionError, RuntimeError):
                    break
        if self._pool is not None:
            await self._run_blocking(self._pool.shutdown)
        for conn in list(self._connections):
            conn.close()
        if self._metrics_http is not None:
            self._metrics_http.close()
            self._metrics_http = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        _log.info("server_drained")
        self._stopped.set()

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval_s)
            # Evictions are surfaced through list_sessions.
            await self._run_blocking(self.manager.evict_idle)

    async def _run_blocking(self, fn, *args, **kwargs):
        return await self._loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    def _on_worker_crash(self, session_ids, message) -> None:
        """Pool callback (reader thread): hand each dead session to
        :meth:`SessionManager.recover`, which rebuilds it from the
        ledger or releases its slots."""
        for session_id in session_ids:
            self._executor.submit(self.manager.recover, session_id)

    async def _op_resume_session(self, conn, params) -> dict:
        if self._draining:
            raise ServiceError(ErrorCode.SHUTTING_DOWN, "server is draining")
        session = await self._run_blocking(
            self.manager.resume, self._session_id(params), params.get("tenant")
        )
        return session.info()

    # ----------------------------------------------------------- connections

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await conn.send(
                        error_response(
                            None, ErrorCode.BAD_REQUEST, "frame too long"
                        )
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(conn, line)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            conn.close()

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        request_id = None
        op = None
        self._inflight += 1
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            op = frame.get("op")
            handler = self._ops.get(op)
            if handler is None:
                raise ServiceError(ErrorCode.UNKNOWN_OP, f"unknown op: {op!r}")
            params = frame.get("params") or {}
            if not isinstance(params, dict):
                raise ServiceError(
                    ErrorCode.BAD_REQUEST, "params must be a JSON object"
                )
            result = await handler(conn, params)
            response = ok_response(request_id, result)
            outcome = "ok"
        except ServiceError as exc:
            response = error_response(request_id, exc.code, exc.message)
            outcome = str(exc.code)
        except Exception as exc:  # noqa: BLE001 — survive bad tenants
            response = error_response(
                request_id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
            outcome = "internal"
        finally:
            self._inflight -= 1
        if not isinstance(op, str) or op not in self._ops:
            op = UNKNOWN_OP_LABEL
        _requests_total().inc(op=op, outcome=outcome)
        try:
            await conn.send(response)
        except ServiceError as exc:
            # The *response* violated the outbound line limit (e.g. a
            # close_session(include_epochs=...) window too large for one
            # frame).  Substitute a structured error so the client
            # learns why instead of the peer's decoder rejecting the
            # oversized line — or the connection just going quiet.
            try:
                await conn.send(error_response(request_id, exc.code, exc.message))
            except (ServiceError, ConnectionError):
                pass
        except ConnectionError:
            pass

    # ------------------------------------------------------------------- ops

    @staticmethod
    def _session_id(params: dict):
        session_id = params.get("session")
        if session_id is None:
            raise ServiceError(ErrorCode.BAD_PARAMS, "missing 'session' param")
        return session_id

    async def _op_ping(self, conn, params) -> dict:
        return {"pong": True}

    async def _op_server_info(self, conn, params) -> dict:
        address = self.address
        info = {
            "sessions": len(self.manager),
            "max_sessions": self.manager.max_sessions,
            "idle_ttl_s": self.manager.idle_ttl_s,
            "tenant_quota": self.manager.tenant_quota,
            "tenants": self.manager.tenants(),
            "max_inflight_steps": self.max_inflight_steps,
            "steps_inflight": self._steps_inflight,
            "draining": self._draining,
            "address": list(address) if isinstance(address, tuple) else address,
            "workers": self.workers,
            "evict_to_disk": self.manager.evict_to_disk,
            "sessions_checkpointed": self.manager.sessions_checkpointed,
            "sessions_resumed": self.manager.sessions_resumed,
        }
        if self._pool is not None:
            info["worker_pool"] = self._pool.info()
        if self._ledger is not None:
            info["ledger"] = {
                "root": str(self._ledger.root),
                "fsync": self._ledger.fsync,
                "sessions": self._ledger.count_sessions(),
            }
        else:
            info["ledger"] = None
        return info

    async def _op_list_sessions(self, conn, params) -> dict:
        return {"sessions": self.manager.list_sessions()}

    async def _op_create_session(self, conn, params) -> dict:
        if self._draining:
            raise ServiceError(ErrorCode.SHUTTING_DOWN, "server is draining")
        session = await self._run_blocking(self.manager.create, **params)
        return session.info()

    async def _op_step(self, conn, params) -> dict:
        if self._draining:
            raise ServiceError(ErrorCode.SHUTTING_DOWN, "server is draining")
        session = self.manager.get(self._session_id(params))
        epochs = _number_param(params, "epochs", 1)
        limit = self.max_inflight_steps
        if limit is not None and self._steps_inflight >= limit:
            # Load-shedding: reject *now* with the same structured
            # {code, message} shape the goodbye frames carry, rather
            # than queueing the step and inflating every tenant's p99.
            obs_metrics.default_registry().counter(
                "repro_service_steps_rejected_total",
                "Step requests shed by the in-flight concurrency limit",
            ).inc()
            raise ServiceError(
                ErrorCode.OVERLOADED,
                f"server overloaded: {self._steps_inflight} steps in flight "
                f"(limit {limit}); retry with backoff",
            )
        # Counter mutations happen on the event loop only (before/after
        # the await), so no lock is needed.
        self._steps_inflight += 1
        inflight = _steps_inflight_gauge()
        inflight.set(self._steps_inflight)
        try:
            return await self._run_blocking(session.step, epochs)
        finally:
            self._steps_inflight -= 1
            inflight.set(self._steps_inflight)

    async def _op_stats(self, conn, params) -> dict:
        session = self.manager.get(self._session_id(params))
        return await self._run_blocking(session.stats)

    async def _op_numa_maps(self, conn, params) -> dict:
        session = self.manager.get(self._session_id(params))
        text = await self._run_blocking(session.numa_maps, _pids_param(params))
        return {"session": session.session_id, "numa_maps": text}

    async def _op_reconfigure(self, conn, params) -> dict:
        session = self.manager.get(self._session_id(params))
        return await self._run_blocking(
            session.reconfigure, params.get("changes")
        )

    async def _op_subscribe(self, conn, params) -> dict:
        session = self.manager.get(self._session_id(params))
        max_queue = _number_param(params, "max_queue", 64)
        max_rate_hz = _number_param(params, "max_rate_hz", real=True)
        from_seq = _number_param(params, "from_seq", minimum=0)
        if from_seq is not None and session.ledger is None:
            raise ServiceError(
                ErrorCode.BAD_PARAMS,
                "from_seq needs a ledger; start the server with --ledger-dir",
            )
        initial_dropped = 0
        if from_seq is not None:
            # Retention may have compacted the oldest records away;
            # surface that gap through the same cumulative ``dropped``
            # counter the live drop-oldest path already uses.
            initial_dropped = max(0, session.ledger.first_seq - from_seq)
        wake = asyncio.Event()
        loop = self._loop
        sub = session.subscribe(
            max_queue=max_queue,
            notify=lambda: loop.call_soon_threadsafe(wake.set),
            max_rate_hz=max_rate_hz,
            initial_dropped=initial_dropped,
        )
        replayed = 0
        live_start = sub.seq
        if from_seq is not None:
            # Replay ``[from_seq, live_start)`` from disk before the
            # live pump starts.  The subscriber attached at
            # ``live_start`` and every earlier frame was appended inside
            # the fan-out's critical section, so the disk→queue handoff
            # is gap-free and exactly-once: replay stops precisely where
            # the queue begins.
            replayed, initial_dropped = await self._replay(
                conn, session, sub, from_seq, live_start, initial_dropped
            )
        task = asyncio.create_task(self._pump(conn, session, sub, wake))
        conn.subs[sub.subscription_id] = (session, sub, task, wake)
        session.touch()
        result = {
            "session": session.session_id,
            "subscription": sub.subscription_id,
            "max_queue": sub.max_queue,
        }
        if from_seq is not None:
            result.update(
                from_seq=from_seq,
                replayed=replayed,
                dropped=initial_dropped,
                live_seq=live_start,
            )
        return result

    #: Ledger records replayed per executor round-trip: bounds both the
    #: event-loop hold time and the memory one huge replay can pin.
    _REPLAY_BATCH = 256

    async def _replay(
        self, conn, session, sub, from_seq, end_seq, dropped
    ) -> tuple[int, int]:
        """Stream ledger records ``[from_seq, end_seq)`` to ``conn``.

        Returns ``(replayed, dropped)`` where ``dropped`` is the final
        cumulative drop count.  Retention compaction can race this
        replay and remove segments out from under ``read_encoded`` —
        mid-batch (a compacted segment yields nothing and the reader
        skips to the next one) as well as between batches — so every
        missing seq is accounted per record: any jump past the cursor
        raises the subscriber's cumulative ``dropped`` (mirrored into
        already-queued live frames) instead of leaking a silent gap.
        """
        ledger = session.ledger
        replayed = 0
        cursor = from_seq
        while cursor < end_seq:
            # read_encoded hands back the payload bytes exactly as the
            # fan-out persisted them, so each replayed frame is one
            # envelope splice — zero payload encodes — and the whole
            # batch goes out as one coalesced write.
            batch = await self._run_blocking(
                lambda start=cursor: list(
                    itertools.islice(
                        ledger.read_encoded(start, end_seq), self._REPLAY_BATCH
                    )
                )
            )
            if not batch:
                # The whole remaining window was compacted away:
                # account it, then fall through to the live queue.
                gap = end_seq - cursor
                dropped += gap
                session.account_replay_gap(sub, gap)
                cursor = end_seq
                break
            frames = []
            for seq, event, payload in batch:
                if seq > cursor:
                    gap = seq - cursor
                    dropped += gap
                    session.account_replay_gap(sub, gap)
                frames.append(
                    splice_event_frame(
                        event,
                        session.session_id,
                        sub.subscription_id,
                        seq,
                        dropped,
                        payload,
                    )
                )
                cursor = seq + 1
            await conn.send_many(frames)
            replayed += len(frames)
        obs_metrics.default_registry().counter(
            "repro_ledger_replay_frames_total",
            "Frames replayed from session ledgers to subscribers",
        ).inc(replayed)
        return replayed, dropped

    async def _op_unsubscribe(self, conn, params) -> dict:
        sub_id = params.get("subscription")
        entry = conn.subs.pop(sub_id, None)
        if entry is None:
            raise ServiceError(
                ErrorCode.BAD_PARAMS, f"unknown subscription: {sub_id!r}"
            )
        session, sub, task, _ = entry
        task.cancel()
        session.unsubscribe(sub.subscription_id)
        return {"subscription": sub_id, "unsubscribed": True}

    async def _op_close_session(self, conn, params) -> dict:
        session_id = self._session_id(params)
        include_epochs = params.get("include_epochs", False)
        if not isinstance(include_epochs, bool):
            raise ServiceError(
                ErrorCode.BAD_PARAMS, "include_epochs must be a boolean"
            )
        epochs_from = _number_param(params, "epochs_from", 0, minimum=0)
        epochs_to = _number_param(params, "epochs_to")
        summary = await self._run_blocking(
            self.manager.close,
            session_id,
            include_epochs=include_epochs,
            epochs_from=epochs_from,
            epochs_to=epochs_to,
        )
        return {"session": session_id, "result": summary}

    async def _op_metrics(self, conn, params) -> dict:
        return {"metrics": await self._run_blocking(self.collect_metrics)}

    def collect_metrics(self) -> dict:
        """One merged metrics snapshot: this process plus every worker.

        Blocking (worker round-trips); the async path runs it in the
        executor, and the Prometheus endpoint calls it from its own
        serving thread.
        """
        registry = obs_metrics.default_registry()
        if self._pool is not None:
            registry.gauge(
                "repro_service_workers_alive", "Live worker processes"
            ).set(self._pool.info()["alive"])
        snapshots = [registry.snapshot()]
        if self._pool is not None:
            snapshots.extend(self._pool.collect_metrics())
        return obs_metrics.merge_snapshots(snapshots)

    async def _pump(self, conn: _Connection, session, sub, wake) -> None:
        """Forward one subscription's frames to its connection.

        A slow connection blocks only here — the session's stepping
        path keeps pushing into the bounded queue (dropping oldest),
        never waiting on this writer.
        """
        try:
            while True:
                await wake.wait()
                wake.clear()
                while True:
                    blobs = session.drain_queue_encoded(sub)
                    if not blobs:
                        break
                    if sub.min_interval_s:
                        # Throttled delivery stays frame-at-a-time:
                        # while we sleep, the session keeps pushing
                        # into the bounded queue and sheds the oldest.
                        for blob in blobs:
                            await conn.send_raw(blob)
                            await asyncio.sleep(sub.min_interval_s)
                    else:
                        # Coalesced delivery: the whole backlog in one
                        # write under one lock acquire.
                        await conn.send_many(blobs)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            session.unsubscribe(sub.subscription_id)


class ServerThread:
    """A ServiceServer on a dedicated daemon thread + event loop.

    The embedding for synchronous programs (tests, examples, notebook
    use): ``with ServerThread(...) as srv`` yields a running server
    whose ``address`` a blocking :class:`ServiceClient` can dial.
    """

    def __init__(self, **server_kwargs):
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self.server: ServiceServer | None = None
        self.address: tuple[str, int] | str | None = None

    def start(self, timeout_s: float = 15.0):
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise TimeoutError("service thread did not come up")
        if self._error is not None:
            raise self._error
        return self.address

    def stop(self, timeout_s: float = 15.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop
            )
            try:
                future.result(timeout_s)
            except Exception:
                pass
        self._thread.join(timeout_s)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            self.server = ServiceServer(**self._kwargs)
            await self.server.start()
        except BaseException as exc:  # surface bind errors to start()
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self.address = self.server.address
        self._ready.set()
        await self.server.serve_forever()

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
