"""The sticky worker-process pool: the process transport of a session host.

The asyncio server's step path is CPU-bound Python, so a thread
executor alone caps a whole multi-session server at roughly one core
of simulation throughput.  This module moves the simulation out of
the server process: a :class:`WorkerPool` spawns N worker processes
(``multiprocessing`` spawn context — safe to respawn from a threaded
parent), and every session is *pinned* to one worker for its whole
life.  A worker runs the same :class:`~repro.service.host.SessionHost`
an in-thread session calls directly, so pooled runs are bit-identical
to in-thread ones; the parent's
:class:`~repro.service.session.ProfilingSession` handle keeps the
subscriber queues and sends its ops through the worker's
:class:`WorkerHandle` instead of its own host.  Only the worker
imports the host and the simulator behind it: the parent that imports
this module holds handles, pipes and reader threads.

Wire shape on each pipe (pickled tuples):

parent → worker   ``(request_id, op, payload)``
worker → parent   ``("reply", request_id, ok, payload)`` or
                  ``("events", session_id, [(event, payload_bytes), ...])``

Epoch telemetry is *pre-encoded worker-side*: the host's sink receives
each frame's payload already serialized to compact JSON bytes (numpy
coercion applied where the numpy objects live), batches up to
:data:`EVENT_BATCH_MAX` of them per pipe message, and flushes before
every reply — so event batches still stream *during* a long step and
always land before the step's own reply, while the parent splices the
bytes straight into subscriber frames and ledger records without ever
touching the payload dict on the hot path.

Failure contract: a dead worker (killed pid, broken pipe) fails only
its own sessions — every pending request on that pipe raises
``worker_crashed``, every subscriber of its sessions receives one
structured ``error`` frame (seq/dropped accounting intact), the
sessions are handed to the manager via the crash callback (which
rebuilds them from the ledger or discards them), and the slot
respawns a fresh worker; placement waits for it, so a
``create_session`` racing the respawn lands on a live worker.  An
*unpicklable* reply is not a crash: the worker catches the
serialization failure and answers with an ``internal`` error instead.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from .protocol import ErrorCode, ServiceError
from .session import ProfilingSession

__all__ = ["WorkerPool", "resolve_workers"]

_log = obs_log.get_logger("service.workers")

#: How long :meth:`WorkerPool.shutdown` waits for a worker to drain.
DEFAULT_JOIN_TIMEOUT_S = 10.0

#: How long :meth:`WorkerPool.place` waits for a dead worker's respawn.
PLACE_WAIT_S = 15.0

#: Epoch events batched per worker → parent pipe message.  Bounded so
#: a long step still streams telemetry while it runs; small enough
#: that one message never approaches the pipe's buffer limits.
EVENT_BATCH_MAX = 32


class _EventBatcher:
    """A worker's host sink: batch pre-encoded events per pipe send.

    The worker runs one op at a time, so the events between two flushes
    are one session's; a batch is sent when it is full, when another
    session's event arrives, and — by the worker loop — before every
    reply, so all of a step's epoch events reach the parent before the
    step's reply does.
    """

    def __init__(self, conn, max_batch: int = EVENT_BATCH_MAX):
        self._conn = conn
        self._max_batch = max_batch
        self._session_id = None
        self._buffer: list[tuple[str, bytes]] = []

    def __call__(self, session_id: str, event: str, payload: bytes) -> None:
        if session_id != self._session_id:
            self.flush()
            self._session_id = session_id
        self._buffer.append((event, payload))
        if len(self._buffer) >= self._max_batch:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            batch, self._buffer = self._buffer, []
            self._conn.send(("events", self._session_id, batch))


def resolve_workers(workers: int | None) -> int:
    """``None`` → ``$REPRO_SERVICE_WORKERS``, else one worker per CPU
    this process may run on, or ``0`` when that is a single CPU (the
    in-process path wins there, ``docs/service.md``).

    ``0`` keeps the in-process stepping path (no pool at all).
    """
    if workers is None:
        env = os.environ.get("REPRO_SERVICE_WORKERS")
        if env:
            workers = int(env)
        else:
            cpus = (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1
            )
            workers = 0 if cpus == 1 else cpus
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


# --------------------------------------------------------------------------
# Worker-process side
# --------------------------------------------------------------------------


def _worker_main(conn, worker_id: int) -> None:
    """One worker: a blocking command loop over a
    :class:`~repro.service.host.SessionHost`.

    Single-threaded on purpose — commands for this worker's sessions
    execute one at a time, so per-session ordering is trivial and the
    pipe never sees interleaved sends.  Besides the host's ops it
    answers ``ping``, ``metrics`` (its registry, which the parent
    merges: the simulations run here) and the ``_debug`` fault
    injection.
    """
    from .host import SessionHost  # the simulator stack: the child's alone

    batcher = _EventBatcher(conn)
    host = SessionHost(batcher, name=f"worker {worker_id}")
    process_ops = {
        "ping": lambda _: {
            "worker": worker_id, "pid": os.getpid(), "sessions": len(host.sessions)
        },
        "metrics": lambda _: obs_metrics.default_registry().snapshot(),
        "_debug": _debug_action,
    }

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        request_id, op, payload = message
        if op == "shutdown":
            try:
                conn.send(("reply", request_id, True, {"worker": worker_id}))
            except (OSError, ValueError):
                pass
            break
        run = process_ops.get(op) or functools.partial(host.request, op)
        try:
            reply = ("reply", request_id, True, run(payload))
        except ServiceError as exc:
            reply = ("reply", request_id, False, (exc.code, exc.message))
        except Exception as exc:  # noqa: BLE001 — a bad session must not kill the worker
            reply = ("reply", request_id, False,
                     (ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"))
        # Ship any buffered epoch batch before the reply: a step's
        # events precede its reply.
        try:
            batcher.flush()
        except (EOFError, BrokenPipeError, OSError):
            pass
        try:
            conn.send(reply)
        except (EOFError, BrokenPipeError, OSError):
            break
        except Exception as exc:  # noqa: BLE001 — unpicklable reply: degrade, don't die
            try:
                conn.send(
                    ("reply", request_id, False,
                     (ErrorCode.INTERNAL,
                      f"unserializable worker reply: {type(exc).__name__}: {exc}"))
                )
            except Exception:  # noqa: BLE001
                break
    try:
        conn.close()
    except OSError:
        pass


def _debug_action(payload) -> dict:
    """Fault injection for the crash-recovery test suites."""
    action = (payload or {}).get("action")
    if action == "unpicklable":
        return {"callback": lambda: None}  # send() will fail to pickle
    if action == "raise":
        raise RuntimeError("injected worker failure")
    if action == "exit":
        os._exit(17)  # simulate a hard crash mid-request
    return {"actions": ["unpicklable", "raise", "exit"]}


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


class WorkerHandle:
    """One pool slot: a process, its pipe, and a reader thread.

    The slot outlives any individual process: when the worker dies the
    handle fails its pending requests, reports the lost sessions, and
    respawns a fresh process in place (``generation`` advances).
    """

    def __init__(self, index: int, ctx, on_events, on_death):
        self.index = index
        self._ctx = ctx
        self._on_events = on_events
        self._on_death = on_death
        #: Session ids currently pinned to this slot.
        self.sessions: set[str] = set()
        self.generation = 0
        self.closing = False
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        #: Serialises a respawn against ``close()``: a death that lost
        #: the race to shutdown starts nothing, and ``close()`` never
        #: sees a process that is constructed but not yet started.
        self._lifecycle_lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._request_ids = itertools.count(1)
        self.process = None
        self.conn = None
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.index),
            name=f"repro-service-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        # The pipe first: a slot whose process reads as alive must not
        # still hold the dead one's closed pipe (placement checks
        # ``process.is_alive()`` and then sends on ``conn``).
        self.conn, self.process = parent_conn, process
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent_conn, self.generation),
            name=f"repro-service-reader-{self.index}",
            daemon=True,
        )
        reader.start()

    # ---------------------------------------------------------------- I/O

    def request(self, op: str, payload=None, timeout_s: float | None = None):
        """Send one command; block for its reply.

        Raises :class:`ServiceError` with the worker's error code, or
        ``worker_crashed`` when the pipe is (or goes) dead.
        """
        future: Future = Future()
        request_id = next(self._request_ids)
        with self._pending_lock:
            self._pending[request_id] = future
        try:
            with self._send_lock:
                self.conn.send((request_id, op, payload))
        except (OSError, BrokenPipeError, ValueError) as exc:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ServiceError(
                ErrorCode.WORKER_CRASHED,
                f"worker {self.index} unavailable: {exc}",
            ) from exc
        try:
            ok, payload = future.result(timeout_s)
        except FutureTimeoutError:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ServiceError(
                ErrorCode.INTERNAL,
                f"worker {self.index} did not answer {op!r} within {timeout_s}s",
            ) from None
        if ok:
            return payload
        raise ServiceError(*payload)

    def _read_loop(self, conn, generation: int) -> None:
        try:
            while True:
                message = conn.recv()
                kind = message[0]
                if kind == "reply":
                    _, request_id, ok, payload = message
                    with self._pending_lock:
                        future = self._pending.pop(request_id, None)
                    if future is not None:
                        future.set_result((ok, payload))
                elif kind == "events":
                    _, session_id, batch = message
                    self._on_events(session_id, batch)
        except (EOFError, OSError):
            pass
        finally:
            if generation == self.generation and not self.closing:
                self._handle_death()

    def _handle_death(self) -> None:
        """The worker died underneath us: fail, report, respawn."""
        self.process.join(timeout=1.0)  # reap first so exitcode is real
        message = (
            f"worker {self.index} (pid {getattr(self.process, 'pid', '?')}) "
            f"died with exit code {self.process.exitcode}"
        )
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            future.set_result((False, (ErrorCode.WORKER_CRASHED, message)))
        lost = sorted(self.sessions)
        self.sessions.clear()
        try:
            self.conn.close()
        except OSError:
            pass
        # Report the lost sessions *before* the respawn so their
        # subscribers see the error frame the moment the pipe breaks.
        self._on_death(self.index, lost, message)
        self.generation += 1
        with self._lifecycle_lock:
            if not self.closing:
                self._spawn()

    # ----------------------------------------------------------- lifecycle

    def close(self, timeout_s: float = DEFAULT_JOIN_TIMEOUT_S) -> None:
        """Graceful stop: ask the worker to exit, then join or kill."""
        with self._lifecycle_lock:
            self.closing = True
        try:
            self.request("shutdown", timeout_s=timeout_s)
        except ServiceError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout_s)


class WorkerPool:
    """N sticky worker processes plus the session → worker registry."""

    def __init__(self, n_workers: int, on_session_crash=None, mp_context="spawn"):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        #: Called with ``(session_ids, message)`` after a worker death,
        #: once the sessions are already marked crashed — the server
        #: uses it to discard them from the manager.
        self.on_session_crash = on_session_crash
        self._ctx = multiprocessing.get_context(mp_context)
        self._lock = threading.Lock()
        self._sessions: dict[str, ProfilingSession] = {}
        self.respawns = 0
        self.workers = [
            WorkerHandle(i, self._ctx, self._route_events, self._worker_died)
            for i in range(self.n_workers)
        ]

    # ------------------------------------------------------------- routing

    def _route_events(self, session_id: str, batch) -> None:
        """Fan one worker pipe batch of pre-encoded events out.

        The payload bytes were encoded in the worker; the parent
        splices them into subscriber frames and ledger records without
        decoding.
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is not None:
            session._fanout_batch(batch)

    def _worker_died(self, index: int, lost: list[str], message: str) -> None:
        self.respawns += 1
        obs_metrics.default_registry().counter(
            "repro_service_worker_respawns_total",
            "Worker processes respawned after a crash",
        ).inc()
        _log.warning(
            "worker_respawn", worker=index, lost_sessions=lost, message=message
        )
        crashed: list[ProfilingSession] = []
        with self._lock:
            for session_id in lost:
                session = self._sessions.pop(session_id, None)
                if session is not None:
                    crashed.append(session)
        for session in crashed:
            session.mark_crashed(message)
        if self.on_session_crash is not None and lost:
            self.on_session_crash(lost, message)

    # ------------------------------------------------------------ sessions

    def session_factory(self, session_id: str, clock=time.monotonic, **params):
        """Build one session on the least-loaded worker (sticky)."""
        return ProfilingSession(session_id, pool=self, clock=clock, **params)

    def place(self, session: ProfilingSession) -> WorkerHandle:
        """Pin ``session`` to the least-loaded live worker: its ``host``.

        A dead slot respawns on its reader thread; while no worker is
        alive this waits up to :data:`PLACE_WAIT_S` for one, so a
        create or a crash recovery racing a respawn lands on the fresh
        worker.  Raises ``worker_crashed`` when none comes up or the
        pool is shutting down.
        """
        deadline = time.monotonic() + PLACE_WAIT_S
        while True:
            with self._lock:
                alive = [
                    w for w in self.workers if not w.closing and w.process.is_alive()
                ]
                if alive:
                    worker = min(alive, key=lambda w: (len(w.sessions), w.index))
                    worker.sessions.add(session.session_id)
                    self._sessions[session.session_id] = session
                    session.host = worker
                    return worker
                shut = all(w.closing for w in self.workers)
            if shut or time.monotonic() >= deadline:
                raise ServiceError(
                    ErrorCode.WORKER_CRASHED,
                    f"no live worker to place session {session.session_id} on",
                )
            time.sleep(0.05)

    def release(self, session: ProfilingSession) -> None:
        """Forget a session (closed or failed-to-create)."""
        with self._lock:
            self._sessions.pop(session.session_id, None)
            session.host.sessions.discard(session.session_id)

    # ------------------------------------------------------------ lifecycle

    def info(self) -> dict:
        with self._lock:
            per_worker = {w.index: len(w.sessions) for w in self.workers}
        return {
            "workers": self.n_workers,
            "alive": sum(w.process.is_alive() for w in self.workers),
            "sessions_per_worker": per_worker,
            "respawns": self.respawns,
        }

    def collect_metrics(self, timeout_s: float = DEFAULT_JOIN_TIMEOUT_S) -> list[dict]:
        """Every live worker's metrics snapshot (piggybacked RPC).

        A worker that crashes or stalls mid-collection contributes
        nothing rather than failing the whole scrape.
        """
        snapshots = []
        for worker in self.workers:
            try:
                snapshots.append(worker.request("metrics", timeout_s=timeout_s))
            except ServiceError:
                continue
        return snapshots

    def shutdown(self, timeout_s: float = DEFAULT_JOIN_TIMEOUT_S) -> None:
        """Drain path: stop every worker, joining gracefully first."""
        for worker in self.workers:
            worker.closing = True
        for worker in self.workers:
            worker.close(timeout_s=timeout_s)
        with self._lock:
            self._sessions.clear()
