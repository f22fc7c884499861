"""One profiling session: a handle over a host.

The manager holds one :class:`ProfilingSession` per tenant session.
It is the tenancy — identity, activity tracking, the eviction claim,
bounded subscriber queues, the session-global frame seq and the ledger
append — and it forwards every simulation op (``step``, ``stats``,
``numa_maps``, ``reconfigure``, ``snapshot``, ``close``) to a host:
the op table over the session's simulator and daemon
(:class:`~repro.service.host.SessionHost`).  A host has two
transports: in-thread (the session's own host, called directly) and a
pool worker process (:mod:`~repro.service.workers`).  Either way each
frame's payload is encoded once on the host and fans out through the
handle's one path.

This module imports no simulator: a pooled server's parent holds
handles only.  An in-thread handle imports :mod:`~repro.service.host`
when it builds its host.

Thread model: the server executes stepping and daemon reads in a
worker executor so the event loop stays responsive, while subscriber
drains happen on the loop.  Two locks keep that safe — a hosted
session's ``_sim_lock`` serializes simulator/daemon access (one step
at a time per session), the handle's ``_sub_lock`` guards the
subscriber table so frames can be drained *while* a step is still
producing them.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..obs import metrics as obs_metrics
from .protocol import ErrorCode, ServiceError, encode_payload, splice_event_frame
from .telemetry import crash_event_data, recovered_event_data

__all__ = [
    "ProfilingSession",
    "QueuedFrame",
    "SubscriberQueue",
    "DEFAULT_MAX_QUEUE",
]

#: Default per-subscriber frame buffer (drop-oldest beyond this).
DEFAULT_MAX_QUEUE = 64

#: How long a close or a snapshot waits for a busy or dead worker.
HOST_TIMEOUT_S = 10.0

#: (frames_counter, dropped_counter) for the fan-out hot path:
#: ``SubscriberQueue.push`` runs once per frame per subscriber while
#: ``_sub_lock`` is held, so it must not pay two registry lookups (each
#: taking the registry lock) per frame.
_push_counters = obs_metrics.per_registry(
    lambda registry: (
        registry.counter(
            "repro_service_subscriber_frames_total",
            "Frames pushed into subscriber queues",
        ),
        registry.counter(
            "repro_service_subscriber_dropped_total",
            "Frames shed (drop-oldest) by full subscriber queues",
        ),
    )
)


class QueuedFrame:
    """One buffered event frame: envelope fields + shared payload bytes.

    ``payload`` is the fan-out's single JSON encode of the frame's
    ``data``; every subscriber queue holds the *same* bytes object and
    :meth:`encode` only splices the tiny per-subscriber envelope around
    it.  No subscriber path decodes it.
    """

    __slots__ = (
        "event",
        "session_id",
        "subscription_id",
        "seq",
        "dropped",
        "payload",
    )

    def __init__(
        self,
        event: str,
        session_id: str,
        subscription_id: str,
        seq: int,
        dropped: int,
        payload: bytes,
    ):
        self.event = event
        self.session_id = session_id
        self.subscription_id = subscription_id
        self.seq = seq
        self.dropped = dropped
        self.payload = payload

    def encode(self) -> bytes:
        """The frame's wire bytes, splicing the shared payload."""
        return splice_event_frame(
            self.event,
            self.session_id,
            self.subscription_id,
            self.seq,
            self.dropped,
            self.payload,
        )


class SubscriberQueue:
    """A bounded per-subscriber buffer of event frames.

    ``push`` never blocks: when the buffer is full the *oldest* frame
    is discarded and the cumulative ``dropped`` counter advances, so a
    slow subscriber costs itself history but never stalls the stepping
    path.  Frames carry ``seq`` (gap = drops) and the running
    ``dropped`` total so consumers can detect loss.
    """

    def __init__(
        self,
        subscription_id: str,
        session_id: str,
        max_queue: int = DEFAULT_MAX_QUEUE,
        notify=None,
        max_rate_hz: float | None = None,
        start_seq: int = 0,
        initial_dropped: int = 0,
    ):
        if max_queue < 1:
            raise ServiceError(ErrorCode.BAD_PARAMS, "max_queue must be >= 1")
        if max_rate_hz is not None and max_rate_hz <= 0:
            raise ServiceError(ErrorCode.BAD_PARAMS, "max_rate_hz must be > 0")
        self.subscription_id = subscription_id
        self.session_id = session_id
        self.max_queue = int(max_queue)
        self.notify = notify
        #: Delivery throttle (frames/s) honoured by the server's pump;
        #: a throttled subscriber falls behind into drop-oldest rather
        #: than slowing the session.
        self.min_interval_s = 1.0 / max_rate_hz if max_rate_hz else 0.0
        #: ``seq`` is the session-global frame number (the same number
        #: the telemetry ledger records), so a late subscriber starts
        #: at the session's current position rather than 0 and ledger
        #: replay splices seamlessly into the live tail.
        self.seq = int(start_seq)
        self.dropped = int(initial_dropped)
        self._frames: deque = deque()

    def push(self, event: str, payload: bytes) -> QueuedFrame:
        """Append one frame, dropping the oldest when full.

        ``payload`` is the pre-encoded ``data`` bytes shared with every
        other subscriber of the same fan-out.
        """
        frames_total, dropped_total = _push_counters()
        frames_total.inc()
        if len(self._frames) >= self.max_queue:
            self._frames.popleft()
            self.dropped += 1
            dropped_total.inc()
        frame = QueuedFrame(
            event,
            self.session_id,
            self.subscription_id,
            self.seq,
            self.dropped,
            payload,
        )
        self.seq += 1
        self._frames.append(frame)
        return frame

    def add_dropped(self, n: int) -> None:
        """Account ``n`` frames lost *outside* the queue (replay gaps).

        The ledger-replay path calls this when retention compaction
        removed records mid-replay: the cumulative ``dropped`` counter
        advances and every frame still buffered is retro-adjusted, so a
        consumer's loss arithmetic (``seq`` gap == ``dropped`` delta)
        stays exact across the replayed/live splice.  Safe only while
        the frames have not been drained yet — the server calls it
        before the subscription's pump starts.
        """
        if n <= 0:
            return
        self.dropped += int(n)
        for frame in self._frames:
            frame.dropped += int(n)

    def drain(self) -> list[QueuedFrame]:
        """Remove and return every buffered frame (oldest first)."""
        out = list(self._frames)
        self._frames.clear()
        return out

    def __len__(self) -> int:
        return len(self._frames)


class ProfilingSession:
    """One tenant's session as the manager holds it: the tenancy here,
    the simulation on a host.

    Tenancy is identity, activity tracking (``touch``/``idle_s`` drive
    the manager's TTL eviction), the eviction claim, the subscriber
    table with its drop-oldest fan-out, the session-global frame seq
    and the ledger append.  Every simulation op forwards as
    ``host.request(op, (session_id, argument))``.  The host is the
    session's own in-thread :class:`~repro.service.host.SessionHost`
    when ``pool`` is None, whose sink fans each frame out on the
    stepping thread, or the sticky worker of ``pool``, whose frames
    come back over its pipe.
    Either way a step's frames land before its reply.  ``info``
    answers from this side, so ``list_sessions`` never waits on a busy
    host.  Only a pooled session can crash and be recovered.
    """

    #: Why the hosting worker died, while the session waits to be
    #: recovered; only a pooled session ever sets it.
    crashed: str | None = None
    #: The in-thread session's simulation (its ``sim`` and ``daemon``);
    #: a pooled session's lives in its worker.
    _local = None

    def __init__(
        self,
        session_id: str,
        *,
        pool=None,
        clock=time.monotonic,
        tenant: str = "default",
        **params,
    ):
        self.session_id = session_id
        #: Admission principal: per-tenant quotas in the manager count
        #: live sessions by this key.
        self.tenant = str(tenant)
        self._clock = clock
        self.created_s = clock()
        self.last_active_s = self.created_s
        #: Set (never cleared) by :meth:`close`, the first thing it does:
        #: a crashed session is not closed, and only one that is not
        #: closed may be rebuilt by :meth:`recover`.
        self.closed = False
        #: In-flight blocking operations (steps in progress or queued on
        #: the simulator lock).  A busy session is never idle, however
        #: long the operation runs — the idle-TTL reaper must not close
        #: a session out from under a live step.
        self._activity_lock = threading.Lock()
        self._inflight_ops = 0
        #: Set by the reaper's :meth:`try_mark_evicting` under
        #: ``_activity_lock``; once set, :meth:`begin_op` refuses.
        self._evicting = False
        self._sub_lock = threading.Lock()
        self._subscribers: dict[str, SubscriberQueue] = {}
        self._next_sub = 0
        #: Session-global frame counter: every fan-out consumes one
        #: number, shared by all subscribers and the ledger.
        self._frame_seq = 0
        #: The session's durable event store, when the server enables
        #: one (``--ledger-dir``); appended on every fan-out.
        self.ledger = None
        self.pool = pool
        self._host(params)

    @property
    def sim(self):
        """The in-thread session's :class:`TieredSimulator`."""
        return self._local.sim

    @property
    def daemon(self):
        """The in-thread session's :class:`TMPDaemon`."""
        return self._local.daemon

    @property
    def worker_index(self) -> int | None:
        """Index of the hosting worker process (None: in-thread)."""
        return None if self.pool is None else self.host.index

    def _host(self, params: dict) -> None:
        """Build the simulation from ``params`` on a host: the one
        hosting step of create, resume and crash recovery.

        Places the session — on its own in-thread host, or pinned to
        the least-loaded live worker of ``pool`` — sends the one
        ``create`` and keeps its reply; a failed ``create`` releases
        the placement.
        """
        if self.pool is None:
            # In a server, a sys.modules hit: ``start()`` imported it.
            from .host import SessionHost

            self.host = SessionHost(
                lambda _, event, payload: self._fanout_batch(((event, payload),))
            )
        else:
            self.pool.place(self)  # sets ``host``
        try:
            self._set_info(self.host.request("create", (self.session_id, params)))
        except BaseException:
            if self.pool is not None:
                self.pool.release(self)
            raise
        if self.pool is None:
            self._local = self.host.sessions[self.session_id]

    def _set_info(self, reply: dict) -> None:
        """Keep the host's ``create`` reply: config, progress, rebuild."""
        self._config = dict(reply)
        self._epochs_run = self._config.pop("epochs_run")
        #: What the rebuild that made this session did (None when it
        #: was built by ``create``): see
        #: :attr:`~repro.service.host.HostedSession.rebuild`.
        self.rebuild = self._config.pop("rebuild")

    def _request(self, op, argument=None, timeout_s=None):
        if self.crashed is not None:
            raise ServiceError(ErrorCode.WORKER_CRASHED, self.crashed)
        if self.closed:
            raise ServiceError(
                ErrorCode.UNKNOWN_SESSION, f"session {self.session_id} is closed"
            )
        return self.host.request(op, (self.session_id, argument), timeout_s=timeout_s)

    # ------------------------------------------------------------- lifecycle

    def touch(self) -> None:
        self.last_active_s = self._clock()

    def idle_s(self, now: float | None = None) -> float:
        return (self._clock() if now is None else now) - self.last_active_s

    def begin_op(self) -> None:
        """Mark one blocking operation in flight (and touch).

        Called *before* the operation's lock acquisition, so a step
        queued behind another step already counts as activity.

        Raises a structured ``evicted`` error if the reaper has already
        claimed this session via :meth:`try_mark_evicting`: the claim
        and this check share ``_activity_lock``, so an operation
        racing the reaper either registers first (the claim fails and
        the session survives) or loses cleanly here — it can never run
        against a simulator the reaper is closing.
        """
        with self._activity_lock:
            if self._evicting:
                raise ServiceError(
                    ErrorCode.EVICTED,
                    f"session {self.session_id} is being evicted",
                )
            self._inflight_ops += 1
        self.touch()

    def end_op(self) -> None:
        with self._activity_lock:
            self._inflight_ops -= 1
        self.touch()

    @property
    def busy(self) -> bool:
        """True while any blocking operation is in flight."""
        with self._activity_lock:
            return self._inflight_ops > 0

    def try_mark_evicting(self, now: float, idle_ttl_s: float) -> bool:
        """Atomically claim this session for idle eviction.

        Succeeds only when no operation is in flight *and* the session
        is still past the TTL, checked under the same lock
        :meth:`begin_op` uses — closing the window where a step
        dispatched between the reaper's busy check and its close()
        could run against a dead simulator.
        """
        with self._activity_lock:
            if self._inflight_ops > 0 or now - self.last_active_s <= idle_ttl_s:
                return False
            self._evicting = True
            return True

    def mark_crashed(self, message: str) -> None:
        """Fail this session: one structured error frame; every host op
        refuses until :meth:`recover` rebuilds it (:meth:`close` does
        not ask the host)."""
        self.crashed = message
        self._fanout(
            "error",
            crash_event_data(ErrorCode.WORKER_CRASHED, message, self.host.index),
        )

    def recover(self, params: dict) -> None:
        """Rebuild this crashed session in place from ``params`` (the
        rebuild recipe: config plus ``catchup``) by the hosting step
        create uses.

        Subscriber queues and the session-global frame seq were this
        side's state all along, so the ``recovered`` frame and every
        live epoch frame after it continue the pre-crash numbering
        without a gap.  A :meth:`close` racing the recovery is honored,
        not resurrected: a closed session is refused before the
        rebuild, and one closed while its host was rebuilding has the
        rebuilt copy closed and released — so no closed session comes
        back as an unmanaged copy still pinned to a worker.  Raises
        :class:`ServiceError` then, or when the rebuild fails.
        """
        if self.closed:
            raise ServiceError(
                ErrorCode.UNKNOWN_SESSION,
                f"session {self.session_id} was closed before recovery could run",
            )
        self._host(params)
        if self.closed:
            try:
                self.host.request(
                    "close", (self.session_id, {}), timeout_s=HOST_TIMEOUT_S
                )
            except ServiceError:
                pass
            self.pool.release(self)
            raise ServiceError(
                ErrorCode.UNKNOWN_SESSION,
                f"session {self.session_id} was closed during recovery",
            )
        self.crashed = None
        self._fanout(
            "recovered",
            recovered_event_data(
                self.session_id, self.host.index, self._epochs_run, self.rebuild
            ),
        )
        self.touch()

    def close(self, **options) -> dict:
        """Finalize on the host, detach subscribers, return the run
        summary (``options``: the epoch window of
        :meth:`~repro.service.host.HostedSession.close`); never raises on
        a dead worker."""
        self.closed = True
        if self.crashed is not None:
            summary = {"session": self.session_id, "crashed": self.crashed}
        else:
            try:
                summary = self.host.request(
                    "close", (self.session_id, options), timeout_s=HOST_TIMEOUT_S
                )
            except ServiceError as exc:
                summary = {"session": self.session_id, "crashed": exc.message}
        if self.pool is not None:
            self.pool.release(self)
        with self._sub_lock:
            self._subscribers.clear()
        if self.ledger is not None:
            self.ledger.close()
        return summary

    # ------------------------------------------------------------------- ops

    def info(self) -> dict:
        """Configuration plus progress, from this side."""
        info = {
            "session": self.session_id,
            "tenant": self.tenant,
            **self._config,
            "epochs_run": self._epochs_run,
            "subscribers": len(self._subscribers),
            "idle_s": self.idle_s(),
        }
        if self.pool is not None:
            info["worker"] = self.host.index
        return info

    def step(self, epochs: int = 1) -> dict:
        """Advance ``epochs`` scored epochs; returns their telemetry.

        The whole call is bracketed by :meth:`begin_op`/:meth:`end_op`
        so a step running longer than the idle TTL never makes the
        session look idle — the reaper skips busy sessions.
        """
        self.begin_op()
        try:
            reply = self._request("step", epochs)
            self._epochs_run = reply["epochs_run"]
            return reply
        finally:
            self.end_op()

    def stats(self) -> dict:
        """Operator statistics: session, daemon summary, timings."""
        self.touch()
        return {"session": self.info(), **self._request("stats")}

    def numa_maps(self, pids=None) -> str:
        self.touch()
        return self._request("numa_maps", pids)

    def reconfigure(self, changes: dict) -> dict:
        self.touch()
        return self._request("reconfigure", changes)

    def write_snapshot(self, path: str, **header) -> dict:
        """:meth:`~repro.service.host.HostedSession.write_snapshot`, run by
        the host."""
        return self._request(
            "snapshot", {"path": path, **header}, timeout_s=HOST_TIMEOUT_S
        )

    # ---------------------------------------------------------- subscribers

    def attach_ledger(self, session_ledger, start_seq: int | None = None) -> None:
        """Durably record every fan-out frame in ``session_ledger``.

        The append happens inside the fan-out's subscriber-lock
        critical section, so by the time any subscriber attaches at
        frame ``S`` every frame ``< S`` is already readable from the
        ledger — the invariant ``subscribe(from_seq=...)`` replay
        relies on.  A failing append (disk full, closed ledger) is
        logged via the obs counter but never stalls stepping.

        ``start_seq`` (the resume path) fast-forwards the session's
        frame counter to the reopened ledger's ``next_seq``, so frames
        fanned out after a checkpoint re-admission continue the
        pre-eviction numbering instead of restarting at 0.
        """
        with self._sub_lock:
            self.ledger = session_ledger
            if start_seq is not None:
                self._frame_seq = int(start_seq)

    def _fanout(self, event: str, data: dict) -> None:
        """Encode one control frame's ``data`` (``error``/``recovered``/
        ``resumed``) and fan it out; a host's frames arrive encoded."""
        self._fanout_batch(((event, encode_payload(data)),))

    def _fanout_batch(self, batch) -> None:
        """Fan out a sequence of pre-encoded ``(event, payload_bytes)``.

        The one fan-out path of every frame.  Each payload bytes object
        is shared by every subscriber queue and the ledger record —
        encoded once (by :meth:`_fanout`, or by the host) and only ever
        spliced afterwards.
        """
        with self._sub_lock:
            subs = list(self._subscribers.values())
            for event, payload in batch:
                self._frame_seq += 1
                for sub in subs:
                    sub.push(event, payload)
            if self.ledger is not None and batch:
                try:
                    self.ledger.append_many(batch)
                except (OSError, ValueError):
                    obs_metrics.default_registry().counter(
                        "repro_ledger_append_errors_total",
                        "Ledger appends that failed (frame not persisted)",
                    ).inc()
        for sub in subs:
            if sub.notify is not None:
                sub.notify()

    def subscribe(
        self,
        max_queue: int = DEFAULT_MAX_QUEUE,
        notify=None,
        max_rate_hz: float | None = None,
        initial_dropped: int = 0,
    ) -> SubscriberQueue:
        """Attach a bounded drop-oldest subscriber queue.

        The queue's ``seq`` starts at the session's current global
        frame count: earlier frames are never re-delivered live (the
        ledger replay path serves those), so the numbering is shared
        by every subscriber and by the on-disk records.

        A closed or eviction-claimed session refuses new subscribers
        with a structured error: once the reaper owns the session its
        goodbye fan-out has (or is about to) run, so a late subscriber
        attaching here would receive neither the goodbye nor any
        further frame — a silent half-dead subscription.  The refusal
        is checked under ``_sub_lock``, the same lock the goodbye
        fan-out holds, so every subscriber that *does* attach is
        guaranteed to be in the table when the goodbye frames push.
        """
        with self._sub_lock:
            # A crashed session awaiting recovery is not closed, so it
            # stays subscribable: its subscribers are owed the
            # ``recovered`` frame when the ledger re-materializes it.
            if self.closed:
                raise ServiceError(
                    ErrorCode.UNKNOWN_SESSION,
                    f"session {self.session_id} is closed",
                )
            if self._evicting:
                raise ServiceError(
                    ErrorCode.EVICTED,
                    f"session {self.session_id} is being evicted",
                )
            self._next_sub += 1
            sub = SubscriberQueue(
                f"{self.session_id}.sub{self._next_sub}",
                self.session_id,
                max_queue=max_queue,
                notify=notify,
                max_rate_hz=max_rate_hz,
                start_seq=self._frame_seq,
                initial_dropped=initial_dropped,
            )
            self._subscribers[sub.subscription_id] = sub
            return sub

    @property
    def frame_seq(self) -> int:
        """Frames fanned out so far (== the next frame's seq)."""
        with self._sub_lock:
            return self._frame_seq

    def account_replay_gap(self, sub: SubscriberQueue, n: int) -> None:
        """Charge ``n`` retention-lost frames to one subscriber.

        Taken under ``_sub_lock`` so the retro-adjustment of buffered
        live frames cannot interleave with a concurrent fan-out push.
        """
        with self._sub_lock:
            sub.add_dropped(n)

    def unsubscribe(self, subscription_id: str) -> bool:
        with self._sub_lock:
            return self._subscribers.pop(subscription_id, None) is not None

    def drain_queue_encoded(self, sub: SubscriberQueue) -> list[bytes]:
        """Drain a queue object straight to wire bytes (the pump's path).

        Takes the queue itself, not its id: the server's pump holds the
        object, so goodbye frames (``evicted``/``server_drain``) pushed
        immediately before a close — which clears the subscriber
        table — still deliver.
        """
        with self._sub_lock:
            return [frame.encode() for frame in sub.drain()]
