"""One profiling session: a live simulator + daemon + subscribers.

A session is the service-side unit of tenancy.  It owns a
:class:`TieredSimulator` driven incrementally through the epoch-step
hook (``start()`` once, ``step(n)`` on demand), the
:class:`TMPDaemon` front-end over that simulator's profiler (for
``stats``/``numa_maps``/``reconfigure``), running step-timing totals,
and any number of bounded subscriber queues that receive one frame per
scored epoch.

Thread model: the server executes stepping and daemon reads in a
worker executor so the event loop stays responsive, while subscriber
drains happen on the loop.  Two locks keep that safe — ``_sim_lock``
serializes simulator/daemon access (one step at a time per session),
``_sub_lock`` guards the subscriber table so frames can be drained
*while* a step is still producing them.

:class:`SessionBase` holds everything that is *tenancy*, not
*simulation* — identity, activity tracking, the subscriber table and
frame fan-out — so the worker-pool's remote sessions
(:class:`~repro.service.workers.RemoteSession`, which forward
simulation to a sticky worker process) share the exact subscriber
semantics of the in-process path.
"""

from __future__ import annotations

import functools
import pickle
import threading
import time
from collections import deque

from ..core.config import TMPConfig
from ..core.daemon import TMPDaemon
from ..ledger.snapshot import SnapshotError, read_snapshot, write_snapshot
from ..memsim.machine import MachineConfig
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..tiering.policies import resolve_policy
from ..tiering.simulator import TieredSimulator
from ..workloads import make_workload, resolve_workload
from .protocol import ErrorCode, ServiceError, encode_payload, splice_event_frame
from .telemetry import epoch_metrics_to_dict, simulation_result_to_dict

__all__ = [
    "ProfilingSession",
    "QueuedFrame",
    "SessionBase",
    "SubscriberQueue",
    "DEFAULT_MAX_QUEUE",
]

_log = obs_log.get_logger("service.session")

#: Default per-subscriber frame buffer (drop-oldest beyond this).
DEFAULT_MAX_QUEUE = 64

#: Cached (registry, frames_counter, dropped_counter) for the fan-out
#: hot path: ``SubscriberQueue.push`` runs once per frame per
#: subscriber while ``_sub_lock`` is held, so it must not pay two
#: registry lookups (each taking the registry lock) per frame.  Keyed
#: by registry identity so tests that swap the default registry
#: (:func:`obs_metrics.set_default_registry`) still record into the
#: right one.
_push_counters_cache: tuple | None = None


def _push_counters():
    global _push_counters_cache
    registry = obs_metrics.default_registry()
    cache = _push_counters_cache
    if cache is None or cache[0] is not registry:
        cache = (
            registry,
            registry.counter(
                "repro_service_subscriber_frames_total",
                "Frames pushed into subscriber queues",
            ),
            registry.counter(
                "repro_service_subscriber_dropped_total",
                "Frames shed (drop-oldest) by full subscriber queues",
            ),
        )
        _push_counters_cache = cache
    return cache[1], cache[2]


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


class SessionBase:
    """Tenancy bookkeeping shared by local and worker-backed sessions.

    Identity, activity tracking (``touch``/``idle_s`` drive the
    manager's TTL eviction) and the subscriber table with its
    drop-oldest fan-out.  Subclasses supply the
    simulation: :class:`ProfilingSession` hosts it in-process,
    :class:`~repro.service.workers.RemoteSession` forwards to a sticky
    worker process and feeds frames back through :meth:`_fanout`.
    """

    #: Why the hosting worker died, while the session waits to be
    #: recovered; only worker-backed sessions ever set it.
    crashed: str | None = None
    #: Index of the hosting worker process (None: hosted in-process).
    worker_index: int | None = None

    def __init__(self, session_id: str, clock=time.monotonic, tenant: str = "default"):
        self.session_id = session_id
        #: Admission principal: per-tenant quotas in the manager count
        #: live sessions by this key.
        self.tenant = str(tenant)
        self._clock = clock
        self.created_s = clock()
        self.last_active_s = self.created_s
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
        #: Extra frame consumers fed ``(event, payload_bytes)`` on every
        #: fan-out (the worker processes use one to stream epochs back
        #: over their pipe without a decode/re-encode round trip).
        self._sinks: list = []
        #: Session-global frame counter: every fan-out consumes one
        #: number, shared by all subscribers and the ledger.
        self._frame_seq = 0
        #: The session's durable event store, when the server enables
        #: one (``--ledger-dir``); appended on every fan-out.
        self.ledger = None

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

    # ---------------------------------------------------------- subscribers

    def add_sink(self, sink) -> None:
        """Register ``sink(event, payload_bytes)`` for every fan-out.

        The payload bytes are the fan-out's single shared encode of the
        frame's ``data`` (see :func:`~repro.service.protocol
        .encode_payload`); a forwarding consumer — the worker pipe —
        ships them verbatim instead of re-serializing the dict.
        """
        self._sinks.append(sink)

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
        """Encode one frame's ``data`` and fan it out.

        The single dict→bytes edge: the in-process epoch hook and the
        control frames (``error``/``recovered``/``resumed``/
        ``reconfigured``) enter here; everything downstream moves the
        payload bytes.
        """
        self._fanout_batch(((event, encode_payload(data)),))

    def _fanout_batch(self, batch) -> None:
        """Fan out a sequence of pre-encoded ``(event, payload_bytes)``.

        Each payload bytes object is shared by every subscriber queue,
        the ledger record and the sinks — encoded once (by
        :meth:`_fanout`, or worker-side for pool sessions) and only
        ever spliced afterwards.
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
        for event, payload in batch:
            for sink in self._sinks:
                sink(event, payload)

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
            # A crashed-awaiting-recovery session (``crashed`` set) is
            # still subscribable: its subscribers are owed the
            # ``recovered`` frame when the ledger re-materializes it.
            if self.closed and self.crashed is None:
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


class ProfilingSession(SessionBase):
    """One tenant: simulator, daemon, timings, and subscribers."""

    def __init__(
        self,
        session_id: str,
        *,
        workload: str,
        policy: str = "history",
        tier1_ratio: float = 1 / 8,
        rank_source: str = "combined",
        seed: int = 0,
        epoch_slices: int = 1,
        ibs_period: int = 16,
        init: bool = True,
        workload_kwargs: dict | None = None,
        policy_kwargs: dict | None = None,
        tmp: dict | None = None,
        tenant: str = "default",
        clock=time.monotonic,
        catchup: dict | None = None,
    ):
        bad_params = functools.partial(ServiceError, ErrorCode.BAD_PARAMS)
        resolve_workload(workload, error=bad_params)
        policy_class = resolve_policy(policy, error=bad_params)
        super().__init__(session_id, clock=clock, tenant=tenant)
        self._sim_lock = threading.Lock()
        #: Running totals behind ``stats()["timings"]["step"]``: a
        #: record per step would grow with the session's age.
        self._step_timing = {
            "events": 0, "items": 0, "work_seconds": 0.0, "cached": 0
        }

        #: What the rebuild that made this session did (None when it
        #: was built by ``create``): ``epochs_restored`` from a
        #: snapshot, ``epochs_replayed`` after it, ``snapshot_bytes``,
        #: and the ``fallback_reason`` when a snapshot was not used.
        self.rebuild: dict | None = None
        # A rebuild starts from the newest usable snapshot at or before
        # the epoch it must reach; with none it starts, like ``create``,
        # from a fresh build at epoch 0.
        snapshot = fallback_reason = None
        if catchup and catchup.get("snapshot"):
            snapshot, fallback_reason = self._restore(
                catchup["snapshot"], catchup["epochs"]
            )
        if snapshot is None:
            try:
                wl = make_workload(workload, **(workload_kwargs or {}))
                pol = policy_class(**(policy_kwargs or {}))
                tmp_config = TMPConfig(**tmp) if tmp else None
                self.sim = TieredSimulator(
                    wl,
                    pol,
                    tier1_ratio=tier1_ratio,
                    rank_source=rank_source,
                    machine_config=MachineConfig.scaled(ibs_period=ibs_period),
                    tmp_config=tmp_config,
                    seed=seed,
                    epoch_slices=epoch_slices,
                )
            except ServiceError:
                raise
            except (TypeError, ValueError, AttributeError) as exc:
                raise ServiceError(ErrorCode.BAD_PARAMS, str(exc)) from exc
            self.sim.obs_label = session_id
            self.daemon = TMPDaemon(self.sim.profiler)
            self.daemon.add_workload(wl)
            self.sim.start(init=init)
        if catchup:
            # Rebuild catch-up (crash recovery, checkpoint resume):
            # silently re-run the epochs scored since that starting
            # point, re-applying each ``reconfigured`` payload recorded
            # since then at its epoch boundary, *before* attaching the
            # fan-out hook, so subscribers (and the ledger) never see
            # them twice.  "Since" is by seq, not by epoch: a
            # reconfigure made right after a resume shares its
            # ``epochs_run`` with the snapshot.  The simulator is
            # deterministic, so the caught-up state is bit-identical to
            # the state before the interruption.
            since_seq = snapshot["frame_seq"] if snapshot else 0
            restored = self.sim.epochs_run
            for record in catchup["reconfigured"]:
                if record["seq"] >= since_seq:
                    self._catch_up_to(record["epochs_run"])
                    self.daemon.reconfigure(**record["changes"])
            self._catch_up_to(catchup["epochs"])
            self.rebuild = {
                "epochs_restored": restored,
                "epochs_replayed": self.sim.epochs_run - restored,
                "snapshot_bytes": snapshot["payload_bytes"] if snapshot else 0,
            }
            if fallback_reason:
                self.rebuild["fallback_reason"] = fallback_reason
        self.sim.add_epoch_hook(self._on_epoch)

    def _restore(self, snapshot: dict, target: int) -> tuple[dict | None, str | None]:
        """Adopt the simulator and daemon of the snapshot file that
        ``snapshot`` (``{"path", "config_key"}``, from the session
        manager) describes; returns ``(its header, None)``.

        Returns ``(None, reason)`` — after logging why — when the file
        is missing, fails any check
        (:func:`~repro.ledger.snapshot.read_snapshot`) or does not
        load: a bad snapshot can cost time, never a session.
        """
        try:
            header, payload = read_snapshot(
                snapshot["path"],
                config_key=snapshot["config_key"],
                max_epochs=target,
            )
            # Bytes this server wrote, verified against their digest, on
            # a path the ledger derived (docs/service.md, trust boundary).
            self.sim, self.daemon = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 — fall back to replay from 0
            reason = exc.reason if isinstance(exc, SnapshotError) else "load_failed"
            _log.log(
                "info" if reason == "missing" else "warning",
                "snapshot_not_used",
                session=self.session_id,
                reason=reason,
                error=str(exc),
            )
            return None, reason
        return header, None

    def _catch_up_to(self, epoch: int) -> None:
        behind = int(epoch) - self.sim.epochs_run
        if behind > 0:
            self.sim.step(behind)

    # ------------------------------------------------------------- lifecycle

    def info(self) -> dict:
        """Static configuration plus progress counters."""
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "workload": self.sim.workload.name,
            "policy": self.sim.policy.name,
            "rank_source": self.sim.rank_source.value,
            "tier1_ratio": float(self.sim.tier1_ratio),
            "tier1_capacity": int(self.sim.tier1_capacity),
            "seed": self.sim.seed,
            "epochs_run": self.sim.epochs_run,
            "subscribers": len(self._subscribers),
            "idle_s": self.idle_s(),
        }

    def close(
        self,
        include_epochs: bool = False,
        epochs_from: int = 0,
        epochs_to: int | None = None,
    ) -> dict:
        """Finalize: detach subscribers, return the run summary.

        ``include_epochs`` attaches the per-epoch telemetry series,
        bounded to the requested window (and never more than
        ``MAX_EPOCHS_PER_RESPONSE`` entries) so closing a 100k-epoch
        session cannot serialize an unbounded list into one response.
        """
        with self._sim_lock:
            self.closed = True
            summary = simulation_result_to_dict(
                self.sim.result,
                include_epochs=include_epochs,
                epochs_from=epochs_from,
                epochs_to=epochs_to,
            )
            self.sim.close()
        with self._sub_lock:
            self._subscribers.clear()
        if self.ledger is not None:
            self.ledger.close()
        return summary

    # -------------------------------------------------------------- stepping

    def step(self, epochs: int = 1) -> dict:
        """Advance ``epochs`` scored epochs; returns their telemetry.

        Runs under the simulator lock (one step at a time per session)
        and adds the call to the ``step`` timing totals.
        Subscriber frames are pushed as each epoch completes, so a
        subscriber sees epoch ``k`` while ``k+1`` is still executing.

        The whole call is bracketed by :meth:`begin_op`/:meth:`end_op`
        so a step running longer than the idle TTL never makes the
        session look idle — the reaper skips busy sessions.
        """
        if epochs < 1:
            raise ServiceError(ErrorCode.BAD_PARAMS, "epochs must be >= 1")
        self.begin_op()
        try:
            with self._sim_lock:
                if self.closed:
                    raise ServiceError(
                        ErrorCode.UNKNOWN_SESSION,
                        f"session {self.session_id} is closed",
                    )
                t0 = time.perf_counter()
                stepped = self.sim.step(epochs)
                seconds = time.perf_counter() - t0
                timing = self._step_timing
                timing["events"] += 1
                timing["items"] += len(stepped)
                timing["work_seconds"] += seconds
                registry = obs_metrics.default_registry()
                registry.histogram(
                    "repro_session_step_seconds",
                    "Wall-clock latency of one step request",
                ).observe(seconds)
                registry.counter(
                    "repro_session_epochs_total", "Scored epochs stepped"
                ).inc(len(stepped))
                return {
                    "session": self.session_id,
                    "epochs": [epoch_metrics_to_dict(m) for m in stepped],
                    "epochs_run": self.sim.epochs_run,
                    "step_seconds": seconds,
                }
        finally:
            self.end_op()

    def snapshot(self) -> tuple[int, bytes]:
        """``(epochs_run, state)`` at one instant: simulator and daemon
        in a single pickle, so the objects they share stay shared."""
        with self._sim_lock:
            return self.sim.epochs_run, pickle.dumps(
                (self.sim, self.daemon), protocol=pickle.HIGHEST_PROTOCOL
            )

    def write_snapshot(
        self, path: str, *, config_key: str, frame_seq: int, durable: bool
    ) -> dict:
        """Write :meth:`snapshot` to ``path`` (the session manager's
        checkpoint step names it); returns the header written."""
        epochs, payload = self.snapshot()
        return write_snapshot(
            path,
            payload,
            config_key=config_key,
            epochs=epochs,
            frame_seq=frame_seq,
            durable=durable,
        )

    def _on_epoch(self, metrics) -> None:
        """Epoch-step hook: fan one frame out to every subscriber."""
        self._fanout("epoch", epoch_metrics_to_dict(metrics))

    # ------------------------------------------------------------- reporting

    def stats(self) -> dict:
        """Operator statistics: daemon summary + session + timings."""
        with self._sim_lock:
            return {
                "session": self.info(),
                "daemon": self.daemon.statistics(),
                "result": simulation_result_to_dict(self.sim.result),
                "timings": (
                    {"step": dict(self._step_timing)}
                    if self._step_timing["events"]
                    else {}
                ),
            }

    def numa_maps(self, pids=None) -> str:
        with self._sim_lock:
            try:
                return self.daemon.numa_maps(pids)
            except KeyError as exc:
                raise ServiceError(
                    ErrorCode.BAD_PARAMS, f"unknown pid {exc}"
                ) from exc

    def reconfigure(self, changes: dict) -> dict:
        """Apply live TMP config changes through the daemon.

        A successful change fans out one ``reconfigured`` frame, so it
        takes a seq and a ledger record like any other frame — a
        rebuild replays it at the same epoch boundary (``catchup``).
        """
        if not isinstance(changes, dict) or not changes:
            raise ServiceError(
                ErrorCode.BAD_PARAMS, "reconfigure needs a non-empty changes object"
            )
        with self._sim_lock:
            try:
                self.daemon.reconfigure(**changes)
            except (AttributeError, ValueError, TypeError) as exc:
                raise ServiceError(ErrorCode.BAD_PARAMS, str(exc)) from exc
            self.touch()
            self._fanout(
                "reconfigured",
                {"changes": changes, "epochs_run": self.sim.epochs_run},
            )
            return {"session": self.session_id, "applied": sorted(changes)}
