"""The session registry and the one owner of the session lifecycle.

Every transition a session makes — created, evicted (optionally
checkpointed to disk), resumed, recovered after a worker crash,
closed, discarded — is a method of :class:`SessionManager`, and the
collaborators those need (the session factory, the :class:`~repro
.ledger.Ledger`, whether eviction checkpoints) are given to it at
construction.  The server above it moves bytes and dispatches ops;
the sessions below it own tenancy and fan-out.

Enforces the server's multi-tenancy envelope: at most ``max_sessions``
live sessions (admission is checked *before* the expensive session
construction, and the slot is reserved so concurrent creates cannot
oversubscribe), at most ``tenant_quota`` of them per tenant (the
``tenant`` param on ``create_session``; over-quota creates are
rejected with the structured ``overloaded`` error code), and sessions
idle longer than ``idle_ttl_s`` are evicted by the server's reaper
task — except sessions with an operation in flight (``session.busy``),
which are never idle no matter how long the step runs.

The ``repro_service_sessions_active`` gauge is published *inside* the
registry lock at every mutation, so it always equals
``len(list_sessions())`` at the instant it was set — concurrent
creates/closes cannot publish stale counts out of order.

Every session is built one way: a :class:`ProfilingSession` on
``pool`` — its sticky worker processes — or, when there is none, on
the session's own in-thread host.  The lifecycle is the same on both;
only crash recovery needs a pool.
"""

from __future__ import annotations

import threading
import time

from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from .protocol import ErrorCode, ServiceError
from .session import ProfilingSession
from .telemetry import crash_event_data, resumed_event_data

__all__ = ["SessionManager"]

_log = obs_log.get_logger("service.manager")


def _metrics():
    return obs_metrics.default_registry()


def _reject(reason: str) -> None:
    _metrics().counter(
        "repro_service_sessions_rejected_total",
        "Session creations refused by admission control",
        labelnames=("reason",),
    ).inc(reason=reason)


def _still_live(session_id) -> ServiceError:
    return ServiceError(
        ErrorCode.BAD_REQUEST,
        f"session {session_id!r} is still live; only evicted "
        "(checkpointed) sessions can be resumed",
    )


def _rebuild_params(meta: dict, session_ledger, epochs: int, snapshot_path) -> dict:
    """Create params that rebuild a session at ``epochs`` scored epochs.

    The one rebuild recipe (:meth:`SessionManager.resume` and
    :meth:`SessionManager.recover`): the creation config recorded in
    ``meta`` plus a ``catchup`` — where the session's last snapshot
    would be and whose it must be, the epoch to reach, every
    ``reconfigured`` record of the session's life with its seq, and
    the ledger directory that epoch windows from before a snapshot
    restore are read from.  The host that builds the session restores
    the snapshot if it checks out and replays only what came after it;
    otherwise it replays everything
    (:class:`~repro.service.session.HostedSession`).  The tenant is the
    handle's, not the host's, so it is left out.  Reads what the ledger
    keeps beside its records; scans none of them.
    """
    config = {k: v for k, v in meta["config"].items() if k != "tenant"}
    return {
        **config,
        "catchup": {
            "epochs": int(epochs),
            "reconfigured": session_ledger.reconfigured,
            "ledger": str(session_ledger.directory),
            "snapshot": {
                "path": str(snapshot_path),
                "config_key": meta.get("config_key"),
            },
        },
    }


def _observe_rebuild(rebuild: dict, seconds: float) -> None:
    registry = _metrics()
    registry.histogram(
        "repro_service_rebuild_seconds",
        "Wall-clock time to rebuild a session (resume or crash recovery)",
        labelnames=("source",),
    ).observe(seconds, source="snapshot" if rebuild["snapshot_bytes"] else "replay")
    registry.counter(
        "repro_service_rebuild_epochs_replayed_total",
        "Epochs silently re-run by session rebuilds",
    ).inc(rebuild["epochs_replayed"])


class SessionManager:
    """Creates, finds, evicts, resumes, recovers and closes sessions."""

    def __init__(
        self,
        max_sessions: int = 16,
        idle_ttl_s: float = 600.0,
        clock=time.monotonic,
        pool=None,
        tenant_quota: int | None = None,
        ledger=None,
        evict_to_disk: bool = False,
    ):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {tenant_quota}")
        self.max_sessions = int(max_sessions)
        #: Per-tenant cap on live sessions (None = unlimited).  Checked
        #: at admission against live + reserved sessions of the tenant.
        self.tenant_quota = None if tenant_quota is None else int(tenant_quota)
        self.idle_ttl_s = float(idle_ttl_s)
        #: The :class:`~repro.service.workers.WorkerPool` sessions are
        #: placed on; None hosts each in-thread.
        self.pool = pool
        #: The durable event store (``--ledger-dir``): every session is
        #: given its own ledger before it is published, which is what
        #: makes replay, crash recovery and resume possible.  None
        #: disables all three.
        self.ledger = ledger
        #: Checkpoint-to-disk idle eviction (``--evict-to-disk``):
        #: :meth:`evict_idle` persists a marker and a state snapshot
        #: before releasing an idle session's slots, so :meth:`resume`
        #: can re-admit it bit-identically.  Inert without a ledger.
        self.evict_to_disk = bool(evict_to_disk) and ledger is not None
        #: Lifetime counters surfaced through ``server_info`` so an
        #: external harness (the CI eviction/resume soak) can assert
        #: checkpointed == resumed without scraping metrics.
        self.sessions_checkpointed = 0
        self.sessions_resumed = 0
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, ProfilingSession] = {}
        self._reserved = 0
        #: Live + reserved sessions per tenant (quota accounting).
        self._tenant_count: dict[str, int] = {}
        self._next_id = 0
        #: Bumped by every close_all(); a create whose construction
        #: straddles a drain is rejected at insert instead of slipping
        #: a live session past the drain.
        self._drain_gen = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def _publish_active_locked(self) -> None:
        """Set the active-sessions gauge while holding ``_lock``.

        Publishing under the lock makes the gauge *ordered* with the
        registry mutations: it can never report a value from an earlier
        state after a later one (two concurrent closes racing the
        unlocked publish used to leave the gauge one high forever).
        """
        _metrics().gauge(
            "repro_service_sessions_active", "Live sessions in the manager"
        ).set(len(self._sessions))

    def _release_tenant_locked(self, tenant: str) -> None:
        count = self._tenant_count.get(tenant, 0) - 1
        if count > 0:
            self._tenant_count[tenant] = count
        else:
            self._tenant_count.pop(tenant, None)

    def tenants(self) -> dict[str, int]:
        """Live (admitted) session count per tenant."""
        with self._lock:
            counts: dict[str, int] = {}
            for session in self._sessions.values():
                counts[session.tenant] = counts.get(session.tenant, 0) + 1
            return counts

    def _admit_locked(self, tenant: str) -> int:
        """Reserve one capacity + tenant slot, or raise (lock held).

        Returns the drain generation observed *atomically* with the
        reservation, so a ``close_all`` landing any time after it is
        detected at insert.
        """
        if len(self._sessions) + self._reserved >= self.max_sessions:
            _reject("at_capacity")
            raise ServiceError(
                ErrorCode.AT_CAPACITY,
                f"session limit reached ({self.max_sessions})",
            )
        if (
            self.tenant_quota is not None
            and self._tenant_count.get(tenant, 0) >= self.tenant_quota
        ):
            _reject("tenant_quota")
            raise ServiceError(
                ErrorCode.OVERLOADED,
                f"tenant {tenant!r} is at its session quota "
                f"({self.tenant_quota}); close a session or retry later",
            )
        self._reserved += 1
        self._tenant_count[tenant] = self._tenant_count.get(tenant, 0) + 1
        return self._drain_gen

    def _build(self, session_id: str, **params) -> ProfilingSession:
        """The one way a session is built, on either transport."""
        return ProfilingSession(
            session_id, pool=self.pool, clock=self._clock, **params
        )

    def _build_admitted(self, session_id: str, tenant: str, drain_gen: int, builder):
        """Build outside the lock, then install under it (shared by
        :meth:`create` and :meth:`resume`).

        The capacity slot is reserved before ``builder`` runs and
        released on failure; a drain that lands mid-construction is
        detected by the generation bump and the session is rejected at
        insert (closing it and releasing its slots) instead of slipping
        a live session past the drain.
        """
        admitted = False
        try:
            session = builder()
            admitted = True
        except TypeError as exc:
            raise ServiceError(ErrorCode.BAD_PARAMS, str(exc)) from exc
        finally:
            with self._lock:
                self._reserved -= 1
                if not admitted:
                    self._release_tenant_locked(tenant)
        session.tenant = tenant
        with self._lock:
            if self._drain_gen != drain_gen:
                # close_all() ran while we were constructing: the drain
                # already dropped every live session, so this one must
                # not outlive it.  Its tenant slot was reserved before
                # the drain and close_all only releases slots of popped
                # sessions, so release it here.
                self._release_tenant_locked(tenant)
                drained = True
            else:
                self._sessions[session_id] = session
                self._publish_active_locked()
                drained = False
        if drained:
            session.close()
            _reject("server_drain")
            raise ServiceError(
                ErrorCode.SERVER_DRAIN,
                f"server drained while session {session_id} was being built",
            )
        return session

    def create(self, **params) -> ProfilingSession:
        """Admit and build one session.

        Raises ``at_capacity`` when the server-wide limit is reached
        and ``overloaded`` when the requesting tenant (the ``tenant``
        param, default ``"default"``) is at its quota.  The capacity
        slot is reserved under the lock but the (slow) session
        construction happens outside it, so concurrent creates neither
        oversubscribe nor serialize.

        With a ledger the session's own ledger is created (recording
        ``params``, the recipe a rebuild re-runs) and attached before
        the session is published — no frame can ever fan out
        un-persisted, so queue seq and ledger seq stay equal.
        """
        if "catchup" in params:
            # Rebuild-only: from a client it would advance the simulator
            # with no frame fanned out or persisted, for as long as it says.
            raise ServiceError(
                ErrorCode.BAD_PARAMS, "catchup is not a create_session param"
            )
        tenant = params.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError(
                ErrorCode.BAD_PARAMS, "tenant must be a non-empty string"
            )
        with self._lock:
            drain_gen = self._admit_locked(tenant)
            self._next_id += 1
            session_id = f"s{self._next_id}"

        def build():
            session = self._build(session_id, **params)
            if self.ledger is not None:
                try:
                    session.attach_ledger(
                        self.ledger.create_session(
                            session_id, dict(params), info=session.info()
                        )
                    )
                except Exception:
                    session.close()
                    raise
            return session

        session = self._build_admitted(session_id, tenant, drain_gen, build)
        _metrics().counter(
            "repro_service_sessions_created_total", "Sessions admitted and built"
        ).inc()
        _log.info(
            "session_created",
            session=session_id,
            tenant=tenant,
            workload=params.get("workload"),
            worker=session.worker_index,
        )
        return session

    def await_evicted(self, session_id: str, timeout_s: float = 10.0) -> None:
        """Return once ``session_id`` is no longer registered.

        A plainly live session is ``bad_request`` at once.  One the
        reaper has claimed is waited out: its goodbye may be delivered
        while its close is still running, and a rebuild under the same
        id overlapping that close would be torn down by it.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            with self._lock:
                session = self._sessions.get(session_id)
            if session is None:
                return
            if not session._evicting or time.monotonic() >= deadline:
                raise _still_live(session_id)
            time.sleep(0.005)

    def resume(self, session_id: str, tenant: str | None = None) -> ProfilingSession:
        """Re-admit a checkpointed (evicted-to-disk) session.

        Goes through the *same* admission gate as :meth:`create` — the
        global capacity check and the tenant quota both apply, so a
        resume cannot sneak past the limits its eviction freed up —
        but keeps the original ``session_id`` instead of minting a new
        one.  A still-live id is ``bad_request`` before any slot is
        reserved (pollers must not touch the idle clock), an id with no
        checkpoint — or an id that is not a well-formed session id at
        all — is ``unknown_session``.

        The rebuild is crash recovery's (:func:`_rebuild_params`),
        outside the lock: the snapshot the eviction wrote is restored —
        nothing is left to replay — or, when it is missing or refused,
        the recorded config re-runs deterministically to the
        checkpointed epoch count; either way the resumed state is
        bit-identical to an uninterrupted run.  The reopened ledger
        continues the seq chain (``attach_ledger(start_seq=next_seq)``),
        the marker is cleared (the snapshot stays: a later crash
        recovery starts from it), and one ``resumed`` frame is appended
        so a ``from_seq`` replay shows eviction and resumption
        gap-free.  ``tenant`` defaults to the one the session was
        evicted under.
        """
        if self.ledger is None:
            raise ServiceError(
                ErrorCode.BAD_PARAMS,
                "resume_session needs a ledger; start the server with "
                "--ledger-dir and --evict-to-disk",
            )
        try:
            # The id is the client's: nothing is looked up by it before
            # the ledger has said it names a directory under its root.
            snapshot_path = self.ledger.snapshot_path(session_id)
        except ValueError as exc:
            raise ServiceError(ErrorCode.UNKNOWN_SESSION, str(exc)) from exc
        # Checked again (atomically) below; this early answer gives
        # pollers the ``bad_request`` that means "not evicted yet"
        # instead of "no checkpoint".
        self.await_evicted(session_id)
        checkpoint = self.ledger.load_checkpoint(session_id)
        meta = self.ledger.load_meta(session_id)
        if checkpoint is None or meta is None:
            raise ServiceError(
                ErrorCode.UNKNOWN_SESSION,
                f"no checkpoint for session {session_id!r}; only sessions "
                "evicted with --evict-to-disk can be resumed",
            )
        tenant = tenant or checkpoint.get("tenant") or "default"
        if not isinstance(tenant, str):
            raise ServiceError(
                ErrorCode.BAD_PARAMS, "tenant must be a non-empty string"
            )
        with self._lock:
            if session_id in self._sessions:
                raise _still_live(session_id)
            drain_gen = self._admit_locked(tenant)

        def rebuild():
            session_ledger = self.ledger.open_session(session_id)
            try:
                epochs = int(checkpoint.get("epochs", session_ledger.epoch_count))
                params = _rebuild_params(
                    meta, session_ledger, epochs, snapshot_path
                )
                params["tenant"] = tenant
                t0 = time.perf_counter()
                session = self._build(session_id, **params)
                _observe_rebuild(session.rebuild, time.perf_counter() - t0)
                session.attach_ledger(
                    session_ledger, start_seq=session_ledger.next_seq
                )
                self.ledger.clear_checkpoint(session_id)
                session._fanout(
                    "resumed",
                    resumed_event_data(
                        session_id,
                        epochs,
                        session.rebuild,
                        worker=session.worker_index,
                    ),
                )
                return session
            except Exception:
                session_ledger.close()
                raise

        session = self._build_admitted(session_id, tenant, drain_gen, rebuild)
        with self._lock:
            self.sessions_resumed += 1
        _metrics().counter(
            "repro_service_sessions_resumed_total",
            "Checkpointed sessions re-admitted via resume_session",
        ).inc()
        _log.info(
            "session_resumed", session=session_id, tenant=tenant, **session.rebuild
        )
        return session

    def recover(self, session_id) -> bool:
        """Rebuild a crashed worker-backed session in place, or forget it.

        The session is already marked crashed and its subscribers
        already hold the structured ``worker_crashed`` frame.  With a
        ledger it is re-materialized by the same recipe as a resume —
        its last snapshot, if an eviction ever wrote one, plus a replay
        of the epochs persisted since; the whole recorded history
        otherwise — in a fresh worker, the same session object is
        un-crashed — so its
        subscribers and its seq chain survive — and subscribers see a
        ``recovered`` frame and a gap-free continuation.  Without one,
        or when the rebuild fails, all that is left is releasing the
        admission slots (:meth:`discard`).  Returns True when the
        session is live again.
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.crashed is None:
            return False  # closed or evicted while the crash was in flight
        meta = None if self.ledger is None else self.ledger.load_meta(session_id)
        if meta is None or session.ledger is None:
            self.discard(session_id)
            return False
        try:
            params = _rebuild_params(
                meta,
                session.ledger,
                session.ledger.epoch_count,
                self.ledger.snapshot_path(session_id),
            )
            t0 = time.perf_counter()
            session.pool.recover_session(session, params)
            _observe_rebuild(session.rebuild, time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 — recovery is best-effort
            _log.error(
                "session_recovery_failed", session=session_id, error=str(exc)
            )
            self.discard(session_id)
            return False
        return True

    def get(self, session_id) -> ProfilingSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServiceError(
                ErrorCode.UNKNOWN_SESSION, f"no such session: {session_id!r}"
            )
        return session

    def close(self, session_id, **close_kwargs) -> dict:
        """Close and forget one session; returns its final summary.

        ``close_kwargs`` (``include_epochs``/``epochs_from``/
        ``epochs_to``) pass through to the session's bounded
        epoch-series serialization.
        """
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self._release_tenant_locked(session.tenant)
                self._publish_active_locked()
        if session is None:
            raise ServiceError(
                ErrorCode.UNKNOWN_SESSION, f"no such session: {session_id!r}"
            )
        _metrics().counter(
            "repro_service_sessions_closed_total", "Sessions closed by request"
        ).inc()
        _log.info("session_closed", session=session_id)
        summary = session.close(**close_kwargs)
        if self.ledger is not None:
            # Nothing can resume or recover a closed session; its frames
            # stay replayable, its state need not take up disk.
            self.ledger.clear_snapshot(session_id)
        return summary

    def discard(self, session_id) -> bool:
        """Forget a session *without* closing it (worker-crash path:
        the session is already dead and its summary unrecoverable)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self._release_tenant_locked(session.tenant)
                self._publish_active_locked()
        if session is not None:
            _metrics().counter(
                "repro_service_sessions_crashed_total",
                "Sessions lost to worker crashes",
            ).inc()
            _log.warning("session_crashed", session=session_id)
        return session is not None

    def close_all(self) -> list[str]:
        """Drain path: close every session, newest last.

        Each session's subscribers receive one structured
        ``server_drain`` error frame before the close detaches them,
        so a consumer can tell a deliberate drain from a dead socket.

        Tenant slots are released per popped session (not cleared
        wholesale): a create mid-construction still holds its reserved
        slot, and the drain-generation bump makes that create fail at
        insert with ``server_drain``, releasing the slot itself — so
        per-tenant accounting never drifts and no session slips past
        the drain.
        """
        with self._lock:
            self._drain_gen += 1
            sessions = list(self._sessions.items())
            self._sessions.clear()
            for _, session in sessions:
                self._release_tenant_locked(session.tenant)
            self._publish_active_locked()
        for sid, session in sessions:
            session._fanout(
                "error",
                crash_event_data(
                    ErrorCode.SERVER_DRAIN, f"server draining; session {sid} closing"
                ),
            )
            session.close()
        if sessions:
            _metrics().counter(
                "repro_service_sessions_closed_total", "Sessions closed by request"
            ).inc(len(sessions))
        return [sid for sid, _ in sessions]

    def _checkpoint(self, session) -> bool:
        """Persist the eviction marker and the state snapshot; True
        when ``session`` is resumable.

        Runs after the eviction claim and before the goodbye fan-out,
        so the recorded epoch count is exact (no step can land —
        ``begin_op`` refuses once claimed) and the goodbye can
        truthfully carry ``resumable: true``.  The marker pins the
        eviction moment and is what makes the session resumable; the
        snapshot beside it — written by the process that holds the
        simulator, replacing the previous eviction's — is what makes
        resuming cost a load instead of a replay of the session's life.
        A snapshot that cannot be written (full disk, an unpicklable
        member) costs exactly that and nothing else.
        """
        if session.ledger is None:
            return False
        session_id = session.session_id
        meta = self.ledger.load_meta(session_id)
        if meta is None:
            return False
        marker = self.ledger.write_checkpoint(
            session_id,
            {
                "config_key": meta.get("config_key"),
                "epochs": session.ledger.epoch_count,
                "frame_seq": session.frame_seq,
                "tenant": session.tenant,
            },
        )
        snapshot_bytes = 0
        t0 = time.perf_counter()
        try:
            snapshot_bytes = session.write_snapshot(
                str(self.ledger.snapshot_path(session_id)),
                config_key=meta.get("config_key"),
                frame_seq=marker["frame_seq"],
                durable=self.ledger.durable,
            )["payload_bytes"]
        except Exception as exc:  # noqa: BLE001 — degrade to marker-only
            _log.warning(
                "session_snapshot_failed",
                session=session_id,
                error=f"{type(exc).__name__}: {exc}",
            )
        _log.info(
            "session_checkpointed",
            session=session_id,
            epochs=marker.get("epochs"),
            snapshot_bytes=snapshot_bytes,
            snapshot_write_seconds=time.perf_counter() - t0,
        )
        return True

    def evict_idle(self, now: float | None = None) -> list[str]:
        """Close sessions idle longer than the TTL; returns their ids.

        Sessions with an operation in flight (``busy``) are skipped: a
        step that runs longer than the TTL is the opposite of idle, and
        evicting it would close the simulator out from under the
        stepping thread.  The busy check and the eviction claim are one
        atomic act (``try_mark_evicting`` under the session's activity
        lock), so a step dispatched concurrently either registers its
        in-flight op first — the claim fails, the session survives — or
        fails ``begin_op`` with a structured ``evicted`` error; it can
        never run against the closed simulator.

        Ordering is load-bearing: the session is claimed, then (with
        :attr:`evict_to_disk`) checkpointed, then the
        structured goodbye fans out and the session is closed *while
        it is still registered*, and only then is it popped from the
        registry and its slots released.  A concurrent ``subscribe``
        therefore either attaches before the goodbye (and receives it —
        the fan-out and the attach share the subscriber lock), is
        refused with a structured ``evicted`` error (the claim set the
        flag), or arrives after the pop and gets ``unknown_session`` —
        it can never attach silently to a half-dead session.  And a
        ``resume_session`` racing the eviction (:meth:`await_evicted`)
        cannot rebuild the id while the old copy's close is in flight.
        From the claim on, :meth:`list_sessions` leaves the session out;
        the active gauge still counts it until the pop releases its
        slots.
        """
        if self.idle_ttl_s <= 0:
            return []
        now = self._clock() if now is None else now
        with self._lock:
            evicted = [
                (sid, s)
                for sid, s in list(self._sessions.items())
                if s.try_mark_evicting(now, self.idle_ttl_s)
            ]
        checkpointed = 0
        for sid, session in evicted:
            # Checkpoint (best-effort) before the goodbye so the frame
            # can truthfully promise resumability; the marker records
            # the epoch count *before* the goodbye record appends, and
            # the goodbye itself lands in the ledger as the last frame
            # of this session life.
            resumable = None
            if self.evict_to_disk:
                try:
                    resumable = self._checkpoint(session)
                except Exception:  # noqa: BLE001 — degrade to plain evict
                    _log.warning("session_checkpoint_failed", session=sid)
                    resumable = False
                if resumable:
                    checkpointed += 1
            # Structured goodbye *before* the registry pop: consumers
            # can tell an idle-TTL eviction from a network failure, and
            # every subscriber attached at this instant is guaranteed
            # to receive it.
            session._fanout(
                "error",
                crash_event_data(
                    ErrorCode.EVICTED,
                    f"session {sid} evicted after idling longer than "
                    f"{self.idle_ttl_s:g}s",
                    resumable=resumable,
                ),
            )
        for sid, session in evicted:
            session.close()
            _log.info("session_evicted", session=sid, idle_ttl_s=self.idle_ttl_s)
        if evicted:
            with self._lock:
                for sid, session in evicted:
                    # A drain (close_all) may have popped the session
                    # in the window since the claim; it released the
                    # tenant slot then, so only release on a real pop.
                    if self._sessions.pop(sid, None) is not None:
                        self._release_tenant_locked(session.tenant)
                self.sessions_checkpointed += checkpointed
                self._publish_active_locked()
            _metrics().counter(
                "repro_service_sessions_evicted_total",
                "Sessions evicted by the idle TTL",
            ).inc(len(evicted))
        if checkpointed:
            _metrics().counter(
                "repro_service_sessions_checkpointed_total",
                "Evicted sessions checkpointed to the ledger (resumable)",
            ).inc(checkpointed)
        return [sid for sid, _ in evicted]

    def list_sessions(self) -> list[dict]:
        """Every registered session but those claimed for eviction,
        which ``subscribe`` and new ops already refuse."""
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.info() for s in sessions if not s._evicting]
