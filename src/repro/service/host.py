"""The host of a session's simulation: the op table over hosted sessions.

A :class:`SessionHost` holds :class:`HostedSession`\\ s, each a
:class:`~repro.tiering.simulator.TieredSimulator` driven incrementally
through the epoch-step hook plus the :class:`~repro.core.daemon
.TMPDaemon` over its profiler, and answers the simulation ops
(``create``, ``step``, ``stats``, ``numa_maps``, ``reconfigure``,
``snapshot``, ``close``) that a :class:`~repro.service.session
.ProfilingSession` handle forwards.  Each frame's payload is encoded
once, here, where the numpy objects live, and leaves only through the
host's sink.

This is the one module of the service that imports the simulator
stack, and only the processes that simulate load it: a pool worker
(:func:`~repro.service.workers._worker_main`) and an in-process server
or in-thread handle (``workers=0``, which imports it in
:meth:`~repro.service.server.ServiceServer.start`).  A pooled server's
parent never does.
"""

from __future__ import annotations

import functools
import pickle
import threading
import time

from ..core.config import TMPConfig
from ..core.daemon import TMPDaemon
from ..ledger.snapshot import SnapshotError, read_snapshot, write_snapshot
from ..ledger.storage import SessionLedger
from ..memsim.machine import MachineConfig
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..tiering.policies import resolve_policy
from ..tiering.simulator import TieredSimulator
from ..workloads import make_workload, resolve_workload
from .protocol import ErrorCode, ServiceError, encode_payload
from .telemetry import (
    epoch_metrics_to_dict,
    ledger_epoch_window,
    simulation_result_to_dict,
)

__all__ = ["HostedSession", "SessionHost"]

_log = obs_log.get_logger("service.host")

#: (step latency histogram, epochs counter), bound once per registry.
_step_metrics = obs_metrics.per_registry(
    lambda registry: (
        registry.histogram(
            "repro_session_step_seconds", "Wall-clock latency of one step request"
        ),
        registry.counter("repro_session_epochs_total", "Scored epochs stepped"),
    )
)


class HostedSession:
    """One session's simulation: simulator, daemon and step timings.

    A :class:`SessionHost` holds it (an in-thread handle also reads its
    ``sim`` and ``daemon``).  It emits every frame — ``epoch`` from the
    simulator's epoch-step hook, ``reconfigured`` from
    :meth:`reconfigure` — only through the host's ``sink(session_id,
    event, payload_bytes)``, each payload encoded once, here, where the
    numpy objects live.  ``_sim_lock`` serializes the simulator and
    daemon: one op at a time per session.
    """

    def __init__(
        self,
        session_id: str,
        sink,
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
        catchup: dict | None = None,
    ):
        bad_params = functools.partial(ServiceError, ErrorCode.BAD_PARAMS)
        resolve_workload(workload, error=bad_params)
        policy_class = resolve_policy(policy, error=bad_params)
        self.session_id = session_id
        self.closed = False
        self._sink = sink
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
        #: The session's ledger directory (rebuilds only): a restored
        #: snapshot holds no per-epoch history, so epoch windows from
        #: before the restore are read from there.
        self._ledger_dir = catchup.get("ledger") if catchup else None
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
            # epoch hook, so subscribers (and the ledger) never see
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
        self.sim.add_epoch_hook(self._emit_epoch)

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

    def _emit_epoch(self, metrics) -> None:
        """Epoch-step hook: one ``epoch`` frame into the sink."""
        self._sink(
            self.session_id, "epoch", encode_payload(epoch_metrics_to_dict(metrics))
        )

    def info(self) -> dict:
        """Configuration, progress, and what the rebuild did."""
        return {
            "workload": self.sim.workload.name,
            "policy": self.sim.policy.name,
            "rank_source": self.sim.rank_source.value,
            "tier1_ratio": float(self.sim.tier1_ratio),
            "tier1_capacity": int(self.sim.tier1_capacity),
            "seed": self.sim.seed,
            "epochs_run": self.sim.epochs_run,
            "rebuild": self.rebuild,
        }

    def close(
        self,
        include_epochs: bool = False,
        epochs_from: int = 0,
        epochs_to: int | None = None,
    ) -> dict:
        """Finalize and return the run summary.

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
                earlier=self._earlier_epochs,
            )
            self.sim.close()
        return summary

    def _earlier_epochs(self, start: int, stop: int) -> list[dict]:
        """Epochs ``[start, stop)`` scored before a snapshot restore,
        read from the session's ledger (opening one only reads)."""
        if self._ledger_dir is None:
            return []
        session_ledger = SessionLedger(self._ledger_dir)
        try:
            return ledger_epoch_window(session_ledger, start, stop)
        finally:
            session_ledger.close()

    def step(self, epochs: int) -> dict:
        """Advance ``epochs`` scored epochs; returns their telemetry.

        Runs under the simulator lock and adds the call to the ``step``
        timing totals.  Each epoch's frame goes into the sink as the
        epoch completes, so a subscriber sees epoch ``k`` while ``k+1``
        is still executing.
        """
        if epochs < 1:
            raise ServiceError(ErrorCode.BAD_PARAMS, "epochs must be >= 1")
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
            step_seconds, epochs_total = _step_metrics()
            step_seconds.observe(seconds)
            epochs_total.inc(len(stepped))
            return {
                "session": self.session_id,
                "epochs": [epoch_metrics_to_dict(m) for m in stepped],
                "epochs_run": self.sim.epochs_run,
                "step_seconds": seconds,
            }

    def write_snapshot(
        self, path: str, *, config_key: str, frame_seq: int, durable: bool
    ) -> dict:
        """Write the state to ``path`` (the session manager's checkpoint
        step names it); returns the header written.

        Simulator and daemon go into a single pickle, so the objects
        they share stay shared.  The state holds no per-epoch history
        (:meth:`~repro.tiering.simulator.TieredSimulator
        .history_left_out`), so its size follows the session's state,
        not its age; the history is in the ledger."""
        with self._sim_lock, self.sim.history_left_out():
            epochs = self.sim.epochs_run
            payload = pickle.dumps(
                (self.sim, self.daemon), protocol=pickle.HIGHEST_PROTOCOL
            )
        return write_snapshot(
            path,
            payload,
            config_key=config_key,
            epochs=epochs,
            frame_seq=frame_seq,
            durable=durable,
        )

    def stats(self) -> dict:
        """Daemon summary, run totals and step timings."""
        with self._sim_lock:
            return {
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
                raise ServiceError(ErrorCode.BAD_PARAMS, exc.args[0]) from exc

    def reconfigure(self, changes: dict) -> dict:
        """Apply live TMP config changes through the daemon.

        A successful change emits one ``reconfigured`` frame, so it
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
            self._sink(
                self.session_id,
                "reconfigured",
                encode_payload({"changes": changes, "epochs_run": self.sim.epochs_run}),
            )
            return {"session": self.session_id, "applied": sorted(changes)}


#: Every op but ``create`` names one hosted session: ``op -> run(session,
#: argument)``, and what ``run`` returns is the reply.
_SESSION_OPS = {
    "step": HostedSession.step,
    "stats": lambda session, _: session.stats(),
    "numa_maps": HostedSession.numa_maps,
    "reconfigure": HostedSession.reconfigure,
    # Written where the state lives: it never crosses a pipe.
    "snapshot": lambda session, header: session.write_snapshot(**header),
    "close": lambda session, options: session.close(**options),
}


class SessionHost:
    """The op table over hosted sessions, whichever transport runs it.

    A pool worker runs one behind its pipe
    (:mod:`~repro.service.workers`); an in-thread
    :class:`ProfilingSession` owns one and calls :meth:`request`
    directly — no pickle, no extra hop.  Requests are
    ``(op, payload)``: ``create`` takes ``(session_id, params)``, every
    other op ``(session_id, argument)``.  Each session built here emits
    its frames into ``sink(session_id, event, payload_bytes)``.
    """

    def __init__(self, sink, name: str = "the in-thread host"):
        self.sessions: dict[str, HostedSession] = {}
        self._sink = sink
        self._name = name

    def request(self, op: str, payload=None, timeout_s: float | None = None):
        """Run ``op`` on the calling thread: the in-thread transport,
        and what a worker runs for each message it reads (``timeout_s``
        is the pipe's)."""
        if op == "create":
            # A rebuild's ``params`` carry ``catchup``: the snapshot it
            # names is read here, and the history since re-runs before
            # the epoch hook attaches, unseen by any subscriber.
            session_id, params = payload
            try:
                session = HostedSession(session_id, self._sink, **params)
            except TypeError as exc:  # an unknown or repeated param
                raise ServiceError(ErrorCode.BAD_PARAMS, str(exc)) from exc
            self.sessions[session_id] = session
            return session.info()
        run = _SESSION_OPS.get(op)
        if run is None:
            raise ServiceError(ErrorCode.UNKNOWN_OP, f"unknown host op {op!r}")
        session_id, argument = payload
        session = self.sessions.get(session_id)
        if session is None:
            raise ServiceError(
                ErrorCode.UNKNOWN_SESSION,
                f"{self._name} has no session {session_id!r}",
            )
        reply = run(session, argument)
        if op == "close":
            del self.sessions[session_id]
        return reply
