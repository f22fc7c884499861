"""The ``svc_*`` workloads: a fresh ``repro serve`` subprocess on a unix
socket, loaded from this one asyncio process over two connections.

Every request is timed by the load generator; an open-loop request is
timed from the moment it was due, not from when it was sent.  What the
server reports about itself (its ``metrics`` op, ``/proc``) only feeds
the per-layer numbers.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import common

common.add_src_to_path()

import numpy as np  # noqa: E402

from repro.ledger import Ledger  # noqa: E402
from repro.loadgen.aioclient import AsyncServiceClient  # noqa: E402
from repro.loadgen.report import percentile  # noqa: E402
from repro.memsim import MachineConfig  # noqa: E402
from repro.service.protocol import ServiceError  # noqa: E402
from repro.service.telemetry import epoch_metrics_to_dict  # noqa: E402
from repro.tiering import TieredSimulator  # noqa: E402
from repro.tiering.policies import POLICIES  # noqa: E402
from repro.workloads import make_workload  # noqa: E402

SESSIONS = 8
WORKLOAD_KWARGS = {"footprint_pages": 256, "accesses_per_epoch": 1000}
#: Sessions whose every epoch frame and ``close_session`` summary are
#: compared with a direct simulator run of the same config and seed.
CHECKED = 3
MAX_QUEUE = 1024
PHASE_TIMEOUT_S = 90.0

SVC = {
    "svc_inproc": dict(server=["--workers", "0", "--reap-interval", "0"]),
    "svc_pool": dict(server=["--workers", "1", "--reap-interval", "0"]),
    "svc_durable": dict(
        server=[
            "--workers", "1", "--evict-to-disk",
            "--idle-ttl", "1", "--reap-interval", "0.1",
        ],
        subscribers=8,
        durable=True,
    ),
}

#: Open loop: Poisson arrivals at this rate, about a third of what one
#: connection pair gets out of the server in a closed loop.
OPEN_RATE = 60.0
OPEN_REQUESTS_PER_S = 30  # x --seconds; traced pass only
CLOSED_STEPS_PER_S = 25  # x --seconds, per session
DURABLE_REQUESTS_PER_S = 1.5  # x --seconds, per session, 8 epochs each
DURABLE_EPOCHS_PER_REQUEST = 8
REPLAYS = 20
#: A generator later than this against its own schedule, or slower than
#: this share of it, did not offer the load it claims.
MAX_LATE_MS_P99 = 10.0
MIN_RATE_SHARE = 0.98


def session_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def build_direct(seed: int) -> TieredSimulator:
    """What ``ProfilingSession`` builds for ``create_session('gups',
    seed=seed, workload_kwargs=WORKLOAD_KWARGS)``, without a service."""
    sim = TieredSimulator(
        make_workload("gups", **WORKLOAD_KWARGS),
        POLICIES["history"](),
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=seed,
    )
    sim.start(init=True)
    return sim


class Events:
    """Per-subscription bookkeeping of every pushed frame."""

    def __init__(self):
        self.epochs = defaultdict(int)
        self.frames = defaultdict(int)
        self.dropped = defaultdict(int)
        self.goodbyes: dict[str, dict] = {}
        self.stamps: list[float] = []
        #: subscription -> every epoch payload it got, for the few
        #: subscriptions whose session is compared with a direct run.
        self.series: dict[str, list[dict]] = {}

    def __call__(self, frame: dict) -> None:
        sub = frame["subscription"]
        self.frames[sub] += 1
        self.dropped[sub] = frame["dropped"]
        if frame["event"] == "epoch":
            self.epochs[sub] += 1
            self.stamps.append(time.perf_counter())
            if sub in self.series:
                self.series[sub].append(frame["data"])
        elif frame["event"] == "error":
            self.goodbyes[sub] = frame["data"]

    def seen_by_live_subs(self, subs: dict[str, list[str]]) -> dict:
        """session -> ``(epoch frames + drops, drops)`` per subscription."""
        return {
            sid: [
                (self.epochs[sub] + self.dropped[sub], self.dropped[sub])
                for sub in mine
            ]
            for sid, mine in subs.items()
        }


class Service:
    """One server subprocess, two connections, eight warmed sessions."""

    def __init__(self, spec: dict, seed: int, directory: str):
        self.spec = spec
        self.seed = seed
        self.directory = directory
        self.proc: subprocess.Popen | None = None
        self.clients: list[AsyncServiceClient] = []
        self.events = Events()
        self.sessions: list[str] = []
        #: session -> ids of its live subscriptions
        self.subs: dict[str, list[str]] = {}
        self.sent = 0
        self.failed = 0
        self.setup_s = 0.0

    @property
    def socket_path(self) -> str:
        # Relative, so a deep checkout cannot overflow sun_path.
        return os.path.relpath(os.path.join(self.directory, "s.sock"))

    async def request(self, client: int, op: str, **params) -> dict:
        self.sent += 1
        try:
            return await self.clients[client].request(op, **params)
        except (ServiceError, ConnectionError):
            self.failed += 1
            raise

    async def start(self) -> None:
        t0 = time.perf_counter()
        with open(os.path.join(self.directory, "server.log"), "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--socket", "s.sock", "--ledger-dir", "ledger",
                    "--max-sessions", str(SESSIONS), *self.spec["server"],
                ],
                cwd=self.directory,
                env=common.child_env(),
                stdout=log,
                stderr=log,
                start_new_session=True,
            )
        deadline = t0 + 30.0
        while not os.path.exists(self.socket_path):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not come up: {self.log_tail()}")
            await asyncio.sleep(0.005)
        for _ in range(2):
            self.clients.append(await self.connect(deadline))
        for i in range(SESSIONS):
            stepper = self.stepper(i)
            info = await self.request(
                stepper, "create_session", workload="gups",
                seed=session_seed(self.seed, i), workload_kwargs=WORKLOAD_KWARGS,
            )
            sid = info["session"]
            self.sessions.append(sid)
            self.subs[sid] = []
            for _ in range(self.spec.get("subscribers", 1)):
                sub = await self.request(
                    1 - stepper, "subscribe", session=sid, max_queue=MAX_QUEUE
                )
                self.subs[sid].append(sub["subscription"])
            if i < CHECKED:
                self.events.series[self.subs[sid][0]] = []
            await self.request(stepper, "step", session=sid, epochs=1)
        self.setup_s = time.perf_counter() - t0

    async def connect(self, deadline: float) -> AsyncServiceClient:
        while True:
            try:
                return await AsyncServiceClient.connect(
                    socket_path=self.socket_path, on_event=self.events
                )
            except ConnectionRefusedError:  # bound, not listening yet
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.005)

    @staticmethod
    def stepper(index: int) -> int:
        """The connection that steps session ``index``; its frames go
        to the other one."""
        return index * 2 // SESSIONS

    def log_tail(self) -> str:
        try:
            with open(os.path.join(self.directory, "server.log"), "rb") as fh:
                return fh.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""

    def pids(self) -> tuple[int, list[int]]:
        return self.proc.pid, common.child_pids(self.proc.pid)

    def cpu_s(self) -> tuple[float, float]:
        parent, workers = self.pids()
        return common.proc_cpu_s(parent), sum(map(common.proc_cpu_s, workers))

    def peak_rss_mb(self) -> float:
        parent, workers = self.pids()
        return sum(common.proc_status_mb(p, "VmHWM") for p in [parent, *workers])

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.proc is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, common.stop_process, self.proc
            )


# ------------------------------------------------------------- the phases


async def open_loop(svc: Service, n: int) -> dict:
    """``n`` ``step(1)`` requests on a seeded Poisson schedule."""
    rng = np.random.default_rng([svc.seed, 0x0E2E])
    due = np.cumsum(rng.exponential(1.0 / OPEN_RATE, n))
    latency = [0.0] * n
    late = []

    async def one(i: int, t_due: float) -> None:
        await svc.request(i % 2, "step", session=svc.sessions[i % SESSIONS], epochs=1)
        latency[i] = time.perf_counter() - t_due

    tasks = []
    start = time.perf_counter()
    for i in range(n):
        t_due = start + due[i]
        delay = t_due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(time.perf_counter() - t_due)
        tasks.append(asyncio.create_task(one(i, t_due)))
    sending_s = time.perf_counter() - start
    results = await asyncio.gather(*tasks, return_exceptions=True)
    errors = [r for r in results if isinstance(r, BaseException)]
    if errors:
        raise errors[0]
    return {
        "latency": latency,
        "late_ms_p99": percentile(late, 99) * 1e3,
        "rate_achieved": n / sending_s,
        "rate_scheduled": n / float(due[-1]),
    }


async def closed_loop(
    svc: Service, requests_per_session: int, epochs: int
) -> dict:
    """Two callers, each stepping its own four sessions round-robin and
    waiting for every reply before its next request."""
    latency, done = [], []
    total = SESSIONS * requests_per_session
    marks = {round(i * total / common.BLOCKS) for i in range(1, common.BLOCKS + 1)}
    cpu = [svc.cpu_s()]

    async def caller(mine: list[int]) -> None:
        for _ in range(requests_per_session):
            for i in mine:
                t0 = time.perf_counter()
                await svc.request(
                    svc.stepper(i), "step", session=svc.sessions[i], epochs=epochs
                )
                t1 = time.perf_counter()
                latency.append(t1 - t0)
                done.append(t1)
                if len(done) in marks:
                    cpu.append(svc.cpu_s())

    share = SESSIONS // 2
    start = time.perf_counter()
    await asyncio.gather(
        caller(list(range(share))), caller(list(range(share, SESSIONS)))
    )
    return {"latency": latency, "done": done, "start": start, "cpu": cpu}


async def replay(svc: Service, sid: str, times: int) -> tuple[list[float], int, int]:
    """``subscribe(from_seq=0)`` + ``unsubscribe``: frames per second of
    each replay, the count the server claims and the count received."""
    rates, claimed, received = [], 0, 0
    for _ in range(times):
        t0 = time.perf_counter()
        sub = await svc.request(
            0, "subscribe", session=sid, from_seq=0, max_queue=MAX_QUEUE
        )
        elapsed = time.perf_counter() - t0
        await svc.request(0, "unsubscribe", subscription=sub["subscription"])
        claimed = sub["replayed"]
        # Replayed frames precede the response on the same connection.
        received = svc.events.frames[sub["subscription"]]
        rates.append(claimed / elapsed)
    return rates, claimed, received


async def wait_for_goodbyes(svc: Service, timeout_s: float = 30.0) -> float:
    """Idle until every subscription was told its session was evicted."""
    t0 = time.perf_counter()
    wanted = [sub for subs in svc.subs.values() for sub in subs]
    while not all(sub in svc.events.goodbyes for sub in wanted):
        if time.perf_counter() - t0 > timeout_s:
            raise TimeoutError("sessions were not evicted to disk")
        await asyncio.sleep(0.01)
    return time.perf_counter() - t0


def counter(snapshot: dict, name: str) -> float:
    return sum(s["value"] for s in snapshot.get(name, {}).get("samples", ()))


def histogram(snapshot: dict, name: str) -> tuple[float, float]:
    samples = snapshot.get(name, {}).get("samples", ())
    return sum(s["sum"] for s in samples), sum(s["count"] for s in samples)


# ---------------------------------------------------------------- one run


async def checked_open_loop(svc: Service, n: int) -> dict:
    """The open loop, once more if the generator missed its schedule."""
    for _ in range(2):  # one retry: a single stall is the box's
        opened = await open_loop(svc, n)
        if (
            opened["late_ms_p99"] <= MAX_LATE_MS_P99
            and opened["rate_achieved"] >= MIN_RATE_SHARE * opened["rate_scheduled"]
        ):
            return opened
    raise common.InvalidRun(
        f"generator late p99 {opened['late_ms_p99']:.1f} ms, sent "
        f"{opened['rate_achieved']:.1f}/s of "
        f"{opened['rate_scheduled']:.1f}/s scheduled"
    )


async def measure(svc: Service, spec: dict, seconds: float, trace: int) -> dict:
    """The measured phases against a set-up service; returns raw series."""
    durable = spec.get("durable", False)
    out: dict = {"checks": {}}
    metrics0 = (await svc.request(0, "metrics"))["metrics"]
    own_cpu0, t0 = time.process_time(), time.perf_counter()
    if trace:
        if not durable:
            # At full length: a p99 needs its samples.
            out["open"] = await checked_open_loop(
                svc, common.scaled(OPEN_REQUESTS_PER_S, seconds)
            )
        seconds = seconds / 4

    frames_before = len(svc.events.stamps)
    if durable:
        per_request = DURABLE_EPOCHS_PER_REQUEST
        rate = DURABLE_REQUESTS_PER_S
    else:
        per_request = 1
        rate = CLOSED_STEPS_PER_S
    closed = await closed_loop(svc, common.scaled(rate, seconds, 1), per_request)
    out["closed"] = closed
    out["epochs_per_request"] = per_request
    out["loadgen_cpu_share"] = (time.process_time() - own_cpu0) / (
        time.perf_counter() - t0
    )
    metrics1 = (await svc.request(0, "metrics"))["metrics"]
    # Taken now: replays push epoch frames too.
    out["closed_frame_stamps"] = svc.events.stamps[frames_before:]

    live_seen = None
    if durable:
        out["evict_wait_s"] = await wait_for_goodbyes(svc)
        # A resumed session numbers its subscriptions from 1 again, so
        # the live subscribers' counts are read before any replay.
        live_seen = svc.events.seen_by_live_subs(svc.subs)
        svc.events.frames.clear()
        out["series"] = svc.events.series
        svc.events.series = {}
        out["checks"]["goodbyes_resumable"] = all(
            g.get("code") == "evicted" and g.get("resumable") is True
            for g in svc.events.goodbyes.values()
        )

    # Session by session: a resumed session idles out again after 1 s.
    out.update(resume_s=[], replay_rates=[], replayed={}, summaries=[])
    replay_ok = True
    for i, sid in enumerate(svc.sessions):
        if durable:
            t0 = time.perf_counter()
            await svc.request(0, "resume_session", session=sid)
            out["resume_s"].append(time.perf_counter() - t0)
        if durable or i < CHECKED:
            rates, claimed, received = await replay(
                svc, sid, REPLAYS if durable else 1
            )
            out["replay_rates"] += rates
            out["replayed"][sid] = claimed
            replay_ok &= claimed == received
        closed_session = await svc.request(0, "close_session", session=sid)
        out["summaries"].append(closed_session["result"])
    out["checks"]["replay_frames_all_received"] = replay_ok
    if durable:
        info = await svc.request(0, "server_info")
        out["checks"]["checkpointed_resumed_all"] = (
            info["sessions_checkpointed"] == info["sessions_resumed"] == SESSIONS
        )
    stepped = {
        sid: summary["epochs_run"]
        for sid, summary in zip(svc.sessions, out["summaries"])
    }

    out["peak_rss_mb"] = svc.peak_rss_mb()
    measured_epochs = sum(stepped.values()) - SESSIONS  # less the warm-ups
    out["measured_epochs"] = measured_epochs
    # Every epoch of a session reaches each subscriber that was attached
    # from its first step, as a frame or as a counted drop.
    seen = live_seen or svc.events.seen_by_live_subs(svc.subs)
    out["checks"]["frames_plus_dropped_equal_epochs"] = all(
        got == stepped[sid] for sid, counts in seen.items() for got, _ in counts
    )
    out["frames_dropped_seen"] = sum(
        dropped for counts in seen.values() for _, dropped in counts
    )

    step_sum0, step_n0 = histogram(metrics0, "repro_session_step_seconds")
    step_sum1, step_n1 = histogram(metrics1, "repro_session_step_seconds")

    def delta(name: str) -> float:
        return counter(metrics1, name) - counter(metrics0, name)

    phase_epochs = max(1, int(delta("repro_session_epochs_total")))
    out["server"] = {
        "requests": delta("repro_service_requests_total"),
        "frames_pushed": delta("repro_service_subscriber_frames_total"),
        "frames_dropped": delta("repro_service_subscriber_dropped_total"),
        "steps_rejected": delta("repro_service_steps_rejected_total"),
        "step_server_ms_mean": (step_sum1 - step_sum0)
        / max(1.0, step_n1 - step_n0)
        * 1e3,
        "ledger_appends": delta("repro_ledger_appends_total"),
        "ledger_bytes_per_epoch": delta("repro_ledger_bytes_total") / phase_epochs,
        "ledger_fsync_s": histogram(metrics1, "repro_ledger_fsync_seconds")[0]
        - histogram(metrics0, "repro_ledger_fsync_seconds")[0],
        "ledger_append_errors": delta("repro_ledger_append_errors_total"),
    }
    return out


def timed_twin(seed: int, index: int, epochs: int) -> tuple[TieredSimulator, float]:
    """Session ``index`` rebuilt directly to ``epochs``, and how long it took."""
    t0 = time.perf_counter()
    sim = build_direct(session_seed(seed, index))
    sim.step(epochs)
    return sim, time.perf_counter() - t0


def verify_against_direct(svc: Service, out: dict, twins: list) -> dict:
    """The checked sessions equal direct simulator runs: every epoch
    frame a subscriber got, and the summary ``close_session`` gave."""
    series = out.get("series", svc.events.series)
    overheads = []
    equal = True
    for index in range(CHECKED):
        summary = out["summaries"][index]
        if index == len(twins):
            twins.append(timed_twin(svc.seed, index, summary["epochs_run"]))
        result = twins[index][0].result
        equal &= series[svc.subs[svc.sessions[index]][0]] == [
            epoch_metrics_to_dict(m) for m in result.epochs
        ]
        equal &= (
            summary["epochs_run"],
            summary["mean_hitrate"],
            summary["total_runtime_s"],
            summary["total_migrations"],
        ) == (
            len(result.epochs),
            result.mean_hitrate,
            result.total_runtime_s,
            result.total_migrations,
        )
        overheads.append(twins[index][0].profiler.overhead_fraction() * 100)
    return {
        "equal": equal,
        "rebuild_s": [seconds for _, seconds in twins],
        "modelled_overhead_pct": statistics.mean(overheads),
    }


def ledger_frame_counts(directory: str, sessions) -> dict[str, int]:
    """Records on disk per session, read after the server has gone."""
    ledger = Ledger(os.path.join(directory, "ledger"))
    counts = {}
    for sid in sessions:
        session_ledger = ledger.open_session(sid)
        try:
            counts[sid] = sum(1 for _ in session_ledger.read_encoded())
        finally:
            session_ledger.close()
    return counts


async def run_async(name: str, seed: int, seconds: float, trace: int) -> dict:
    spec = SVC[name]
    setups = []
    # The untraced svc_inproc / svc_pool run knows how old its sessions
    # will get, so it can time its direct rebuilds apart from each other
    # (one slow spell of the box cannot hit all three); svc_durable
    # must not idle past its TTL and times resume_session instead.
    early = not trace and not spec.get("durable")
    age = 1 + common.scaled(CLOSED_STEPS_PER_S, seconds, 1)
    twins = []
    with common.run_dir() as top:
        svc = None
        try:
            for attempt in range(1 if trace else common.SETUPS):
                if svc is not None:
                    await svc.stop()
                    if early and len(twins) < CHECKED - 1:
                        twins.append(timed_twin(seed, len(twins), age))
                directory = os.path.join(top, f"setup{attempt}")
                os.mkdir(directory)
                svc = Service(spec, seed, directory)
                await svc.start()
                setups.append(svc.setup_s)
            raw = await asyncio.wait_for(
                measure(svc, spec, seconds, trace), PHASE_TIMEOUT_S
            )
        except BaseException:
            if svc is not None:
                sys.stderr.write(svc.log_tail())
            raise
        finally:
            if svc is not None:
                await svc.stop()
        on_disk = ledger_frame_counts(svc.directory, raw["replayed"])
        raw["checks"]["replayed_equals_ledger_frames"] = on_disk == raw["replayed"]
    direct = verify_against_direct(svc, raw, twins)
    raw["checks"]["sessions_equal_direct_runs"] = direct["equal"]
    return report(name, spec, svc, raw, direct, setups, trace)


def report(name, spec, svc, raw, direct, setups, trace) -> dict:
    durable = spec.get("durable", False)
    closed = raw["closed"]
    per_request = raw["epochs_per_request"]
    accesses = per_request * WORKLOAD_KWARGS["accesses_per_epoch"]
    n_closed = len(closed["latency"])

    if durable:
        resume = common.p50_over_blocks(raw["resume_s"], "ms", 1e3)
    else:
        resume = common.p50_over_blocks(direct["rebuild_s"], "ms", 1e3)
    # CPU per epoch, block by block: (parent, workers) at each boundary.
    block_epochs = n_closed * per_request / (len(closed["cpu"]) - 1)
    cpu_ms = [
        [(after[k] - before[k]) * 1e3 / block_epochs for k in (0, 1)]
        for before, after in zip(closed["cpu"], closed["cpu"][1:])
    ]
    cpu_ms_total = [parent + workers for parent, workers in cpu_ms]

    end_to_end = {
        "setup_s": common.metric(statistics.median(setups), "s", len(setups)),
        "accesses_per_s": common.rate_over_blocks(
            closed["done"], closed["start"], "1/s", accesses
        ),
        "epoch_ms_p50": common.p50_over_blocks(
            closed["latency"], "ms", 1e3 / per_request
        ),
        "cpu_ms_per_epoch": common.metric(
            common.quiet(cpu_ms_total), "ms", n_closed * per_request, cpu_ms_total
        ),
        "frames_per_s": common.rate_over_blocks(
            raw["closed_frame_stamps"], closed["start"], "1/s"
        ),
        "resume_ms_p50": resume,
        "peak_rss_mb": common.metric(raw["peak_rss_mb"], "MiB", 1),
        # Every session's own figure; CHECKED of them proven above.
        "tier1_hitrate": common.metric(
            statistics.mean(s["mean_hitrate"] for s in raw["summaries"]),
            "ratio",
            SESSIONS,
        ),
        "modelled_overhead_pct": common.metric(
            direct["modelled_overhead_pct"], "%", CHECKED
        ),
    }

    server = raw["server"]
    # Open loop, from due time; svc_durable has none and gives its
    # closed-loop requests of 8 epochs.
    opened = raw.get("open")
    step_s = (opened or closed)["latency"]
    per_layer = {
        "service.requests": common.metric(server["requests"], "count", 1),
        "service.frames_pushed": common.metric(server["frames_pushed"], "count", 1),
        "service.frames_dropped": common.metric(server["frames_dropped"], "count", 1),
        "service.steps_rejected": common.metric(server["steps_rejected"], "count", 1),
        "service.step_server_ms_mean": common.metric(
            server["step_server_ms_mean"], "ms", n_closed
        ),
        "service.parent_cpu_ms_per_epoch": common.metric(
            statistics.median(parent for parent, _ in cpu_ms),
            "ms",
            n_closed * per_request,
        ),
        "service.worker_cpu_ms_per_epoch": common.metric(
            statistics.median(workers for _, workers in cpu_ms),
            "ms",
            n_closed * per_request,
        ),
        "ledger.appends": common.metric(server["ledger_appends"], "count", 1),
        "ledger.bytes_per_epoch": common.metric(
            server["ledger_bytes_per_epoch"], "bytes", raw["measured_epochs"]
        ),
        "ledger.fsync_s": common.metric(server["ledger_fsync_s"], "s", 1),
        "ledger.append_errors": common.metric(
            server["ledger_append_errors"], "count", 1
        ),
        "loadgen.sent": common.metric(svc.sent, "count", 1),
        "loadgen.cpu_share": common.metric(raw["loadgen_cpu_share"], "ratio", 1),
        "loadgen.step_ms_p50": common.metric(
            statistics.median(step_s) * 1e3, "ms", len(step_s)
        ),
        "loadgen.step_ms_p90": common.metric(
            percentile(step_s, 90) * 1e3, "ms", len(step_s)
        ),
        "loadgen.step_ms_p99": common.metric(
            percentile(step_s, 99) * 1e3, "ms", len(step_s)
        ),
    }
    if opened:
        per_layer["loadgen.rate_achieved"] = common.metric(
            opened["rate_achieved"], "1/s", len(opened["latency"])
        )
        per_layer["loadgen.late_ms_p99"] = common.metric(
            opened["late_ms_p99"], "ms", len(opened["latency"])
        )
    if durable:
        age = raw["summaries"][0]["epochs_run"]
        per_layer["service.resume_us_per_epoch"] = common.metric(
            statistics.median(raw["resume_s"]) * 1e6 / age, "us", len(raw["resume_s"])
        )
        per_layer["service.evict_wait_s"] = common.metric(raw["evict_wait_s"], "s", 1)
        per_layer["ledger.replay_frames_per_s"] = common.p50_over_blocks(
            raw["replay_rates"], "1/s", lower_is_better=False
        )

    checks = raw["checks"]
    failed = svc.failed + sum(not ok for ok in checks.values())
    failed += raw["frames_dropped_seen"]
    return {
        "metrics": per_layer if trace else end_to_end,
        "checks": checks,
        "attempted": svc.sent + len(checks),
        "failed": int(failed),
        "epochs": raw["measured_epochs"],
    }


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    with common.one_cpu():
        return asyncio.run(run_async(name, seed, seconds, trace))
