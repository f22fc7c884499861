"""Service throughput benchmark: worker pool vs. in-process stepping.

Runs the acceptance scenario of the multi-core service work: eight
concurrent sessions stepping continuously against one server, once
with ``workers=0`` (the GIL-bound in-process path) and once with
``workers=4`` (the sticky worker-process pool), and records epochs/s
plus the pool speedup to ``BENCH_service.json``.

A second scenario measures observability cost: the same stepped run
with ``repro.obs`` metrics enabled vs. disabled, recorded as
``metrics_overhead`` (fractional slowdown of the min-of-N CPU-time
floor, so scheduler noise doesn't masquerade as instrumentation
cost).  A third applies the same estimator to the telemetry ledger
(``--ledger-dir`` on vs. off), recorded as ``ledger_overhead``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json

On a >= 4-core machine the pool scenario must clear a 2.5x speedup
floor, and metrics overhead must stay under 3 % (both asserted by
``tests/test_performance.py``, not here, so the benchmark itself stays
runnable on small CI boxes).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.service import ServerThread, ServiceClient  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    encode_frame,
    encode_payload,
    event_frame,
    splice_event_frame,
)

WORKLOAD_KWARGS = {"footprint_pages": 512, "accesses_per_epoch": 4000}
DEFAULT_SESSIONS = 8
DEFAULT_EPOCHS = 24
STEP_CHUNK = 4
FANOUT_SUBSCRIBERS = 16


def run_scenario(
    workers: int,
    sessions: int = DEFAULT_SESSIONS,
    epochs: int = DEFAULT_EPOCHS,
    chunk: int = STEP_CHUNK,
    ledger_dir: str | None = None,
    subscribe: bool = False,
) -> dict:
    """Step ``sessions`` concurrent sessions; return the timing record.

    Every client thread creates its own session, warms it up with one
    epoch (excluded from timing), then all threads step ``epochs``
    epochs in ``chunk``-sized requests between two barriers.

    ``subscribe=True`` attaches every session to its own event stream
    first, putting the subscriber fan-out (``SubscriberQueue.push``,
    one frame per epoch) on the measured path.
    """
    start_barrier = threading.Barrier(sessions + 1)
    done_barrier = threading.Barrier(sessions + 1)
    errors: list[BaseException] = []

    with ServerThread(
        port=0,
        workers=workers,
        max_sessions=sessions,
        step_workers=sessions,
        reap_interval_s=0,
        ledger_dir=ledger_dir,
    ) as srv:

        def drive(seed: int) -> None:
            try:
                with ServiceClient(address=srv.address, timeout_s=300) as client:
                    sid = client.create_session(
                        "gups", seed=seed, workload_kwargs=dict(WORKLOAD_KWARGS)
                    )["session"]
                    if subscribe:
                        client.subscribe(sid, max_queue=epochs + 8)
                    client.step(sid, epochs=1)  # warmup: JIT-ish caches, pages
                    start_barrier.wait()
                    for _ in range(0, epochs, chunk):
                        client.step(sid, epochs=chunk)
                    done_barrier.wait()
            except BaseException as exc:  # noqa: BLE001 — surface in main thread
                errors.append(exc)
                raise

        threads = [
            threading.Thread(target=drive, args=(seed,), daemon=True)
            for seed in range(sessions)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        c0 = time.process_time()
        t0 = time.perf_counter()
        done_barrier.wait()
        wall_s = time.perf_counter() - t0
        # process_time sums CPU across every thread in the process, so
        # this delta is the stepped phase's CPU cost regardless of how
        # the scheduler interleaved the driving threads.
        cpu_s = time.process_time() - c0
        for thread in threads:
            thread.join(timeout=60)
    if errors:
        raise errors[0]

    total_epochs = sessions * epochs
    return {
        "workers": workers,
        "sessions": sessions,
        "epochs_per_session": epochs,
        "total_epochs": total_epochs,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "epochs_per_s": total_epochs / wall_s,
    }


def run_metrics_overhead(
    sessions: int = DEFAULT_SESSIONS,
    epochs: int = DEFAULT_EPOCHS,
    repeats: int = 8,
) -> dict:
    """Fractional cost of metrics collection on a stepped run.

    Both arms run in-process (``workers=0``) so ``configure`` toggles
    the very registry the instrumentation writes to.  Individual runs
    jitter 10-30% (scheduler, GIL convoys) — far above the real
    instrumentation cost — so the design compares *floors* instead of
    hoping: two discarded warmups, then ``repeats`` interleaved pairs
    whose within-pair order alternates (position bias cancels), each
    arm scored by its min CPU time.  CPU time (``process_time``, which
    sums across threads) is used over wall time because it is immune
    to CPU stolen by other processes, and the instrumentation's cost
    *is* CPU work, so it cannot hide from this clock.

    Even CPU-time floors wander a few percent between trials on a
    noisy box, so the reported fraction is the min of two estimators
    with disjoint failure modes: the floor ratio (wrong only when one
    arm never draws its floor) and the median of per-pair ratios
    (adjacent runs share drift, so each ratio cancels it; wrong only
    under sustained correlated drift).  A real regression inflates
    every enabled run and therefore moves both; noise rarely moves
    both at once.

    Every session is subscribed to its own event stream, so the
    per-epoch subscriber fan-out (``SubscriberQueue.push``, which
    bumps the frame/drop counters on every single frame) is inside the
    measured region — that hot path must resolve cached metric handles,
    not re-walk the registry per frame.
    """
    records = {False: [], True: []}
    try:
        # Two discarded warmups: run times settle over the first few
        # runs (page cache, allocator, thread pools), and a run still
        # on that slope would bias whichever arm samples it.
        run_scenario(0, sessions=sessions, epochs=epochs, subscribe=True)
        run_scenario(0, sessions=sessions, epochs=epochs, subscribe=True)
        for i in range(repeats):
            order = (False, True) if i % 2 == 0 else (True, False)
            for enabled in order:
                obs_metrics.configure(enabled)
                records[enabled].append(
                    run_scenario(
                        0, sessions=sessions, epochs=epochs, subscribe=True
                    )
                )
    finally:
        obs_metrics.configure(True)
    disabled_cpu = min(r["cpu_s"] for r in records[False])
    enabled_cpu = min(r["cpu_s"] for r in records[True])
    floor_fraction = enabled_cpu / disabled_cpu - 1.0
    pair_fraction = statistics.median(
        en["cpu_s"] / dis["cpu_s"]
        for en, dis in zip(records[True], records[False])
    ) - 1.0
    return {
        "sessions": sessions,
        "epochs_per_session": epochs,
        "repeats": repeats,
        "disabled_cpu_s": disabled_cpu,
        "enabled_cpu_s": enabled_cpu,
        "disabled_wall_s": min(r["wall_s"] for r in records[False]),
        "enabled_wall_s": min(r["wall_s"] for r in records[True]),
        "floor_fraction": floor_fraction,
        "pair_fraction": pair_fraction,
        "overhead_fraction": min(floor_fraction, pair_fraction),
    }


def run_ledger_overhead(
    sessions: int = DEFAULT_SESSIONS,
    epochs: int = DEFAULT_EPOCHS,
    repeats: int = 8,
) -> dict:
    """Fractional step-throughput cost of the durable telemetry ledger.

    Same noise-resistant design as :func:`run_metrics_overhead`: both
    arms run in-process, two discarded warmups, ``repeats`` interleaved
    pairs with alternating within-pair order, each arm scored by its
    min CPU time, and the reported fraction is the min of the floor
    ratio and the median per-pair ratio.  The ledgered arm appends
    every epoch frame to a fresh directory under the default
    ``fsync="rotate"`` policy — the configuration ``repro serve
    --ledger-dir`` ships.
    """
    records = {False: [], True: []}
    run_scenario(0, sessions=sessions, epochs=epochs)
    run_scenario(0, sessions=sessions, epochs=epochs)
    for i in range(repeats):
        order = (False, True) if i % 2 == 0 else (True, False)
        for ledgered in order:
            tmp = tempfile.mkdtemp(prefix="bench-ledger-") if ledgered else None
            try:
                records[ledgered].append(
                    run_scenario(
                        0, sessions=sessions, epochs=epochs, ledger_dir=tmp
                    )
                )
            finally:
                if tmp is not None:
                    shutil.rmtree(tmp, ignore_errors=True)
    off_cpu = min(r["cpu_s"] for r in records[False])
    on_cpu = min(r["cpu_s"] for r in records[True])
    floor_fraction = on_cpu / off_cpu - 1.0
    pair_fraction = statistics.median(
        on["cpu_s"] / off["cpu_s"]
        for on, off in zip(records[True], records[False])
    ) - 1.0
    return {
        "sessions": sessions,
        "epochs_per_session": epochs,
        "repeats": repeats,
        "off_cpu_s": off_cpu,
        "on_cpu_s": on_cpu,
        "off_wall_s": min(r["wall_s"] for r in records[False]),
        "on_wall_s": min(r["wall_s"] for r in records[True]),
        "floor_fraction": floor_fraction,
        "pair_fraction": pair_fraction,
        "overhead_fraction": min(floor_fraction, pair_fraction),
    }


def run_ipc_amortization(
    workers: int = 4,
    sessions: int = DEFAULT_SESSIONS,
    epochs: int = DEFAULT_EPOCHS,
) -> dict:
    """Win from multi-epoch ``step`` batching through the worker pool.

    ``step(epochs=k)`` ships one command and one result per ``k``
    epochs instead of per epoch, so the per-request cost (socket
    round-trip, JSON framing, pool dispatch, telemetry drain) is paid
    ``1/k`` as often.  This scenario measures that directly:
    ``chunk=1`` (an RPC per epoch) vs ``chunk=STEP_CHUNK``, same
    total work.
    """
    unbatched = run_scenario(workers, sessions=sessions, epochs=epochs, chunk=1)
    batched = run_scenario(
        workers, sessions=sessions, epochs=epochs, chunk=STEP_CHUNK
    )
    return {
        "workers": workers,
        "chunk_unbatched": 1,
        "chunk_batched": STEP_CHUNK,
        "unbatched": unbatched,
        "batched": batched,
        "speedup": batched["epochs_per_s"] / unbatched["epochs_per_s"],
    }


def _fanout_payload() -> dict:
    """A representative epoch-telemetry dict, numpy scalars included.

    Mirrors ``epoch_metrics_to_dict`` output: the numpy values exercise
    the ``json_default`` coercion exactly where the real fan-out pays
    it, so the kernel arms measure the production encode cost.
    """
    return {
        "epoch": np.int64(41),
        "hitrate": np.float64(0.8731942719),
        "tier1_hits": np.int64(3492),
        "accesses": np.int64(4000),
        "promoted": np.int64(129),
        "demoted": np.int64(64),
        "sampled": np.int64(250),
        "runtime_s": np.float64(0.004912377),
        "slowdown": np.float64(1.21874),
        "tier1_pages": np.int64(512),
        "profiler_overhead_s": np.float64(0.00022119),
        "latency": {
            "reads_t1": np.int64(3300),
            "reads_t2": np.int64(700),
            "mean_read_ns": np.float64(211.73),
            "stall_s": np.float64(0.00071),
        },
    }


def run_fanout_kernel(
    frames: int = 400,
    subscribers: int = FANOUT_SUBSCRIBERS,
    repeats: int = 5,
) -> dict:
    """Serialize-once splice vs. encode-per-subscriber, 16 subscribers.

    The pre-change fan-out called ``encode_frame`` once *per
    subscriber* per epoch frame; the serialize-once path encodes the
    payload once and splices the per-subscriber envelope around the
    shared bytes.  Both arms produce bit-identical wire lines (asserted
    here and property-tested in ``tests/service/test_fanout_equiv.py``)
    so this is a pure cost comparison, scored by min CPU time over
    ``repeats``.
    """
    data = _fanout_payload()
    session = "s1"
    subs = [f"{session}.sub{j}" for j in range(subscribers)]

    def legacy() -> int:
        total = 0
        for seq in range(frames):
            for sub in subs:
                total += len(
                    encode_frame(event_frame("epoch", session, sub, seq, data))
                )
        return total

    def spliced() -> int:
        total = 0
        for seq in range(frames):
            payload = encode_payload(data)
            for sub in subs:
                total += len(
                    splice_event_frame("epoch", session, sub, seq, 0, payload)
                )
        return total

    sample_payload = encode_payload(data)
    assert splice_event_frame("epoch", session, subs[0], 7, 0, sample_payload) == (
        encode_frame(event_frame("epoch", session, subs[0], 7, data))
    )

    times = {"legacy": [], "spliced": []}
    nbytes = {}
    legacy(), spliced()  # warmup
    for _ in range(repeats):
        for name, fn in (("legacy", legacy), ("spliced", spliced)):
            c0 = time.process_time()
            nbytes[name] = fn()
            times[name].append(time.process_time() - c0)
    legacy_s = min(times["legacy"])
    spliced_s = min(times["spliced"])
    total_frames = frames * subscribers
    return {
        "frames": frames,
        "subscribers": subscribers,
        "repeats": repeats,
        "legacy_cpu_s": legacy_s,
        "spliced_cpu_s": spliced_s,
        "legacy_frames_per_s": total_frames / legacy_s,
        "spliced_frames_per_s": total_frames / spliced_s,
        "legacy_bytes_per_s": nbytes["legacy"] / legacy_s,
        "spliced_bytes_per_s": nbytes["spliced"] / spliced_s,
        "speedup": legacy_s / spliced_s,
    }


def run_fanout_live(
    sessions: int = DEFAULT_SESSIONS,
    subscribers: int = FANOUT_SUBSCRIBERS,
    epochs: int = DEFAULT_EPOCHS,
    chunk: int = STEP_CHUNK,
) -> dict:
    """End-to-end many-subscriber fan-out: 8 sessions x 16 subscribers.

    Each session's connection holds ``subscribers`` subscriptions, so
    every scored epoch fans out into 16 frames that all cross the
    socket (the coalesced pump batches them per write).  Delivered
    frames/s and bytes/s are measured from step start until every
    subscriber received every frame; byte counts re-encode the received
    frames after timing stops, which is wire-exact because spliced
    frames are bit-identical to ``encode_frame`` output.
    """
    start_barrier = threading.Barrier(sessions + 1)
    done_barrier = threading.Barrier(sessions + 1)
    errors: list[BaseException] = []
    received: list[list[dict]] = [[] for _ in range(sessions)]

    with ServerThread(
        port=0,
        workers=0,
        max_sessions=sessions,
        step_workers=sessions,
        reap_interval_s=0,
    ) as srv:

        def drive(index: int) -> None:
            try:
                with ServiceClient(address=srv.address, timeout_s=300) as client:
                    sid = client.create_session(
                        "gups",
                        seed=index,
                        workload_kwargs=dict(WORKLOAD_KWARGS),
                    )["session"]
                    for _ in range(subscribers):
                        client.subscribe(sid, max_queue=epochs + 8)
                    start_barrier.wait()
                    for _ in range(0, epochs, chunk):
                        client.step(sid, epochs=chunk)
                    frames = list(
                        client.iter_events(subscribers * epochs, timeout_s=120)
                    )
                    done_barrier.wait()
                    received[index] = frames
            except BaseException as exc:  # noqa: BLE001 — surface in main thread
                errors.append(exc)
                raise

        threads = [
            threading.Thread(target=drive, args=(index,), daemon=True)
            for index in range(sessions)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        t0 = time.perf_counter()
        done_barrier.wait()
        wall_s = time.perf_counter() - t0
        for thread in threads:
            thread.join(timeout=60)
    if errors:
        raise errors[0]

    total_frames = sum(len(frames) for frames in received)
    total_bytes = sum(
        len(encode_frame(frame)) for frames in received for frame in frames
    )
    return {
        "sessions": sessions,
        "subscribers_per_session": subscribers,
        "epochs_per_session": epochs,
        "frames_delivered": total_frames,
        "bytes_delivered": total_bytes,
        "wall_s": wall_s,
        "frames_per_s": total_frames / wall_s,
        "bytes_per_s": total_bytes / wall_s,
    }


def run_fanout(
    sessions: int = DEFAULT_SESSIONS,
    subscribers: int = FANOUT_SUBSCRIBERS,
    epochs: int = DEFAULT_EPOCHS,
) -> dict:
    """The fan-out arm of the report: encode kernel + live delivery."""
    return {
        "kernel": run_fanout_kernel(subscribers=subscribers),
        "live": run_fanout_live(
            sessions=sessions, subscribers=subscribers, epochs=epochs
        ),
    }


def run(
    workers_list=(0, 4),
    sessions=DEFAULT_SESSIONS,
    epochs=DEFAULT_EPOCHS,
    include_ipc=False,
    include_ledger=False,
    include_fanout=False,
) -> dict:
    scenarios = []
    for workers in workers_list:
        record = run_scenario(workers, sessions=sessions, epochs=epochs)
        print(
            f"workers={workers}: {record['total_epochs']} epochs in "
            f"{record['wall_s']:.2f}s -> {record['epochs_per_s']:.1f} epochs/s"
        )
        scenarios.append(record)
    by_workers = {s["workers"]: s["epochs_per_s"] for s in scenarios}
    baseline = by_workers.get(0)
    pooled = max(
        (v for k, v in by_workers.items() if k > 0), default=None
    )
    speedup = (pooled / baseline) if baseline and pooled else None
    overhead = run_metrics_overhead(sessions=sessions, epochs=epochs)
    print(
        "metrics overhead: {:.2%} (cpu {:.2f}s enabled vs {:.2f}s disabled)".format(
            overhead["overhead_fraction"],
            overhead["enabled_cpu_s"],
            overhead["disabled_cpu_s"],
        )
    )
    report = {
        "generated_unix": time.time(),
        "cpu_count": os.cpu_count(),
        "sessions": sessions,
        "workload_kwargs": WORKLOAD_KWARGS,
        "scenarios": scenarios,
        "speedup": speedup,
        "metrics_overhead": overhead,
    }
    if include_ledger:
        ledger = run_ledger_overhead(sessions=sessions, epochs=epochs)
        print(
            "ledger overhead: {:.2%} (cpu {:.2f}s on vs {:.2f}s off)".format(
                ledger["overhead_fraction"],
                ledger["on_cpu_s"],
                ledger["off_cpu_s"],
            )
        )
        report["ledger_overhead"] = ledger
    if include_ipc:
        pool_workers = max(workers_list) or 4
        ipc = run_ipc_amortization(
            workers=pool_workers, sessions=sessions, epochs=epochs
        )
        print(
            f"ipc amortization (chunk {ipc['chunk_batched']} vs 1): "
            f"{ipc['speedup']:.2f}x "
            f"({ipc['unbatched']['epochs_per_s']:.1f} -> "
            f"{ipc['batched']['epochs_per_s']:.1f} epochs/s)"
        )
        report["ipc_amortization"] = ipc
    if include_fanout:
        fanout = run_fanout(sessions=sessions, epochs=epochs)
        kernel, live = fanout["kernel"], fanout["live"]
        print(
            "fanout kernel ({} subs): {:.2f}x "
            "({:.0f} -> {:.0f} frames/s encode)".format(
                kernel["subscribers"],
                kernel["speedup"],
                kernel["legacy_frames_per_s"],
                kernel["spliced_frames_per_s"],
            )
        )
        print(
            "fanout live ({} sessions x {} subs): "
            "{:.0f} frames/s, {:.1f} MB/s delivered".format(
                live["sessions"],
                live["subscribers_per_session"],
                live["frames_per_s"],
                live["bytes_per_s"] / 1e6,
            )
        )
        report["fanout"] = fanout
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_service.json", help="output JSON path"
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[0, 4],
        help="worker counts to benchmark (default: 0 4)",
    )
    parser.add_argument("--sessions", type=int, default=DEFAULT_SESSIONS)
    parser.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    args = parser.parse_args(argv)

    report = run(
        workers_list=args.workers,
        sessions=args.sessions,
        epochs=args.epochs,
        include_ipc=True,
        include_ledger=True,
        include_fanout=True,
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    if report["speedup"] is not None:
        print(f"speedup (pool vs in-process): {report['speedup']:.2f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
