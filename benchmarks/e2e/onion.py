"""Child process of the traced ``svc_*`` pass: the service layers as an
onion, timed from outside on one tiny-gups config.

Workers are separate processes, so spans cannot follow a request
through them.  Instead the same ``step(1)`` is timed at growing depths —
simulator, session, session with fan-out, worker pool, socket — one
call per depth in turn so drift on the box hits all depths alike.  A
layer's self time is its depth's median minus the depth below.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import common

common.add_src_to_path()

import sim_child  # noqa: E402
import svc  # noqa: E402

from repro.ledger import SessionLedger  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.protocol import encode_payload, splice_event_frame  # noqa: E402
from repro.service.session import ProfilingSession, SubscriberQueue  # noqa: E402
from repro.service.telemetry import epoch_metrics_to_dict  # noqa: E402
from repro.service.workers import WorkerPool  # noqa: E402

STEPS = 300
FANOUT_SUBSCRIBERS = 8
APPEND_BATCH = 8
#: The tiny session's simulator, as a ``sim_child`` spec, for its spans.
TINY_SIM = dict(
    workload="gups",
    workload_kwargs=svc.WORKLOAD_KWARGS,
    machine=dict(ibs_period=16),
)


def session_params(seed: int) -> dict:
    return dict(workload="gups", seed=seed, workload_kwargs=svc.WORKLOAD_KWARGS)


def per_call_us(fn, items, repeats: int = 20) -> float:
    """Median microseconds of ``fn(item)`` over the captured items."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        samples.append((time.perf_counter() - t0) / len(items))
    return statistics.median(samples) * 1e6


def kernels(payload_dicts: list[dict], directory: str) -> dict:
    payloads = [encode_payload(d) for d in payload_dicts]
    queue = SubscriberQueue("s1.sub1", "s1", max_queue=64)
    out = {
        "service.encode_payload_us": per_call_us(encode_payload, payload_dicts),
        "service.splice_frame_us": per_call_us(
            lambda p: splice_event_frame("epoch", "s1", "s1.sub1", 7, 0, p), payloads
        ),
        "service.queue_push_us": per_call_us(
            lambda p: queue.push("epoch", payload=p), payloads
        ),
    }
    ledger = SessionLedger(os.path.join(directory, "kernel-ledger"))
    try:
        batches = [
            [("epoch", p) for p in payloads[i : i + APPEND_BATCH]]
            for i in range(0, len(payloads), APPEND_BATCH)
        ]
        out["ledger.append_us_per_record"] = (
            per_call_us(ledger.append_many, batches) / APPEND_BATCH
        )
        reads = []
        for _ in range(5):
            t0 = time.perf_counter()
            n = sum(1 for _ in ledger.read_encoded())
            reads.append((time.perf_counter() - t0) / n)
        out["ledger.read_us_per_record"] = statistics.median(reads) * 1e6
    finally:
        ledger.close()
    return {k: common.metric(v, "us", len(payloads)) for k, v in out.items()}


def onion(seed: int, workers: int, steps: int, directory: str) -> tuple[dict, list]:
    params = session_params(seed)
    sim = svc.build_direct(seed)
    session = ProfilingSession("o1", **params)
    fanned = ProfilingSession("o2", **params)
    fanned.attach_ledger(SessionLedger(os.path.join(directory, "onion-ledger")))
    subs = [fanned.subscribe(max_queue=64) for _ in range(FANOUT_SUBSCRIBERS)]
    pool = WorkerPool(1)
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--socket", "onion.sock",
            "--workers", str(workers), "--reap-interval", "0",
        ],
        cwd=directory,
        env=common.child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    client = None
    try:
        remote = pool.session_factory("o3", **params)
        socket_path = os.path.relpath(os.path.join(directory, "onion.sock"))
        deadline = time.perf_counter() + 30.0
        while not os.path.exists(socket_path):
            if server.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("onion server did not come up")
            time.sleep(0.005)
        client = ServiceClient(socket_path=socket_path)
        sid = client.create_session(**params)["session"]

        def fanned_step():
            fanned.step(1)
            for sub in subs:
                fanned.drain_queue_encoded(sub)

        depths = {
            "sim": lambda: sim.step(1),
            "session": lambda: session.step(1),
            "fanout": fanned_step,
            "workers": lambda: remote.step(1),
            "socket": lambda: client.step(sid, epochs=1),
        }
        for call in depths.values():  # warm-up, as every workload has
            call()
        samples = {name: [] for name in depths}
        order = list(depths.items())
        for i in range(steps):
            # Rotate who goes first: each depth follows each other one
            # equally often, so nobody always inherits a cold cache.
            for name, call in order[i % len(order) :] + order[: i % len(order)]:
                t0 = time.perf_counter()
                call()
                samples[name].append(time.perf_counter() - t0)
        payloads = [epoch_metrics_to_dict(m) for m in session.sim.result.epochs]
    finally:
        if client is not None:
            client.close()
        common.stop_process(server)
        pool.shutdown()
        fanned.close()
    ms = {name: statistics.median(s) * 1e3 for name, s in samples.items()}
    below_socket = ms["workers"] if workers else ms["session"]
    layers = {
        "service.session_ms": ms["session"] - ms["sim"],
        "service.fanout_ms": ms["fanout"] - ms["session"],
        "service.workers_ipc_ms": ms["workers"] - ms["session"],
        "service.socket_ms": ms["socket"] - below_socket,
    }
    return {k: common.metric(v, "ms", steps) for k, v in layers.items()}, payloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, required=True, choices=(0, 1))
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument("--dir", required=True, help="scratch directory")
    args = parser.parse_args(argv)

    with common.one_cpu():  # one call in flight at every depth
        metrics, payloads = onion(args.seed, args.workers, args.steps, args.dir)
        metrics.update(kernels(payloads, args.dir))
        spans = sim_child.traced_pair(TINY_SIM, args.seed, args.steps)
    metrics.update(spans["metrics"])
    print(json.dumps({"metrics": metrics, "checks": spans["checks"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
