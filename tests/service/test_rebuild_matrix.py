"""One bit-identity matrix through the single rebuild path.

Every way a session can be torn down and rebuilt — idle eviction +
``resume_session`` (in-process and pooled) and SIGKILL + crash recovery
— goes through the same recipe: the recorded config plus a ``catchup``
built from the ledger.  Each cell interrupts a session mid-life, with
and without a ``reconfigure`` before the interruption, and asserts that
the final result and the ``from_seq=0`` replay stream equal an
uninterrupted direct run.
"""

import json
import os
import signal

import pytest

from repro.service.session import ProfilingSession

from .test_checkpoint_resume import _evict_now, _start_server
from .test_server import SMALL, WireClient, run_async

PARAMS = {"workload": "gups", "seed": 5, "workload_kwargs": dict(SMALL)}
RECONFIGURE = {"trace_sample_period": 2}
#: Epochs stepped before the reconfigure, between it and the
#: interruption, and after the rebuild.
BEFORE, BETWEEN, AFTER = 2, 1, 2


def _direct_run(changes):
    """The uninterrupted twin: its frames and its final summary."""
    session = ProfilingSession("direct", **PARAMS)
    sub = session.subscribe(max_queue=64)
    session.step(BEFORE)
    if changes:
        session.reconfigure(dict(changes))
    session.step(BETWEEN + AFTER)
    frames = [(f.event, json.loads(f.payload)) for f in sub.drain()]
    return frames, session.close(include_epochs=True)


async def _evict_and_resume(server, client, info):
    assert _evict_now(server) == [info["session"]]
    resumed = await client.request("resume_session", session=info["session"])
    assert resumed["epochs_run"] == BEFORE + BETWEEN


async def _kill_and_recover(server, client, info):
    await client.request("subscribe", session=info["session"])
    handle = server._pool.workers[info["worker"]]
    os.kill(handle.process.pid, signal.SIGKILL)
    while (await client.next_event())["event"] != "recovered":
        pass


@pytest.mark.parametrize("changes", [None, RECONFIGURE], ids=["plain", "reconfigured"])
@pytest.mark.parametrize(
    "workers, interrupt",
    [(0, _evict_and_resume), (2, _evict_and_resume), (2, _kill_and_recover)],
    ids=["evict-inproc", "evict-pool", "sigkill-pool"],
)
def test_rebuilt_session_equals_direct_run(tmp_path, workers, interrupt, changes):
    async def main():
        server = await _start_server(
            workers=workers, ledger_dir=str(tmp_path), evict_to_disk=True
        )
        try:
            client = await WireClient.open(server.address)
            info = await client.request("create_session", **PARAMS)
            sid = info["session"]
            await client.request("step", session=sid, epochs=BEFORE)
            if changes:
                await client.request("reconfigure", session=sid, changes=changes)
            await client.request("step", session=sid, epochs=BETWEEN)
            await interrupt(server, client, info)
            await client.request("step", session=sid, epochs=AFTER)

            replayer = await WireClient.open(server.address)
            sub = await replayer.request("subscribe", session=sid, from_seq=0)
            stream = [await replayer.next_event() for _ in range(sub["replayed"])]
            await replayer.close()
            closed = await client.request(
                "close_session", session=sid, include_epochs=True
            )
            await client.close()
            return stream, closed["result"]
        finally:
            await server.drain()

    stream, result = run_async(main())
    frames, expected = _direct_run(changes)

    assert [f["seq"] for f in stream] == list(range(len(stream)))
    assert all(f["dropped"] == 0 for f in stream)
    # Lifecycle markers (goodbye / resumed / crash / recovered) aside,
    # the replayed stream is the direct run's fan-out, frame for frame.
    assert [
        (f["event"], f["data"])
        for f in stream
        if f["event"] in ("epoch", "reconfigured")
    ] == frames
    assert result == expected
