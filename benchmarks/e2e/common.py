"""Shared helpers of the end-to-end benchmark: statistics, run
directories, child processes and ``/proc`` readers.

Nothing here imports ``repro``; the modules that do put ``src/`` on
``sys.path`` through :func:`add_src_to_path` first.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space of one run (unix socket, ledger, span dumps): inside
#: the checkout, git-ignored, removed when the run ends.
RUN_ROOT = os.path.join(HERE, ".run")

#: ``run_seconds`` of BENCHMARK.json; every operation count below is
#: ``rate * seconds`` so ``--seconds 1`` is a 1/10-length run.
DEFAULT_SECONDS = 10
#: A measured phase is cut into this many contiguous blocks; see
#: :func:`quiet`.
BLOCKS = 10
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


class InvalidRun(RuntimeError):
    """The load generator missed its schedule; latencies are withheld."""


def add_src_to_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment of every child: ``src/`` importable, nothing else set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def scaled(rate: float, seconds: float, floor: int = BLOCKS) -> int:
    """Operation count for a run of ``seconds``: fixed, not timed, so
    the simulated statistics of two runs with one seed are identical."""
    return max(floor, int(round(rate * seconds)))


# ------------------------------------------------------------ statistics


def split_blocks(values, blocks: int = BLOCKS) -> list[list]:
    """``values`` cut into ``blocks`` contiguous, near-equal parts."""
    values = list(values)
    blocks = max(1, min(blocks, len(values)))
    bounds = [round(i * len(values) / blocks) for i in range(blocks + 1)]
    return [values[bounds[i] : bounds[i + 1]] for i in range(blocks)]


def quiet(values, lower_is_better: bool = True) -> float:
    """The value a quarter of the way down from the best to the worst.

    The box is shared: seconds-long slowdowns come and go, and they
    only ever add time.  The blocks of one phase do the same work, so
    the spread between them is the box, and the quiet end of it is the
    program.  Not the very best block, which one lucky block decides.
    """
    ordered = sorted(values, reverse=not lower_is_better)
    return float(ordered[len(ordered) // 4])


def metric(value: float, unit: str, n: int, per_block=None) -> dict:
    out = {"value": float(value), "unit": unit, "n": int(n)}
    if per_block:
        out["block_min"] = float(min(per_block))
        out["block_median"] = float(statistics.median(per_block))
        out["block_max"] = float(max(per_block))
    return out


def p50_over_blocks(
    samples, unit: str, scale: float = 1.0, lower_is_better: bool = True
) -> dict:
    """The quiet block's median sample.  With fewer samples than blocks
    every sample is a block of its own."""
    per_block = [
        statistics.median(block) * scale for block in split_blocks(samples)
    ]
    return metric(quiet(per_block, lower_is_better), unit, len(samples), per_block)


def rate_over_blocks(stamps, start: float, unit: str, weight: float = 1.0) -> dict:
    """The quiet block's completions per second, from completion stamps.

    A block's duration runs from the previous block's last completion
    (the phase start for the first block) to its own last completion.
    """
    per_block = []
    previous = start
    for block in split_blocks(sorted(stamps)):
        per_block.append(weight * len(block) / (block[-1] - previous))
        previous = block[-1]
    return metric(
        quiet(per_block, lower_is_better=False), unit, len(stamps), per_block
    )


# ----------------------------------------------------------------- /proc

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of one live process, all its threads (0 when gone).

    ``schedstat`` counts nanoseconds; ``stat`` counts 10 ms ticks and is
    only read on a kernel built without the former.
    """
    try:
        total_ns = 0
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total_ns += int(fh.read().split()[0])
        return total_ns / 1e9
    except FileNotFoundError:
        pass
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_status_mb(pid: int, field: str) -> float:
    """``VmHWM`` (peak) or ``VmRSS`` (now) of one live process in MiB
    (0 when gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (the server's worker processes)."""
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


# ---------------------------------------------------- run dirs, children


@contextlib.contextmanager
def one_cpu():
    """Pin this thread, and every process it starts meanwhile, to one CPU.

    Generator, server and worker hand each request from one to the
    next; spread over the two vCPUs of a VM each hand-over may have to
    wake a halted vCPU, two callers of an in-process server fight over
    its GIL across cores, and identical runs settle, run by run, on
    figures up to a factor of two apart.  On one CPU they agree.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@contextlib.contextmanager
def run_dir():
    """A fresh scratch directory under ``.run/``, always removed."""
    path = os.path.join(RUN_ROOT, f"{os.getpid()}-{uuid.uuid4().hex[:8]}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUN_ROOT)  # only succeeds once the last run is gone


def stop_process(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """SIGTERM, wait, SIGKILL the whole session if it will not go.

    Children are started with ``start_new_session=True`` so a server's
    worker processes share its process group and die with it.
    """
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            pass
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
    proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


def read_json_line(stream) -> dict:
    """Next line of a child's stdout as JSON; EOF is a child failure."""
    line = stream.readline()
    if not line:
        raise RuntimeError("child exited before reporting")
    return json.loads(line)
