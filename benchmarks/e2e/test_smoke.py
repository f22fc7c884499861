"""Smoke test of the end-to-end benchmark, outside ``testpaths``.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_smoke.py

Runs every workload at a tenth of its length, untraced and traced, and
checks the output against ``BENCHMARK.json`` and that no server and no
scratch directory outlives a run, however it ends.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
RUN_PY = os.path.join(HERE, "run.py")


def leftovers() -> list[str]:
    """Scratch directories and processes living in them."""
    found = []
    if os.path.isdir(common.RUN_ROOT):
        found += os.listdir(common.RUN_ROOT)
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue
        if cwd.startswith(common.RUN_ROOT):
            found.append(f"pid {pid} in {cwd}")
    return found


@pytest.fixture(autouse=True)
def nothing_left_behind():
    assert leftovers() == []
    yield
    assert leftovers() == []


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_the_contract(workload, trace):
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_sigint_stops_the_server_and_removes_the_ledger():
    child = subprocess.Popen(
        [sys.executable, RUN_PY, "--workload", "svc_durable", "--seconds", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not any("pid" in entry for entry in leftovers()):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child.send_signal(signal.SIGINT)
        assert child.wait(timeout=60) != 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def test_failure_stops_the_server_and_removes_the_ledger(monkeypatch):
    import svc

    async def broken(*args):
        assert any("pid" in entry for entry in leftovers())  # server is up
        raise RuntimeError("injected")

    monkeypatch.setattr(svc, "measure", broken)
    with pytest.raises(RuntimeError, match="injected"):
        svc.run("svc_pool", seed=0, seconds=1, trace=1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".run", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sim_sparse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_verdicts():
    metric = {"name": "epoch_ms_p50", "better": "lower", "bound": 0.1}
    assert compare.verdict([10, 10.2], [10.5, 10.4], metric, True)["status"] == "ok"
    assert compare.verdict([10, 10.2], [12, 12.1], metric, True)["status"] == "worse"
    assert (
        compare.verdict([10, 12], [10.5, 11.5], metric, True)["status"]
        == "unresolved"
    )
    assert compare.verdict([10, 12], [8, 9], metric, True)["status"] == "ok"
    exact = {"name": "tier1_hitrate", "better": "higher", "bound": 0.05}
    assert compare.verdict([0.5, 0.5], [0.5, 0.5], exact, True)["status"] == "ok"
    assert compare.verdict([0.5], [0.5001], exact, True)["status"] == "changed"
    assert compare.verdict([0.5], [0.5001], exact, False)["status"] == "ok"
