"""Public API surface tests, and what importing a process's stack loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._lazy import exported_names

SUBPACKAGES = [
    "repro.memsim",
    "repro.workloads",
    "repro.core",
    "repro.tiering",
    "repro.tiering.policies",
    "repro.analysis",
    "repro.cli",
]

#: Packages whose public names resolve on first access (``repro._lazy``).
LAZY_PACKAGES = [
    "repro",
    "repro.obs",
    "repro.service",
    "repro.loadgen",
    "repro.runner",
    "repro.ledger",
]

PACKAGES = SUBPACKAGES + LAZY_PACKAGES


class TestSurface:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackages_importable(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", PACKAGES)
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("module", PACKAGES)
    def test_dir_lists_all(self, module):
        mod = importlib.import_module(module)
        assert set(mod.__all__) <= set(dir(mod))

    @pytest.mark.parametrize("module", PACKAGES)
    def test_star_import(self, module):
        namespace = {}
        exec(f"from {module} import *", namespace)
        assert set(importlib.import_module(module).__all__) <= namespace.keys()

    @pytest.mark.parametrize("module", LAZY_PACKAGES)
    def test_lazy_names_are_the_submodules_objects(self, module):
        mod = importlib.import_module(module)
        table = list(exported_names(mod._EXPORTS))
        assert {public for public, _, _ in table} == set(mod.__all__) - {"__version__"}
        for public, submodule, attr in table:
            defining = importlib.import_module(f"{module}.{submodule}")
            assert getattr(mod, public) is getattr(defining, attr), public
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(mod, "no_such_name")

    def test_top_level_quickstart_names(self):
        # The README quickstart's imports must keep working.
        for name in (
            "Machine",
            "MachineConfig",
            "TMProfiler",
            "TMPConfig",
            "TieredSimulator",
            "HistoryPolicy",
            "make_workload",
            "record_run",
            "evaluate_recorded",
        ):
            assert hasattr(repro, name)

    def test_docstrings_on_public_classes(self):
        from repro import (
            HistoryPolicy,
            Machine,
            OraclePolicy,
            TMPConfig,
            TMProfiler,
            TieredSimulator,
        )

        for obj in (
            Machine,
            TMProfiler,
            TMPConfig,
            TieredSimulator,
            HistoryPolicy,
            OraclePolicy,
        ):
            assert obj.__doc__ and obj.__doc__.strip()

    def test_workload_names_match_registry(self):
        from repro.workloads import WORKLOAD_NAMES, WORKLOADS

        assert tuple(WORKLOADS) == WORKLOAD_NAMES

    def test_policy_registry_instantiable(self):
        from repro.tiering.policies import POLICIES

        for cls in POLICIES.values():
            assert cls().name == cls.name


#: A pooled server (one worker, a ledger, checkpointing eviction) driven
#: through every path its parent serves: create, subscribe, step, stats,
#: numa_maps, reconfigure, evict then resume, a replaying subscribe, a
#: SIGKILLed worker and the recovery, and a close with the epoch series.
POOLED_SERVER_RUN = """
import os, signal, time
from repro.service import ServerThread, ServiceClient

small = {{"footprint_pages": 512, "accesses_per_epoch": 2000}}
with ServerThread(
    workers=1, ledger_dir={ledger!r}, evict_to_disk=True, reap_interval_s=0
) as srv:
    with ServiceClient(address=srv.address) as c:
        sid = c.create_session("gups", workload_kwargs=small)["session"]
        c.subscribe(sid)
        c.step(sid, 2)
        c.stats(sid)
        c.numa_maps(sid)
        c.reconfigure(sid, trace_sample_period=8)
        assert srv.server.manager.evict_idle(now=time.monotonic() + 3600) == [sid]
        c.resume_session(sid)
        c.subscribe(sid, from_seq=0)
        c.step(sid, 1)
        os.kill(srv.server._pool.workers[0].process.pid, signal.SIGKILL)
        while c.next_event(timeout_s=30)["event"] != "recovered":
            pass
        c.step(sid, 1)
        assert len(c.close_session(sid, include_epochs=True)["result"]["epochs"]) == 4
"""


def _loaded_by(program: str) -> set[str]:
    """Module names a fresh interpreter holds after running ``program``."""
    out = subprocess.run(
        [sys.executable, "-c", program + "\nimport sys; print(*sys.modules)"],
        cwd=Path(repro.__file__).parents[1],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(out.stdout.split())


class TestImportFootprint:
    """Each process imports what it runs.  Names only, no timings."""

    def test_sim_stack_loads_no_service_runner_or_ledger(self):
        # What benchmarks/e2e/sim_child.py imports to step one simulator.
        loaded = _loaded_by(
            "import repro.memsim, repro.core, repro.tiering, "
            "repro.tiering.policies, repro.workloads, repro.service.telemetry, "
            "repro.loadgen.report"
        )
        assert "repro.tiering.simulator" in loaded
        assert not loaded & {
            "asyncio",
            "http.server",
            "socket",
            "multiprocessing",
            "concurrent.futures.process",
            "repro.service.server",
            "repro.service.workers",
            "repro.runner.executor",
            "repro.loadgen.aioclient",
            "repro.ledger",
        }

    def test_worker_loads_no_server_runner_or_loadgen(self):
        # What a spawned pool worker imports: its module, then the host
        # ``_worker_main`` imports before its command loop.
        loaded = _loaded_by("import repro.service.workers, repro.service.host")
        assert {"repro.service.host", "repro.tiering.simulator"} <= loaded
        assert not loaded & {
            "asyncio",
            "http.server",
            "repro.service.server",
            "repro.runner",
            "repro.loadgen",
        }

    def test_pooled_server_parent_loads_no_simulator(self, tmp_path):
        # Every simulation runs in the worker: the parent holds handles,
        # pipes and the ledger's records, and no endpoint was asked for.
        loaded = _loaded_by(POOLED_SERVER_RUN.format(ledger=str(tmp_path)))
        assert {"repro.service.server", "repro.ledger.storage"} <= loaded
        assert not loaded & {
            "numpy",
            "repro.memsim",
            "repro.core",
            "repro.tiering",
            "repro.workloads",
            "repro.ledger.snapshot",
            "repro.ledger.replay",
            "repro.service.host",
            "http.server",
        }

    def test_in_process_server_imports_the_host_before_it_binds(self):
        loaded = _loaded_by(
            "import asyncio\n"
            "from repro.service import ServiceServer\n"
            "async def main():\n"
            "    server = await ServiceServer(port=0, workers=0).start()\n"
            "    await server.drain()\n"
            "asyncio.run(main())"
        )
        assert {"repro.service.host", "repro.tiering.simulator"} <= loaded
        assert "http.server" not in loaded

    def test_cli_parser_loads_no_numpy(self):
        loaded = _loaded_by("import repro.cli; repro.cli.build_parser()")
        assert "argparse" in loaded
        assert "numpy" not in loaded
