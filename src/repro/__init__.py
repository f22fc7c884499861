"""repro — a reproduction of *Dancing in the Dark: Profiling for
Tiered Memory* (Choi, Blagodurov, Tseng; IPDPS 2021).

The package builds the paper's full stack on a simulated memory-system
substrate:

``repro.memsim``
    The hardware: page tables with A/D bits, per-CPU TLBs + hardware
    walker, a cache hierarchy, a multiplexing PMU, IBS/PEBS trace
    samplers, Intel PML, and BadgerTrap.
``repro.workloads``
    Synthetic access-stream models of the eight Table III workloads.
``repro.core``
    TMP itself — the hybrid tiered-memory profiler (A-bit driver,
    trace driver, HWPC gating, process filtering, hotness fusion,
    daemon and numa_maps interface) and ``ProfiledRun``, the one
    execute-and-profile epoch loop every front end drives.
``repro.tiering``
    Tiered memory: placement, epoch-batched migration, Oracle/History/
    FCFA policies (plus extensions), the paper's emulation latency
    model, the one place-and-score step, and its two callers: the
    online simulator and offline record/evaluate.
``repro.analysis``
    The evaluation artifacts as data: Table IV, Figs. 2-6, overheads.
``repro.runner``
    Parallel experiment execution: process-pool fan-out of record /
    evaluate stages, a content-addressed recorded-run cache, and
    per-stage benchmark instrumentation.
``repro.service``
    The online profiling service: an asyncio JSON-lines server
    (``repro serve``) hosting many concurrent simulator+daemon
    sessions with streaming per-epoch telemetry, plus the blocking
    ``ServiceClient``.
``repro.obs``
    Observability: the in-process metrics registry (counters, gauges,
    histograms; atomic snapshots; Prometheus rendering) and structured
    JSON logging used by the service, runner, and profiler core.

Quickstart::

    from repro import ProfiledRun
    from repro.workloads import make_workload

    run = ProfiledRun(make_workload("gups"), seed=0)
    for _ in range(5):
        record = run.run_epoch()          # execute + profile one epoch
        report = run.profiler.reports[-1]
        print(record.epoch, report.rank().max())
"""

from ._lazy import lazy_exports

__version__ = "0.21.0"

#: Every top-level name, by the subpackage that defines it.  Nothing is
#: imported until a name is first used.
_EXPORTS = {
    "core": (
        "ProfiledRun",
        "RankSource",
        "TMPConfig",
        "TMPDaemon",
        "TMPEpochReport",
        "TMProfiler",
    ),
    "memsim": ("AccessBatch", "DataSource", "Machine", "MachineConfig"),
    "runner": ("RecordSpec", "RunCache", "record_suite"),
    "tiering": (
        "FCFAPolicy",
        "HistoryPolicy",
        "LatencyModel",
        "OraclePolicy",
        "SimulationResult",
        "TieredSimulator",
        "TrueOraclePolicy",
        "evaluate_recorded",
        "record_run",
    ),
    "workloads": ("WORKLOAD_NAMES", "make_workload", "paper_suite"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
