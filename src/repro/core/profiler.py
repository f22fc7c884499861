"""The TMP orchestrator.

Ties the drivers together exactly as Fig. 1 sketches: the kernel-side
drivers (A-bit walker, IBS/PEBS trace collector) feed the extended page
descriptors; the HWPC monitor gates them; the user-space daemon
supplies PIDs through the resource filter; and at each epoch boundary
the profiler freezes a per-page profile and hands policies a single
hotness ranking.

Driving convention: the simulation loop calls :meth:`observe_batch`
for every executed batch (so the profiler can attribute CPU usage to
PIDs) and :meth:`end_epoch` once per epoch (≈ one simulated second).
All scheduling is in *simulated* time from ``machine.time_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..memsim.events import AccessBatch
from ..memsim.machine import BatchResult, Machine
from ..obs import metrics as obs_metrics
from .abit_driver import ABitDriver
from .config import TMPConfig
from .hotness import RankSource, hotness_rank
from .hwpc_monitor import GatingDecision, HWPCMonitor
from .page_stats import EpochProfile, PageStatsStore
from .process_filter import ProcessFilter, ProcessUsage
from .trace_driver import TraceDriver

__all__ = ["TMProfiler", "TMPEpochReport", "OverheadBreakdown"]


@dataclass
class OverheadBreakdown:
    """Profiling time by component (seconds of simulated CPU time)."""

    abit_s: float = 0.0
    trace_s: float = 0.0
    hwpc_s: float = 0.0
    filter_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.abit_s + self.trace_s + self.hwpc_s + self.filter_s

    def fraction_of(self, app_time_s: float) -> float:
        """Profiling overhead as a fraction of application time."""
        return self.total_s / app_time_s if app_time_s > 0 else 0.0


@dataclass
class TMPEpochReport:
    """Everything TMP produced for one finished epoch."""

    epoch: int
    #: None once a newer report exists (see :attr:`TMProfiler.reports`).
    profile: EpochProfile | None
    gating: GatingDecision | None
    tracked_pids: list[int]
    #: Pages found accessed by every scan pass of the epoch: the
    #: boundary scan and the mid-epoch ``tick`` scans before it.
    abit_pages_found: int
    trace_samples: int
    app_time_s: float
    overhead: OverheadBreakdown = field(default_factory=OverheadBreakdown)
    #: The raw trace records drained this epoch (for heatmaps and
    #: sample-level analyses; hotness aggregation already happened).
    samples: object = None

    def rank(self, source: RankSource | str = RankSource.COMBINED) -> np.ndarray:
        """The epoch's hotness ranking from the chosen source(s)."""
        return hotness_rank(self.profile, source)


class TMProfiler:
    """TMP: the tiered-memory profiler."""

    def __init__(self, machine: Machine, config: TMPConfig | None = None):
        self.machine = machine
        self.config = config or TMPConfig()
        self.store = PageStatsStore()
        self.abit = ABitDriver(machine, self.config, self.store)
        self.trace = TraceDriver(machine, self.config, self.store)
        self.hwpc = HWPCMonitor(machine, self.config)
        self.filter = ProcessFilter(self.config)
        #: One report per closed epoch.  Only the newest keeps its
        #: per-frame ``profile`` arrays and raw ``samples``; older
        #: entries keep their scalar fields — a profiler that lives as
        #: long as the machine must not retain every epoch's arrays.
        self.reports: list[TMPEpochReport] = []

        #: The daemon-supplied tracking universe, ascending; replaced,
        #: never edited in place, so a scan may walk it as it is.
        self._registered: tuple[int, ...] = ()
        #: Pages found by this epoch's ``tick`` scans so far.
        self._tick_found = 0
        #: Per-epoch op attribution as parallel sorted arrays (pid →
        #: executed ops); array-merged so observe_batch stays loop-free.
        self._epoch_pids = np.zeros(0, dtype=np.int64)
        self._epoch_ops = np.zeros(0, dtype=np.int64)
        self._last_scan_s = float("-inf")
        self._last_filter_s = float("-inf")
        self._overhead_snapshot = (0.0, 0.0, 0.0, 0.0)

    # ----------------------------------------------------------- registration

    def register_pids(self, pids) -> None:
        """Add PIDs to the daemon-supplied tracking universe."""
        self._registered = tuple(sorted({*self._registered, *(int(p) for p in pids)}))

    def register_workload(self, workload) -> None:
        """Register every process of an attached workload."""
        self.register_pids(workload.pids)

    @property
    def registered_pids(self) -> list[int]:
        """All PIDs the daemon has registered (pre-filter)."""
        return list(self._registered)

    def _scan_set(self) -> list[int] | tuple[int, ...]:
        """PIDs the A-bit walker covers now.

        Strict filter semantics: when the process filter is armed, only
        its tracked set is walked — an empty tracked set means *no*
        scan coverage, never a fall-back to every registered PID (which
        would charge filtered-out processes the walk the filter exists
        to avoid).
        """
        return self.filter.tracked if self.config.process_filter else self._registered

    # ------------------------------------------------------------- observation

    def observe_batch(self, batch: AccessBatch, result: BatchResult) -> None:
        """Attribute executed ops to PIDs (feeds the resource filter).

        The batch's PIDs and op counts come with the result (the
        machine grouped the batch by PID to execute it); one vectorized
        sorted-array merge folds them into the epoch's — no Python loop
        over PIDs, so attribution cost is flat in the process count.
        """
        if batch.n == 0:
            return
        self.store.resize(self.machine.n_frames)
        pids, counts = result.pids, result.pid_ops
        if self._epoch_pids.size == 0:
            self._epoch_pids, self._epoch_ops = pids, counts
            return
        merged = np.union1d(self._epoch_pids, pids)
        ops = np.zeros(merged.size, dtype=np.int64)
        ops[np.searchsorted(merged, self._epoch_pids)] += self._epoch_ops
        ops[np.searchsorted(merged, pids)] += counts
        self._epoch_pids, self._epoch_ops = merged, ops

    def _ops_for(self, pid: int) -> int:
        """This epoch's attributed op count for one PID."""
        i = int(np.searchsorted(self._epoch_pids, pid))
        if i < self._epoch_pids.size and self._epoch_pids[i] == pid:
            return int(self._epoch_ops[i])
        return 0

    def _usage(self) -> list[ProcessUsage]:
        total_ops = int(self._epoch_ops.sum())
        total_frames = max(self.machine.n_frames, 1)
        n_cpus = self.machine.config.n_cpus
        usage = []
        for pid in self._registered:
            pt = self.machine.page_tables.get(pid)
            mem = (pt.total_frames / total_frames) if pt else 0.0
            # CPU share in single-core units (as `top` reports it): a
            # process saturating one of N cores shows 100 %, not 1/N.
            cpu = self._ops_for(pid) / total_ops * n_cpus if total_ops else 0.0
            usage.append(ProcessUsage(pid=pid, cpu_share=cpu, mem_share=mem))
        return usage

    def tick(self) -> bool:
        """Mid-epoch service point: run the A-bit scan if it is due.

        The simulation loop may stop an epoch's batch at service points
        (:meth:`Machine.service_points`) and call ``tick`` at each; the
        op clock stands where the batch stopped.  With the default scan
        interval of 0 ("scan at every service point") this yields
        graded per-epoch A-bit counts — a page re-walked between scans
        accumulates more than a page touched once — which is the
        gradation the rank fusion of §IV step 1 sums with trace
        samples.  Returns True when a scan ran.
        """
        if not self.config.abit_enabled or not self.abit.enabled:
            return False
        now = self.machine.time_s
        if now - self._last_scan_s < self.config.abit_scan_interval_s:
            return False
        self.store.resize(self.machine.n_frames)
        self._tick_found += self.abit.scan(self._scan_set())
        self._last_scan_s = now
        return True

    @property
    def tick_flushes_tlb(self) -> bool:
        """Whether a :meth:`tick` may invalidate TLB entries: its scan
        shoots down the translations it clears in shootdown mode."""
        cfg = self.config
        return cfg.abit_shootdown and cfg.abit_enabled and self.abit.enabled

    # ------------------------------------------------------------------ epochs

    def end_epoch(self) -> TMPEpochReport:
        """Close the current epoch: gate, scan, drain, snapshot."""
        self.store.resize(self.machine.n_frames)
        now = self.machine.time_s
        cfg = self.config

        # 1. HWPC interval read + gating decisions for this boundary.
        decision: GatingDecision | None = None
        if cfg.hwpc_gating:
            decision = self.hwpc.observe_interval()
            self.abit.enabled = cfg.abit_enabled and decision.abit_active
            self.trace.enabled = cfg.trace_enabled and decision.trace_active
        else:
            self.abit.enabled = cfg.abit_enabled
            self.trace.enabled = cfg.trace_enabled

        # 2. Resource-filter re-evaluation (once per filter interval).
        if now - self._last_filter_s >= cfg.filter_interval_s:
            self.filter.evaluate(self._usage())
            self._last_filter_s = now
        tracked = self._scan_set()

        # 3. A-bit scan pass (once per scan interval), on top of what
        #    the epoch's mid-epoch scans found.
        abit_found, self._tick_found = self._tick_found, 0
        if now - self._last_scan_s >= cfg.abit_scan_interval_s:
            abit_found += self.abit.scan(tracked)
            self._last_scan_s = now

        # 4. Drain the trace buffer.
        samples = self.trace.drain()

        # 5. Freeze the epoch profile.
        profile = self.store.end_epoch()
        report = TMPEpochReport(
            epoch=profile.epoch,
            profile=profile,
            gating=decision,
            tracked_pids=list(tracked),
            abit_pages_found=abit_found,
            trace_samples=samples.n,
            app_time_s=now,
            overhead=self._overhead_delta(),
            samples=samples,
        )
        if self.reports:
            # A copy, so whoever still holds the older report object
            # (``end_epoch``'s caller) keeps the arrays it was handed.
            self.reports[-1] = replace(self.reports[-1], profile=None, samples=None)
        self.reports.append(report)
        self._epoch_pids = np.zeros(0, dtype=np.int64)
        self._epoch_ops = np.zeros(0, dtype=np.int64)
        registry = obs_metrics.default_registry()
        registry.counter(
            "repro_profiler_epochs_total", "Epochs closed by TMProfiler"
        ).inc()
        overhead_total = registry.counter(
            "repro_profiler_overhead_seconds_total",
            "Simulated profiling CPU time by component",
            labelnames=("component",),
        )
        ov = report.overhead
        for component, seconds in (
            ("abit", ov.abit_s),
            ("trace", ov.trace_s),
            ("hwpc", ov.hwpc_s),
            ("filter", ov.filter_s),
        ):
            if seconds:
                overhead_total.inc(seconds, component=component)
        return report

    def _overhead_delta(self) -> OverheadBreakdown:
        prev = self._overhead_snapshot
        cur = (
            self.abit.stats.time_s,
            self.trace.stats.time_s,
            self.hwpc.time_s,
            self.filter.time_s,
        )
        self._overhead_snapshot = cur
        return OverheadBreakdown(
            abit_s=cur[0] - prev[0],
            trace_s=cur[1] - prev[1],
            hwpc_s=cur[2] - prev[2],
            filter_s=cur[3] - prev[3],
        )

    # --------------------------------------------------------------- summaries

    def total_overhead(self) -> OverheadBreakdown:
        """Whole-run profiling time by component."""
        return OverheadBreakdown(
            abit_s=self.abit.stats.time_s,
            trace_s=self.trace.stats.time_s,
            hwpc_s=self.hwpc.time_s,
            filter_s=self.filter.time_s,
        )

    def overhead_fraction(self) -> float:
        """Whole-run profiling overhead relative to application time."""
        return self.total_overhead().fraction_of(self.machine.time_s)
