"""The user-space TMP daemon.

§III-B.3: a profiling daemon runs alongside the target applications,
supplies PIDs to the kernel driver (every process forked by a
registered program is tracked), pushes configuration parameters down,
and surfaces statistics back to operators.  In the simulation, the
daemon is the convenience front-end over :class:`TMProfiler`: programs
map to PID groups, configuration changes go down, and summary
statistics / numa_maps text come out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import TMPConfig
from .numa_maps import format_all_numa_maps
from .profiler import TMProfiler

__all__ = ["TMPDaemon", "ProgramEntry"]


@dataclass
class ProgramEntry:
    """A registered program and the PIDs it has forked."""

    name: str
    pids: list[int] = field(default_factory=list)


class TMPDaemon:
    """User-space front-end: program registry, configuration, reporting."""

    def __init__(self, profiler: TMProfiler):
        self.profiler = profiler
        self.programs: dict[str, ProgramEntry] = {}

    # ---------------------------------------------------------- registration

    def add_program(self, name: str, pids) -> ProgramEntry:
        """Register a program; all its PIDs become profiling candidates."""
        entry = self.programs.setdefault(name, ProgramEntry(name=name))
        new = [int(p) for p in pids if int(p) not in entry.pids]
        entry.pids.extend(new)
        self.profiler.register_pids(new)
        return entry

    def add_workload(self, workload) -> ProgramEntry:
        """Register an attached workload under its own name."""
        return self.add_program(workload.name, workload.pids)

    # --------------------------------------------------------- configuration

    def reconfigure(self, **changes) -> TMPConfig:
        """Apply config changes (e.g. sampling period) at run time.

        Plain ``TMPConfig`` fields are mutated in place (the drivers
        re-read them at every epoch boundary, so the change is live).
        Knobs that live in a driver rather than the config are routed
        to the driver: ``trace_sample_period`` reprograms the trace
        sampler through :meth:`set_trace_period`.  The whole call is
        atomic: every key *and* the sampling period are validated up
        front, so a rejected reconfigure leaves no field half-applied.
        """
        if "trace_source" in changes:
            raise ValueError("trace_source cannot be changed after start")
        cfg = self.profiler.config
        trace_period = changes.pop("trace_sample_period", None)
        if trace_period is not None:
            # Validate before any plain field is mutated — the sampler
            # enforces period >= 1, and hitting that error *after*
            # setattr would leave a half-applied config behind.
            trace_period = int(trace_period)
            if trace_period < 1:
                raise ValueError(
                    f"trace_sample_period must be >= 1, got {trace_period}"
                )
        for key in changes:
            if not hasattr(cfg, key):
                raise AttributeError(f"TMPConfig has no parameter {key!r}")
        for key, value in changes.items():
            setattr(cfg, key, value)
        if trace_period is not None:
            self.set_trace_period(trace_period)
        return cfg

    def set_trace_period(self, period: int) -> None:
        """Reprogram the trace sampler's period (§VI-A rate sweep)."""
        self.profiler.trace.set_period(period)

    # -------------------------------------------------------------- reporting

    def statistics(self) -> dict:
        """Aggregate run statistics for operators."""
        prof = self.profiler
        store = prof.store
        return {
            "epochs": prof.epochs_closed,
            "programs": sorted(self.programs),
            "registered_pids": prof.registered_pids,
            "tracked_pids": prof.filter.tracked,
            "pages_detected_abit": store.detected_pages("abit"),
            "pages_detected_trace": store.detected_pages("trace"),
            "pages_detected_both": store.detected_pages("both"),
            "abit_scans": prof.abit.stats.scans,
            "trace_samples": prof.trace.stats.samples_collected,
            "overhead_fraction": prof.overhead_fraction(),
        }

    def numa_maps(self, pids=None) -> str:
        """The extended /proc numa_maps text for the given PIDs."""
        return format_all_numa_maps(self.profiler.machine, self.profiler.store, pids)
