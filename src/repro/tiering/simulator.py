"""The end-to-end tiered-memory simulation loop.

Drives the full pipeline the paper evaluates: workload access streams
execute on the machine; TMP profiles them; at each epoch boundary a
policy re-ranks pages and the mover migrates; the tier-1 hitrate and
the emulation latency model score the outcome.

Per epoch (≈ one simulated second, the paper's horizon):

1. execute the epoch's access batch on the machine and close TMP's
   profiling epoch (scan + drain + snapshot) —
   :meth:`~repro.core.driver.ProfiledRun.run_epoch`,
2. place newly touched frames first-come-first-allocate,
3. :meth:`PlacementStep.step` — the same step
   :func:`~repro.tiering.recorded.evaluate_recorded` runs over stored
   epochs: ask the policy for the fast tier's contents — History sees
   the *previous* epoch's profile, the Oracle peeks at the epoch's
   truth — migrate (conceptually, at the epoch's start), and score:
   tier-1 hitrate over memory accesses, and the protection-fault
   latency model with the paper's 50/10/13 µs calibration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.config import TMPConfig
from ..core.driver import EpochRecord, ProfiledRun
from ..core.hotness import RankSource, top_k_pages
from ..memsim.machine import Machine, MachineConfig
from ..workloads.base import Workload
from ..obs.metrics import default_registry
from .latency_model import EpochLatency, LatencyModel
from .migration import PageMover
from .placement import fcfa_place_new
from .policies.base import Policy, PolicyContext
from .tiers import TIER2, TieredMemory, make_tiers

__all__ = ["TieredSimulator", "PlacementStep", "EpochMetrics", "SimulationResult"]


@dataclass
class EpochMetrics:
    """Per-epoch outcome of the tiered simulation."""

    epoch: int
    accesses: int
    mem_accesses: int
    #: Fraction of memory accesses served by tier 1 (Fig. 6's metric).
    hitrate: float
    promoted: int
    demoted: int
    latency: EpochLatency
    profiler_overhead_s: float

    @property
    def runtime_s(self) -> float:
        """Epoch wall-clock under the emulation model, incl. profiling."""
        return self.latency.total_s + self.profiler_overhead_s


@dataclass
class SimulationResult:
    """Whole-run outcome.

    ``epochs`` holds every epoch's metrics, or — in a copy made by
    :meth:`without_history` — the ones scored since: the
    ``epochs_before`` epochs ahead of them live on only as the running
    sums in ``carried``, which the totals continue from.
    """

    workload: str
    policy: str
    rank_source: str
    tier1_ratio: float
    tier1_capacity: int
    epochs: list[EpochMetrics] = field(default_factory=list)
    #: Epochs scored before ``epochs[0]`` and no longer held.
    epochs_before: int = 0
    #: Their running sums, ``(hitrate x mem_accesses, mem_accesses,
    #: runtime_s, promoted + demoted)``, each as one left-to-right pass
    #: of additions over them left it.
    carried: tuple = (0, 0, 0, 0)

    def _totals(self) -> tuple:
        """The running sums over every epoch: ``carried``, continued
        left to right through ``epochs``.  Never two partial sums
        added together, so a copy without history totals to the same
        floats as the whole series (and as ``sum()`` over it, which
        adds left to right before Python 3.12)."""
        num, den, runtime, migrations = self.carried
        for e in self.epochs:
            num += e.hitrate * e.mem_accesses
            den += e.mem_accesses
            runtime += e.runtime_s
            migrations += e.promoted + e.demoted
        return num, den, runtime, migrations

    def without_history(self) -> "SimulationResult":
        """A copy that holds no per-epoch metrics, only the counters and
        running sums its totals need."""
        return replace(
            self,
            epochs=[],
            epochs_before=self.epochs_run,
            carried=self._totals(),
        )

    @property
    def epochs_run(self) -> int:
        """Epochs scored, whether held or not."""
        return self.epochs_before + len(self.epochs)

    @property
    def mean_hitrate(self) -> float:
        """Access-weighted mean tier-1 hitrate over all epochs."""
        num, den, _, _ = self._totals()
        return num / den if den else 0.0

    @property
    def total_runtime_s(self) -> float:
        return self._totals()[2]

    @property
    def total_migrations(self) -> int:
        return self._totals()[3]

    def speedup_over(self, other: "SimulationResult") -> float:
        """other.runtime / self.runtime (how much faster self is).

        NaN when this run has no runtime (zero epochs).
        """
        if not self.total_runtime_s:
            return float("nan")
        return other.total_runtime_s / self.total_runtime_s


def hot_page_mask(counts: np.ndarray, capacity: int) -> np.ndarray:
    """Boolean per-PFN mask of the ``capacity`` most-accessed pages."""
    mask = np.zeros(counts.size, dtype=bool)
    mask[top_k_pages(counts.astype(np.float64), capacity)] = True
    return mask


class PlacementStep:
    """The place-and-score half of an epoch.

    Owns the tiers, the mover, the policy and the profile the policy
    saw last.  The online simulator feeds it live epochs,
    :func:`~repro.tiering.recorded.evaluate_recorded` stored ones;
    only with a ``machine`` do migrations issue real TLB shootdowns.
    """

    def __init__(
        self,
        policy: Policy,
        *,
        n_frames: int,
        footprint_pages: int,
        tier1_ratio: float,
        rank_source: RankSource | str,
        latency_model: LatencyModel | None,
        machine: Machine | None = None,
    ):
        if not 0 < tier1_ratio <= 1:
            raise ValueError(f"tier1_ratio must be in (0, 1], got {tier1_ratio}")
        self.policy = policy
        self.tier1_ratio = float(tier1_ratio)
        self.rank_source = RankSource(rank_source)
        self.latency_model = latency_model or LatencyModel()
        self.tier1_capacity = max(1, int(round(footprint_pages * tier1_ratio)))
        self.tiers: TieredMemory = make_tiers(n_frames, self.tier1_capacity)
        self.mover = PageMover(self.tiers, machine)
        self.prev_profile = None

    def new_result(self, workload: str) -> SimulationResult:
        """An empty result carrying this configuration's labels."""
        return SimulationResult(
            workload=workload,
            policy=self.policy.name,
            rank_source=self.rank_source.value,
            tier1_ratio=self.tier1_ratio,
            tier1_capacity=self.tier1_capacity,
        )

    def step(
        self, rec: EpochRecord, base_s: float, hot_mask: np.ndarray | None = None
    ) -> EpochMetrics:
        """Decide, migrate and score one epoch (frames already placed).

        ``base_s`` is the epoch's unpenalized application time;
        ``hot_mask`` lets a caller that scores one recording many times
        share the ground-truth hot set (see :func:`hot_page_mask`).
        """
        tiers = self.tiers
        ctx = PolicyContext(
            epoch=rec.epoch,
            tier1_capacity=self.tier1_capacity,
            n_frames=tiers.n_frames,
            prev_profile=self.prev_profile,
            next_profile=rec.profile,
            true_counts=rec.counts,
            true_mem_counts=rec.mem_counts,
            current_tier1=tiers.tier1_pages(),
            rank_source=self.rank_source,
            dirty_pages=rec.dirty_pages,
            tlb_miss_counts=rec.tlb_counts,
        )
        moved = self.mover.apply_target(self.policy.target_tier1(ctx))

        tier1_mem = rec.mem_counts[tiers.tier1_pages()].sum()
        total_mem = rec.mem_counts.sum()
        if hot_mask is None:
            hot_mask = hot_page_mask(rec.counts, self.tier1_capacity)
        latency = self.latency_model.epoch_latency(
            base_s=base_s,
            access_counts=rec.counts,
            slow_mask=tiers.tier_of == TIER2,
            hot_mask=hot_mask,
            migrations=moved.moved,
        )
        self.prev_profile = rec.profile
        return EpochMetrics(
            epoch=rec.epoch,
            accesses=rec.accesses,
            mem_accesses=int(total_mem),
            hitrate=float(tier1_mem / total_mem) if total_mem else 1.0,
            promoted=moved.promoted,
            demoted=moved.demoted,
            latency=latency,
            profiler_overhead_s=rec.overhead_s,
        )


def _epochs_per_s():
    return default_registry().gauge(
        "repro_sim_epochs_per_s",
        "Simulated epochs per wall-clock second, last step() call",
        labelnames=("session",),
    )


class TieredSimulator:
    """Runs one (workload, policy, rank source, tier ratio) experiment.

    A :class:`~repro.core.driver.ProfiledRun` executes and profiles
    each epoch; a :class:`PlacementStep` places and scores it.  Two
    driving styles share that one code path:

    * batch — :meth:`run` executes N epochs and returns the result;
    * incremental — :meth:`start` once, then :meth:`step` any number of
      times (the ``repro.service`` sessions drive it this way, streaming
      each :class:`EpochMetrics` to subscribers as it is produced).

    Both styles draw from the same seeded RNG in the same order, so a
    stepped run is bit-identical to ``run()`` with the same seed.
    """

    def __init__(
        self,
        workload: Workload,
        policy: Policy,
        *,
        tier1_ratio: float = 1 / 8,
        rank_source: RankSource | str = RankSource.COMBINED,
        machine_config: MachineConfig | None = None,
        tmp_config: TMPConfig | None = None,
        latency_model: LatencyModel | None = None,
        seed: int = 0,
        epoch_slices: int = 1,
    ):
        self.seed = seed
        self.profiled = ProfiledRun(
            workload,
            machine_config=machine_config,
            tmp_config=tmp_config,
            seed=seed,
            epoch_slices=epoch_slices,
        )
        self.workload = workload
        self.machine = self.profiled.machine
        self.profiler = self.profiled.profiler
        self.placement = PlacementStep(
            policy,
            n_frames=self.machine.n_frames,
            footprint_pages=workload.footprint_pages,
            tier1_ratio=tier1_ratio,
            rank_source=rank_source,
            latency_model=latency_model,
            machine=self.machine,
        )
        self.policy = policy
        self.tier1_ratio = self.placement.tier1_ratio
        self.rank_source = self.placement.rank_source
        self.latency_model = self.placement.latency_model
        self.tier1_capacity = self.placement.tier1_capacity
        self.tiers = self.placement.tiers
        self.mover = self.placement.mover
        self._result: SimulationResult | None = None
        self._epoch_hooks: list = []
        #: Label for this simulator's throughput gauge — the service
        #: overwrites it with the session id so Prometheus scrapes show
        #: per-session epoch throughput.
        self.obs_label = workload.name

    def __getstate__(self) -> dict:
        # Epoch hooks are callbacks into whoever drives *this* copy (the
        # service's fan-out); a pickled copy starts with none and its
        # new driver registers its own.
        return {**self.__dict__, "_epoch_hooks": []}

    # -------------------------------------------------------------- stepping

    @property
    def result(self) -> SimulationResult | None:
        """The accumulating result of a started run (None before start)."""
        return self._result

    @property
    def epochs_run(self) -> int:
        """How many scored epochs have executed since :meth:`start`."""
        return self.profiled.epochs_run

    @contextmanager
    def history_left_out(self):
        """Hold no per-epoch history for the duration of the block.

        ``result`` is swapped for its :meth:`SimulationResult
        .without_history` copy, and the profiler keeps only its newest
        report, so what is pickled inside the block (the session
        snapshot) costs the state, not the age.  Both are put back on
        exit.  Whoever calls it owns the simulator meanwhile.
        """
        profiler = self.profiler
        result, reports = self._result, profiler.reports
        if result is not None:
            self._result = result.without_history()
        profiler.reports = reports[-1:]
        try:
            yield
        finally:
            self._result, profiler.reports = result, reports

    def add_epoch_hook(self, hook) -> None:
        """Register ``hook(metrics)`` to fire after every scored epoch.

        Hooks fire inside :meth:`step`, one call per epoch, in
        registration order — this is the streaming-telemetry tap the
        service's ``subscribe`` frames come from.
        """
        self._epoch_hooks.append(hook)

    def start(self, init: bool = True) -> SimulationResult:
        """Arm an incremental run; optionally populate.

        ``init`` first runs the workload's population stream (every
        page written once, in address order) so first-touch placement
        is hotness-blind, as on a real service.  The init phase is not
        scored.
        """
        if self._result is not None:
            raise RuntimeError("simulation already started")
        self._result = self.placement.new_result(self.workload.name)
        if init:
            self.profiled.populate()
            self._place_new_frames()
        return self._result

    def step(self, epochs: int = 1) -> list[EpochMetrics]:
        """Advance ``epochs`` scored epochs; return their metrics.

        Requires a prior :meth:`start`.  Epoch numbering continues from
        the last step, and the per-epoch hooks fire as each epoch
        completes.
        """
        if self._result is None:
            raise RuntimeError("call start() before step()")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        out: list[EpochMetrics] = []
        t0 = time.perf_counter()
        for _ in range(epochs):
            metrics = self._run_epoch()
            self._result.epochs.append(metrics)
            out.append(metrics)
            for hook in self._epoch_hooks:
                hook(metrics)
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            _epochs_per_s().set(len(out) / elapsed, session=self.obs_label)
        return out

    def close(self) -> None:
        """Drop this simulator's child of the throughput gauge, so a
        process hosting many simulators exports only the live ones."""
        _epochs_per_s().remove(session=self.obs_label)

    def run(self, epochs: int = 10, init: bool = True) -> SimulationResult:
        """Execute ``epochs`` epochs; return the scored result.

        Equivalent to :meth:`start` followed by one :meth:`step` — the
        batch entry point the one-shot commands use.
        """
        result = self.start(init=init)
        if epochs > 0:
            self.step(epochs)
        return result

    # ------------------------------------------------------------- internals

    def _place_new_frames(self) -> None:
        """First-touch placement of newly allocated frames."""
        frame_stats = self.machine.frame_stats
        fcfa_place_new(
            self.tiers, frame_stats.first_touch_op, frame_stats.touched_mask()
        )

    def _run_epoch(self) -> EpochMetrics:
        rec = self.profiled.run_epoch()
        self._place_new_frames()
        return self.placement.step(
            rec, base_s=rec.accesses / self.machine.config.ops_per_second
        )
