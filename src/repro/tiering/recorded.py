"""Record once, evaluate policies offline — the paper's Fig. 6 method.

"The results are based on the profiling data from the real hardware"
(§VI-C): the paper collects each workload's profiles once, then
computes policy hitrates offline for every (policy, monitoring source,
tier ratio) combination.  We do the same: :func:`record_run` executes
the workload on the machine once, capturing per-epoch TMP profiles and
ground truth; :func:`evaluate_recorded` then replays placement
decisions against the recording — two orders of magnitude cheaper than
re-simulating the machine per configuration, and guaranteed to compare
policies on *identical* access streams.

The one fidelity loss versus :class:`~repro.tiering.simulator
.TieredSimulator` (the online loop): migrations cannot feed back into
TLB state.  In the model that feedback only perturbs A-bit staleness
slightly, and Fig. 6's metric ignores it by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import TMPConfig
from ..core.driver import EpochRecord, ProfiledRun
from ..core.hotness import RankSource
from ..memsim.machine import MachineConfig
from ..workloads.base import Workload
from .latency_model import LatencyModel
from .placement import fcfa_place_new
from .policies.base import Policy
from .simulator import PlacementStep, SimulationResult, hot_page_mask

__all__ = ["EpochRecord", "RecordedRun", "record_run", "evaluate_recorded"]


@dataclass
class RecordedRun:
    """A workload's full recorded execution."""

    workload: str
    footprint_pages: int
    n_frames: int
    #: PFN → index of the epoch that first touched it (-1 for the init
    #: phase, large for never-touched).
    first_touch_epoch: np.ndarray
    #: PFN → global op stamp of the first touch.
    first_touch_op: np.ndarray
    epochs: list[EpochRecord] = field(default_factory=list)
    #: Whole-run raw machine event totals (retired ops, misses, walks).
    event_totals: dict = field(default_factory=dict)
    #: (epoch index, capacity) → ground-truth hot mask.  Every
    #: policy × source cell of a sweep shares the same truth, so the
    #: top-k selection is computed once per (recording, capacity).
    _hot_mask_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    def hot_mask(self, epoch_index: int, capacity: int) -> np.ndarray:
        """Boolean per-PFN mask of the epoch's ``capacity`` hottest pages.

        Memoized; callers must treat the returned array as read-only.
        """
        key = (epoch_index, capacity)
        mask = self._hot_mask_cache.get(key)
        if mask is None:
            mask = hot_page_mask(self.epochs[epoch_index].counts, capacity)
            self._hot_mask_cache[key] = mask
        return mask


def record_run(
    workload: Workload,
    *,
    machine_config: MachineConfig | None = None,
    tmp_config: TMPConfig | None = None,
    epochs: int = 10,
    seed: int = 0,
    init: bool = True,
    epoch_slices: int = 1,
) -> RecordedRun:
    """Execute ``workload`` once and capture everything policies need.

    ``epoch_slices`` stops each epoch's machine pass at that many
    slices with a profiler ``tick`` between them, giving graded
    per-epoch A-bit counts (see :meth:`TMProfiler.tick`).
    """
    run = ProfiledRun(
        workload,
        machine_config=machine_config,
        tmp_config=tmp_config,
        seed=seed,
        epoch_slices=epoch_slices,
    )
    machine = run.machine
    machine.pml.enabled = True  # capture write sets for extensions
    if init:
        run.populate()
    epoch_op_bounds = [machine.op_counter]
    records: list[EpochRecord] = []
    for _ in range(epochs):
        records.append(run.run_epoch())
        epoch_op_bounds.append(machine.op_counter)

    first_op = machine.frame_stats.first_touch_op.copy()
    # Map each frame's first touch to the epoch that produced it; init
    # touches map to -1, untouched frames to n_epochs.
    bounds = np.asarray(epoch_op_bounds, dtype=np.uint64)
    first_epoch = np.searchsorted(bounds, first_op, side="right").astype(np.int64) - 1
    first_epoch[~machine.frame_stats.touched_mask()] = epochs
    if not init:
        first_epoch = np.maximum(first_epoch, 0)

    return RecordedRun(
        workload=workload.name,
        footprint_pages=workload.footprint_pages,
        n_frames=machine.n_frames,
        first_touch_epoch=first_epoch,
        first_touch_op=first_op,
        epochs=records,
        event_totals=run.event_totals,
    )


def evaluate_recorded(
    recorded: RecordedRun,
    policy: Policy,
    *,
    tier1_ratio: float = 1 / 8,
    rank_source: RankSource | str = RankSource.COMBINED,
    latency_model: LatencyModel | None = None,
    base_epoch_s: float = 1.0,
) -> SimulationResult:
    """Replay placement decisions for one configuration: the online
    simulator's :class:`PlacementStep`, looped over the stored epochs.

    Policies carrying internal state (History's EMA, AutoNUMA's cursor)
    must be fresh instances per evaluation.
    """
    placement = PlacementStep(
        policy,
        n_frames=recorded.n_frames,
        footprint_pages=recorded.footprint_pages,
        tier1_ratio=tier1_ratio,
        rank_source=rank_source,
        latency_model=latency_model,
    )
    result = placement.new_result(recorded.workload)
    for epoch_index, rec in enumerate(recorded.epochs):
        # First-touch placement of frames that appeared by this epoch.
        newly = recorded.first_touch_epoch <= rec.epoch
        fcfa_place_new(placement.tiers, recorded.first_touch_op, newly)
        result.epochs.append(
            placement.step(
                rec,
                base_s=base_epoch_s,
                hot_mask=recorded.hot_mask(epoch_index, placement.tier1_capacity),
            )
        )
    return result
