"""Telemetry for partitioned runs: per-window reports and the run profile.

``PartitionProfile`` is the partition analogue of the engine's
``SaturationProfile`` / ``ExtractionProfile`` — a record that serializes to
plain JSON via ``to_dict`` and rides in pipeline results under the
``"partition"`` key (next to ``"saturation"`` and ``"extraction"``), in
orchestration payloads, and in the ``emorphic partition-bench`` payload.  Every window contributes a ``WindowReport`` with
its boundary shape, what the saturate/extract stages did, the CEC verdict,
and the accept/revert decision, so a partitioned run can be audited window
by window after the fact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from repro.obs.provenance import RuleAttribution

#: Terminal statuses a window optimization can land in.
WINDOW_STATUSES = ("accepted", "reverted_cec", "reverted_no_gain", "failed")


@dataclass
class WindowReport:
    """What happened to one window during partitioned optimization."""

    index: int
    members: int = 0
    inputs: int = 0
    outputs: int = 0
    ands_before: int = 0
    ands_after: int = 0
    levels_before: int = 0
    levels_after: int = 0
    #: One of :data:`WINDOW_STATUSES`.  Anything but ``"accepted"`` means the
    #: window keeps its original cone (fail-soft).
    status: str = "failed"
    cec: Optional[str] = None
    saturation_stop: Optional[str] = None
    saturation_iterations: int = 0
    egraph_nodes: int = 0
    extract_cost: Optional[float] = None
    wall_time: float = 0.0
    error: Optional[str] = None
    #: The window's rule attribution; only set when a provenance recorder
    #: was installed during the run.
    attribution: Optional[RuleAttribution] = None
    #: The window's saturation sample (growth curve + RSS watermark, see
    #: :func:`repro.obs.resource.run_sample`) stamped with ``extra.window``;
    #: only set when a resource sampler was installed.
    resource: Optional[Dict[str, object]] = None

    @property
    def accepted(self) -> bool:
        """True when the optimized cone replaced the original one."""
        return self.status == "accepted"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload of every field, the attribution as its own ``to_dict``."""
        data = asdict(replace(self, attribution=None))
        if self.attribution is not None:
            data["attribution"] = self.attribution.to_dict()
        return data


@dataclass
class PartitionProfile:
    """Aggregate telemetry of one partitioned optimization run."""

    method: str = "cone"
    k: int = 0
    seed: int = 0
    workers: int = 0
    num_windows: int = 0
    windows: List[WindowReport] = field(default_factory=list)
    ands_before: int = 0
    ands_after: int = 0
    levels_before: int = 0
    levels_after: int = 0
    partition_time: float = 0.0
    optimize_time: float = 0.0
    stitch_time: float = 0.0
    wall_time: float = 0.0
    final_cec: Optional[str] = None
    #: Aggregated rule attribution over the *accepted* windows (the e-nodes
    #: that survived into the stitched circuit); provenance runs only.
    rule_attribution: Optional[RuleAttribution] = None
    #: Aggregated resource telemetry over all windows (max RSS across
    #: processes, summed growth events, per-window curves); sampled runs only.
    resource: Optional[Dict[str, object]] = None

    @property
    def accepted_windows(self) -> int:
        """Windows whose optimized cone was stitched in."""
        return sum(1 for w in self.windows if w.status == "accepted")

    @property
    def reverted_windows(self) -> int:
        """Windows reverted by the CEC guard or for lack of gain."""
        return sum(1 for w in self.windows if w.status.startswith("reverted"))

    @property
    def failed_windows(self) -> int:
        """Windows whose optimization raised."""
        return sum(1 for w in self.windows if w.status == "failed")

    def window_sizes(self) -> List[int]:
        """Member count of every window, in window order."""
        return [w.members for w in self.windows]

    def status_counts(self) -> Dict[str, int]:
        """Windows per status, every status of :data:`WINDOW_STATUSES` present."""
        counts = {status: 0 for status in WINDOW_STATUSES}
        for window in self.windows:
            counts[window.status] = counts.get(window.status, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload, derived counts and per-window reports included."""
        return {
            "method": self.method,
            "k": self.k,
            "seed": self.seed,
            "workers": self.workers,
            "num_windows": self.num_windows,
            "ands_before": self.ands_before,
            "ands_after": self.ands_after,
            "levels_before": self.levels_before,
            "levels_after": self.levels_after,
            "accepted_windows": self.accepted_windows,
            "reverted_windows": self.reverted_windows,
            "failed_windows": self.failed_windows,
            "window_sizes": self.window_sizes(),
            "status_counts": self.status_counts(),
            "partition_time": self.partition_time,
            "optimize_time": self.optimize_time,
            "stitch_time": self.stitch_time,
            "wall_time": self.wall_time,
            "final_cec": self.final_cec,
            "rule_attribution": None if self.rule_attribution is None else self.rule_attribution.to_dict(),
            "resource": self.resource,
            "windows": [w.to_dict() for w in self.windows],
        }

    def render(self) -> str:
        """Short human-readable digest for CLI output."""
        counts = self.status_counts()
        parts = [
            f"partition: method={self.method} k={self.k} seed={self.seed} "
            f"windows={self.num_windows} workers={self.workers}",
            f"  ands {self.ands_before} -> {self.ands_after}, "
            f"levels {self.levels_before} -> {self.levels_after}",
            f"  accepted={counts['accepted']} reverted_cec={counts['reverted_cec']} "
            f"reverted_no_gain={counts['reverted_no_gain']} failed={counts['failed']}",
            f"  times: partition={self.partition_time:.2f}s optimize={self.optimize_time:.2f}s "
            f"stitch={self.stitch_time:.2f}s wall={self.wall_time:.2f}s",
        ]
        if self.final_cec is not None:
            parts.append(f"  final cec: {self.final_cec}")
        return "\n".join(parts)
