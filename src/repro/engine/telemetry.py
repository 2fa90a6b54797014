"""Saturation telemetry: per-rule and per-iteration statistics of a run.

:class:`SaturationProfile` is the engine's return value: the stop reason
and per-iteration reports, plus per-rule search/apply wall-clock,
match/dedup counts, ban bookkeeping, and per-iteration growth curves.
Everything serializes to plain JSON via ``to_dict`` — orchestrate job
payloads and ``BENCH_saturation.json`` carry these records verbatim.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass
class RuleProfile:
    """Cumulative statistics of one rule across a saturation run."""

    name: str
    search_time: float = 0.0
    apply_time: float = 0.0
    matches_found: int = 0
    matches_deduped: int = 0
    applications: int = 0  # unions actually performed
    times_banned: int = 0
    banned_iterations: int = 0  # iterations skipped while banned
    skipped_iterations: int = 0  # iterations skipped after the node budget tripped

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form of this record."""
        return asdict(self)


@dataclass
class IterationReport:
    """Statistics of one saturation iteration.

    The first five fields are the pre-engine runner's per-iteration report;
    the rest is engine telemetry.  ``skipped`` lists rules whose
    matches were dropped because the node budget tripped mid-apply — they are
    recorded instead of silently vanishing from ``applied``.
    """

    iteration: int
    applied: Dict[str, int] = field(default_factory=dict)
    num_classes: int = 0
    num_nodes: int = 0
    elapsed: float = 0.0
    skipped: List[str] = field(default_factory=list)
    banned: List[str] = field(default_factory=list)
    search_time: float = 0.0
    apply_time: float = 0.0
    rebuild_time: float = 0.0
    matches_found: int = 0
    matches_deduped: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form of this record."""
        return asdict(self)


@dataclass
class SaturationProfile:
    """Overall result of a saturation run."""

    stop_reason: str
    iterations: List[IterationReport] = field(default_factory=list)
    total_time: float = 0.0
    rules: Dict[str, RuleProfile] = field(default_factory=dict)
    scheduler: str = "simple"
    dedup: bool = False
    #: The e-matching strategy that ran.  The engine has one, the batched
    #: trie walk; the stamp tells its payloads apart from older ones
    #: ("scan" / "indexed" per-pattern runs).  The shared walk cannot be
    #: split honestly per rule, so per-rule ``search_time`` is zero and
    #: iteration-level ``search_time`` carries the phase timing.
    matcher: str = "batched"
    #: The run's resource sample (:func:`repro.obs.resource.run_sample`: peak
    #: RSS and the growth curve read off the e-graph's counters) when a
    #: sampler was installed during the run; None (and absent from
    #: ``to_dict``) otherwise, which keeps the unsampled payload
    #: byte-identical to earlier builds.
    resource: Optional[Dict[str, object]] = None

    @property
    def num_iterations(self) -> int:
        """Number of iterations the run completed."""
        return len(self.iterations)

    @property
    def final_classes(self) -> int:
        """E-class count after the last iteration (0 if none ran)."""
        return self.iterations[-1].num_classes if self.iterations else 0

    @property
    def final_nodes(self) -> int:
        """E-node count after the last iteration (0 if none ran)."""
        return self.iterations[-1].num_nodes if self.iterations else 0

    @property
    def total_matches(self) -> int:
        """Matches found across all iterations."""
        return sum(it.matches_found for it in self.iterations)

    @property
    def total_applications(self) -> int:
        """Rule applications (unions attempted) across all iterations."""
        return sum(sum(it.applied.values()) for it in self.iterations)

    def search_time(self) -> float:
        """Total e-matching wall-clock across iterations."""
        return sum(it.search_time for it in self.iterations)

    def apply_time(self) -> float:
        """Total match-application wall-clock across iterations."""
        return sum(it.apply_time for it in self.iterations)

    def rebuild_time(self) -> float:
        """Total congruence-rebuild wall-clock across iterations."""
        return sum(it.rebuild_time for it in self.iterations)

    def growth_curve(self) -> List[Dict[str, int]]:
        """Per-iteration (classes, nodes) trajectory for plots and benches."""
        return [
            {"iteration": it.iteration, "classes": it.num_classes, "nodes": it.num_nodes}
            for it in self.iterations
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``\"saturation\"`` payload in results)."""
        data = {
            "stop_reason": self.stop_reason,
            "total_time": self.total_time,
            "scheduler": self.scheduler,
            "dedup": self.dedup,
            "matcher": self.matcher,
            "num_iterations": self.num_iterations,
            "final_classes": self.final_classes,
            "final_nodes": self.final_nodes,
            "total_matches": self.total_matches,
            "total_applications": self.total_applications,
            "search_time": self.search_time(),
            "apply_time": self.apply_time(),
            "rebuild_time": self.rebuild_time(),
            "iterations": [it.to_dict() for it in self.iterations],
            "rules": {name: rule.to_dict() for name, rule in self.rules.items()},
        }
        if self.resource is not None:
            data["resource"] = self.resource
        return data
