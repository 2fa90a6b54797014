"""Design-space exploration over E-morphic configuration grids and flow shapes.

A sweep runs a set of circuits through a list of *points*, each a
``(point, Pipeline)`` pair: the point is what the frontier reports, the
pipeline what its jobs run.  :func:`grid_points` renders a cartesian grid of
field overrides on a base :class:`EmorphicConfig` (dotted keys reach into the
nested baseline config, e.g. ``baseline.use_choices``) through
:func:`~repro.flows.emorphic_pipeline`; :func:`script_points` takes whole
scripted pipelines, so campaigns can compare, say, a greedy extraction
recipe against the SA one.  :func:`run_sweep` materializes one job per
(circuit, point), runs the campaign through the process pool and reduces
the outcomes to a best-per-circuit frontier, all served by the same
content-addressed result cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.flows.emorphic import EmorphicConfig, emorphic_pipeline
from repro.orchestrate.executor import CampaignReport, JobOutcome, ProgressFn, run_campaign
from repro.orchestrate.jobs import CircuitRef, JobSpec, make_pipeline_job
from repro.orchestrate.store import ResultStore
from repro.pipeline import Pipeline

#: One sweep point: what the frontier reports, and the pipeline its jobs run.
SweepPoint = Tuple[Dict[str, object], Pipeline]


def expand_grid(grid: Dict[str, Sequence[object]]) -> List[Dict[str, object]]:
    """Cartesian product of ``{field: [values...]}`` into override dicts."""
    if not grid:
        return [{}]
    names = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[name] for name in names)):
        points.append(dict(zip(names, combo)))
    return points


def apply_overrides(config: Dict[str, object], overrides: Dict[str, object]) -> Dict[str, object]:
    """A copy of the config dict with dotted-key overrides applied."""
    result = dict(config)
    result["baseline"] = dict(config.get("baseline", {}))
    for key, value in overrides.items():
        if "." in key:
            scope, leaf = key.split(".", 1)
            if scope != "baseline" or "." in leaf:
                raise KeyError(f"unsupported override scope {key!r}")
            if leaf not in result["baseline"]:
                raise KeyError(f"unknown baseline config field {leaf!r}")
            result["baseline"][leaf] = value
        else:
            if key not in result:
                raise KeyError(f"unknown EmorphicConfig field {key!r}")
            result[key] = value
    return result


def grid_points(
    grid: Dict[str, Sequence[object]], base_config: Optional[EmorphicConfig] = None
) -> List[SweepPoint]:
    """One point per grid combination: the overrides, and the E-morphic
    pipeline of the base config with them applied."""
    base = (base_config or EmorphicConfig()).to_dict()
    return [
        (point, emorphic_pipeline(EmorphicConfig.from_dict(apply_overrides(base, point))))
        for point in expand_grid(grid)
    ]


def script_points(scripts: Sequence[Union[str, Pipeline]]) -> List[SweepPoint]:
    """One point per flow shape: ``{"script": canonical text}``, so the
    frontier reports which shape won per circuit."""
    pipelines = [
        script if isinstance(script, Pipeline) else Pipeline.from_script(script) for script in scripts
    ]
    return [({"script": pipeline.to_script()}, pipeline) for pipeline in pipelines]


def sweep_jobs(
    circuits: Sequence[Union[str, CircuitRef]],
    points: Sequence[SweepPoint],
    preset: str = "bench",
) -> List[JobSpec]:
    """One job per point per circuit, tagged ``sweep[i]`` by point index."""
    return [
        make_pipeline_job(circuit, pipeline, preset=preset, tag=f"sweep[{index}]")
        for index, (_, pipeline) in enumerate(points)
        for circuit in circuits
    ]


@dataclass
class SweepReport:
    """Campaign outcomes plus the parameter frontier."""

    campaign: CampaignReport
    points: List[Dict[str, object]] = field(default_factory=list)

    def frontier(self) -> Dict[str, Dict[str, object]]:
        """Best (delay, area) outcome per circuit, with its grid point."""
        best: Dict[str, Tuple[Tuple[float, float], JobOutcome, Dict[str, object]]] = {}
        for outcome in self.campaign.successful():
            result = (outcome.record or {}).get("result") or {}
            if "delay" not in result:
                continue
            qor = (float(result["delay"]), float(result["area"]))
            name = outcome.spec.circuit.label
            point = self._point_of(outcome)
            if name not in best or qor < best[name][0]:
                best[name] = (qor, outcome, point)
        return {
            name: {
                "delay": qor[0],
                "area": qor[1],
                "levels": (outcome.record or {}).get("result", {}).get("levels"),
                "runtime": (outcome.record or {}).get("result", {}).get("runtime"),
                "point": point,
                "key": outcome.key,
            }
            for name, (qor, outcome, point) in sorted(best.items())
        }

    def _point_of(self, outcome: JobOutcome) -> Dict[str, object]:
        tag = outcome.spec.tag or ""
        if tag.startswith("sweep[") and tag.endswith("]"):
            try:
                return self.points[int(tag[len("sweep[") : -1])]
            except (ValueError, IndexError):
                pass
        return {}

    def to_dict(self) -> Dict[str, object]:
        return {
            "points": self.points,
            "frontier": self.frontier(),
            "campaign": self.campaign.to_dict(),
        }


def run_sweep(
    circuits: Sequence[Union[str, CircuitRef]],
    points: Sequence[SweepPoint],
    preset: str = "bench",
    store: Union[None, str, ResultStore] = None,
    max_workers: Optional[int] = None,
    job_timeout: Optional[float] = None,
    use_cache: bool = True,
    progress: Union[None, bool, ProgressFn] = None,
) -> SweepReport:
    """Run every point over the circuits and reduce to a frontier."""
    campaign = run_campaign(
        sweep_jobs(circuits, points, preset=preset),
        store=store,
        max_workers=max_workers,
        job_timeout=job_timeout,
        use_cache=use_cache,
        progress=progress,
    )
    return SweepReport(campaign=campaign, points=[point for point, _ in points])
