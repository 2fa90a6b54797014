"""Design-space exploration over E-morphic configuration grids and flow shapes.

A config sweep takes a base :class:`EmorphicConfig`, a cartesian grid of
field overrides (dotted keys reach into the nested baseline config, e.g.
``baseline.use_choices``), and a set of circuits; it renders each grid
point's config into its E-morphic pipeline, materializes one job per
(circuit, grid point), runs the campaign through the process pool, and
reduces the outcomes to a best-per-circuit frontier.

A *pipeline* sweep explores flow shapes instead of config values: each grid
point is a whole scripted pipeline
(:func:`run_pipeline_sweep`), so campaigns can compare, say, a greedy
extraction recipe against the SA one, or an extra ``resyn2`` round — all
served by the same content-addressed result cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.flows.emorphic import EmorphicConfig
from repro.orchestrate.executor import CampaignReport, JobOutcome, ProgressFn, run_campaign
from repro.orchestrate.jobs import CircuitRef, JobSpec, make_job, make_pipeline_job
from repro.orchestrate.store import ResultStore


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


def sweep_jobs(
    circuits: Sequence[Union[str, CircuitRef]],
    grid: Dict[str, Sequence[object]],
    base_config: Optional[EmorphicConfig] = None,
    preset: str = "bench",
) -> Tuple[List[JobSpec], List[Dict[str, object]]]:
    """(jobs, grid points): one emorphic job per circuit per grid point."""
    base = (base_config or EmorphicConfig()).to_dict()
    points = expand_grid(grid)
    jobs: List[JobSpec] = []
    for point_index, point in enumerate(points):
        config = apply_overrides(base, point)
        for circuit in circuits:
            jobs.append(make_job(circuit, "emorphic", config, preset=preset, tag=f"sweep[{point_index}]"))
    return jobs, points


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


def pipeline_sweep_jobs(
    circuits: Sequence[Union[str, CircuitRef]],
    scripts: Sequence[str],
    preset: str = "bench",
) -> Tuple[List[JobSpec], List[Dict[str, object]]]:
    """(jobs, grid points): one pipeline job per circuit per flow shape.

    Every grid point is ``{"script": canonical_text}``, so the frontier
    reports which *shape* won per circuit.
    """
    from repro.pipeline import Pipeline

    pipelines = [
        pipeline if isinstance(pipeline, Pipeline) else Pipeline.from_script(str(pipeline))
        for pipeline in scripts
    ]
    points = [{"script": pipeline.to_script()} for pipeline in pipelines]
    jobs: List[JobSpec] = []
    for point_index, pipeline in enumerate(pipelines):
        for circuit in circuits:
            jobs.append(make_pipeline_job(circuit, pipeline, preset=preset, tag=f"sweep[{point_index}]"))
    return jobs, points


def run_pipeline_sweep(
    circuits: Sequence[Union[str, CircuitRef]],
    scripts: Sequence[str],
    preset: str = "bench",
    store: Union[None, str, ResultStore] = None,
    max_workers: Optional[int] = None,
    job_timeout: Optional[float] = None,
    use_cache: bool = True,
    progress: Union[None, bool, ProgressFn] = None,
) -> "SweepReport":
    """Explore flow *shapes*: one scripted pipeline per grid point."""
    jobs, points = pipeline_sweep_jobs(circuits, scripts, preset=preset)
    campaign = run_campaign(
        jobs,
        store=store,
        max_workers=max_workers,
        job_timeout=job_timeout,
        use_cache=use_cache,
        progress=progress,
    )
    return SweepReport(campaign=campaign, points=points)


def run_sweep(
    circuits: Sequence[Union[str, CircuitRef]],
    grid: Dict[str, Sequence[object]],
    base_config: Optional[EmorphicConfig] = None,
    preset: str = "bench",
    store: Union[None, str, ResultStore] = None,
    max_workers: Optional[int] = None,
    job_timeout: Optional[float] = None,
    use_cache: bool = True,
    progress: Union[None, bool, ProgressFn] = None,
) -> SweepReport:
    """Explore the grid over the circuits and reduce to a frontier."""
    jobs, points = sweep_jobs(circuits, grid, base_config=base_config, preset=preset)
    campaign = run_campaign(
        jobs,
        store=store,
        max_workers=max_workers,
        job_timeout=job_timeout,
        use_cache=use_cache,
        progress=progress,
    )
    return SweepReport(campaign=campaign, points=points)
