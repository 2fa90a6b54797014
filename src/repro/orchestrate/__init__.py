"""Campaign orchestration: batch runs, result caching, and parameter sweeps.

The subsystem that turns single-circuit flow invocations into fleet-scale
campaigns (the shape of every result table in the paper):

* :mod:`repro.orchestrate.jobs` — content-hashed job specifications;
* :mod:`repro.orchestrate.store` — persistent content-addressed results;
* :mod:`repro.orchestrate.executor` — process-parallel campaign runner;
* :mod:`repro.orchestrate.sweep` — sweeps over config grids or flow
  shapes, and their frontiers;
* :mod:`repro.orchestrate.report` — Table-II / Fig-9 style aggregation.
"""

from repro.orchestrate.executor import CampaignReport, JobOutcome, run_campaign
from repro.orchestrate.jobs import CircuitRef, JobSpec, make_job, make_pipeline_job, run_job
from repro.orchestrate.report import fig9_summary, table2_summary
from repro.orchestrate.store import ResultStore, default_store_path
from repro.orchestrate.sweep import (
    SweepReport,
    expand_grid,
    grid_points,
    run_sweep,
    script_points,
    sweep_jobs,
)

__all__ = [
    "CampaignReport",
    "CircuitRef",
    "JobOutcome",
    "JobSpec",
    "ResultStore",
    "SweepReport",
    "default_store_path",
    "expand_grid",
    "fig9_summary",
    "grid_points",
    "make_job",
    "make_pipeline_job",
    "run_campaign",
    "run_job",
    "run_sweep",
    "script_points",
    "sweep_jobs",
    "table2_summary",
]
