"""Layer benches: each bench runs a few pipeline scripts on benchgen circuits.

A :class:`Bench` names its variants as pipeline-script templates and carries
two :class:`Profile`\\ s: ``fast``, the CI scale at which the references under
``benchmarks/`` were taken, and ``full``, the bench scale of the root
``BENCH_*.json`` payloads.  A profile's ``limits`` fill the templates and are
recorded verbatim in the payload, so a payload names exactly the scripts it
ran.  Every run is :meth:`Pipeline.run_flow` on one circuit, and its record is
read off the :class:`~repro.pipeline.PipelineResult`: ``wall_time`` sums the
runtimes of the bench's timed passes, and the saturation, extraction and
partition profiles, the CEC verdict and the output AIG fill in the rest.  A
layer bench therefore measures exactly what a flow runs.

:func:`check_regressions` gates a payload against a committed reference
(wall time, CEC verdict and the bench's deterministic counts), and
:func:`check_completions` is the capability gate of a bench with a ``gap``.
``emorphic saturate-bench``, ``extract-bench`` and ``partition-bench`` drive
this module; docs/benchmarks.md lists every variant's fast-profile script.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.benchgen import epfl
from repro.engine import EngineLimits
from repro.pipeline.pipeline import Pipeline, PipelineResult

BENCH_SCHEMA = 1

#: Saturation stop reasons that mean the engine finished its work, as opposed
#: to running into a resource cap.
HEALTHY_STOPS = ("saturated", "iteration_limit")

#: The largest benchgen circuits (by AND count under the ``bench`` preset).
LARGEST_CIRCUITS = ("log2", "sin", "multiplier", "hyp")


@dataclass(frozen=True)
class Profile:
    """One scale of a bench: the circuits' preset, the default circuits, and
    the limits that fill the variant templates (recorded in the payload)."""

    preset: str
    circuits: Tuple[str, ...]
    limits: Mapping[str, object]


@dataclass(frozen=True)
class Bench:
    """A layer bench: variant scripts, two profiles, timed passes, gated counts."""

    #: Payload ``bench`` key; the committed reference is
    #: ``benchmarks/<name>_reference.json``.
    name: str
    #: The ``emorphic`` subcommand that runs the bench.
    command: str
    summary: str
    #: ``(variant, script template)`` pairs; the first variant is the one
    #: speedups are measured against.
    variants: Tuple[Tuple[str, str], ...]
    fast: Profile
    full: Profile
    #: Passes whose runtimes sum to a run's ``wall_time``.
    timed: Tuple[str, ...]
    #: Run fields the reference gate requires to be equal.  Each is a pure
    #: function of the circuit and the limits, so a move is a behaviour
    #: change, never noise.
    counts: Tuple[str, ...]
    #: Re-run the last variant's timed passes under a provenance recorder and
    #: a resource sampler, to report what each observer costs.
    overhead_probes: bool = False
    #: ``(variant, variant)``: the first must complete on every circuit and
    #: the second must fail on at least one (:func:`check_completions`).
    gap: Optional[Tuple[str, str]] = None

    def profile(self, fast: bool) -> Profile:
        """The fast or the full profile."""
        return self.fast if fast else self.full

    def scripts(self, fast: bool) -> Dict[str, str]:
        """Each variant's script, filled with the profile's limits."""
        limits = self.profile(fast).limits
        return {variant: template.format(**limits) for variant, template in self.variants}


_MATCH_LIMIT = EngineLimits().match_limit_per_rule

SATURATION = Bench(
    name="saturation",
    command="saturate-bench",
    summary="the saturation engine's two schedules, greedy-extracted and CEC-checked",
    variants=(
        (
            "simple",
            "dag2eg; saturate(iters={iters}, max_nodes={max_nodes}, time_limit={time_limit}, "
            "scheduler=simple, dedup=false); extract(greedy); cec(conflict_budget=50000)",
        ),
        (
            "backoff",
            "dag2eg; saturate(iters={iters}, max_nodes={max_nodes}, time_limit={time_limit}, "
            "scheduler=backoff, dedup=true); extract(greedy); cec(conflict_budget=50000)",
        ),
    ),
    fast=Profile(
        "test",
        LARGEST_CIRCUITS,
        {"iters": 3, "max_nodes": 8_000, "time_limit": 30.0, "match_limit_per_rule": _MATCH_LIMIT},
    ),
    full=Profile(
        "bench",
        LARGEST_CIRCUITS,
        {"iters": 4, "max_nodes": 150_000, "time_limit": 120.0, "match_limit_per_rule": _MATCH_LIMIT},
    ),
    timed=("saturate",),
    counts=(
        "stop_reason", "iterations", "final_classes", "final_nodes", "total_matches",
        "total_applications", "matches_deduped", "growth_curve", "extraction_ands", "extraction_levels",
    ),
    overhead_probes=True,
)

# Both extractors spend ``move_budget`` moves: the delta chain alone, and each
# of the portfolio's ``chains`` chains two rounds of ``migrate_every`` moves
# (the profiles set ``migrate_every = move_budget / (2 * chains)``).
EXTRACTION = Bench(
    name="extraction",
    command="extract-bench",
    summary="one delta-cost SA chain against the island portfolio at an equal move budget",
    variants=(
        (
            "delta",
            "dag2eg; saturate(iters={saturate_iters}, max_nodes={max_nodes}); extract(sa, threads=1, "
            "iters=1, moves={move_budget}, migrate_every={migrate_every}, seed={seed}); "
            "cec(conflict_budget=50000)",
        ),
        (
            "portfolio",
            "dag2eg; saturate(iters={saturate_iters}, max_nodes={max_nodes}); extract(sa, threads={chains}, "
            "iters=2, moves={migrate_every}, migrate_every={migrate_every}, seed={seed}); "
            "cec(conflict_budget=50000)",
        ),
    ),
    fast=Profile(
        "test",
        LARGEST_CIRCUITS,
        {"move_budget": 48, "chains": 4, "migrate_every": 6, "seed": 7, "saturate_iters": 3, "max_nodes": 8_000},
    ),
    full=Profile(
        "bench",
        LARGEST_CIRCUITS,
        {"move_budget": 64, "chains": 4, "migrate_every": 8, "seed": 7, "saturate_iters": 4, "max_nodes": 50_000},
    ),
    timed=("extract",),
    counts=(
        "cost", "initial_cost", "moves", "accepted", "evals", "mean_cone", "chains", "migrations",
        "extraction_ands",
    ),
)

PARTITION = Bench(
    name="partition",
    command="partition-bench",
    summary="monolithic saturation against partition-and-conquer at equal limits",
    variants=(
        ("monolithic", "dag2eg; saturate(iters={iters}, max_nodes={max_nodes}, time_limit={budget})"),
        (
            "partitioned",
            "partition(k={k}, method={method}, seed={seed}, workers={workers}); "
            "saturate(iters={iters}, max_nodes={max_nodes}, time_limit={budget}); stitch",
        ),
    ),
    # At the fast profile's node cap the monolithic run trips the cap, while
    # every window completes.
    fast=Profile(
        "test",
        ("log2",),
        {"iters": 3, "max_nodes": 4_000, "budget": 120.0, "k": 40, "method": "cone", "seed": 0, "workers": 2},
    ),
    full=Profile(
        "large",
        ("log2", "sin"),
        {
            "iters": 2, "max_nodes": 20_000, "budget": 300.0, "k": 120, "method": "cone", "seed": 0,
            "workers": os.cpu_count() or 1,
        },
    ),
    timed=("dag2eg", "saturate", "partition", "stitch"),
    counts=(
        "num_windows", "ands_before", "ands_after", "levels_before", "levels_after", "accepted_windows",
        "reverted_windows", "failed_windows", "status_counts", "window_sizes", "final_cec", "completed",
        "stop_reason", "iterations", "final_nodes",
    ),
    gap=("partitioned", "monolithic"),
)

#: Every layer bench, by name.
BENCHES: Dict[str, Bench] = {bench.name: bench for bench in (SATURATION, EXTRACTION, PARTITION)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else float("inf")


def _wall_time(bench: Bench, result: PipelineResult) -> float:
    return sum(seconds for name, seconds in result.pass_runtimes if name in bench.timed)


def _record(bench: Bench, limits: Mapping[str, object], result: PipelineResult) -> Dict[str, object]:
    """One run's payload record, read off its pipeline result."""
    record: Dict[str, object] = {
        "wall_time": _wall_time(bench, result),
        "pass_runtimes": [[name, seconds] for name, seconds in result.pass_runtimes],
    }
    saturation = result.rewrite_report
    if saturation is not None:
        record.update(
            stop_reason=saturation.stop_reason,
            iterations=saturation.num_iterations,
            final_classes=saturation.final_classes,
            final_nodes=saturation.final_nodes,
            total_matches=saturation.total_matches,
            total_applications=saturation.total_applications,
            matches_deduped=sum(it.matches_deduped for it in saturation.iterations),
            search_time=saturation.search_time(),
            apply_time=saturation.apply_time(),
            rebuild_time=saturation.rebuild_time(),
            growth_curve=saturation.growth_curve(),
        )
    extraction = result.extraction_profile
    if extraction is not None:
        record.update(
            cost=extraction.best_cost,
            initial_cost=extraction.initial_cost,
            moves=extraction.total_moves,
            accepted=extraction.total_accepted,
            evals=extraction.total_evals,
            mean_cone=extraction.mean_cone(),
            chains=extraction.num_chains,
            migrations=len(extraction.migrations),
        )
    partition = result.partition_profile
    if partition is not None:
        data = partition.to_dict()
        del data["windows"], data["wall_time"]  # the run's wall time is its timed passes'
        record.update(data, extraction_cec=partition.final_cec)
    if result.equivalence is not None:
        record.update(
            extraction_cec=result.equivalence.status,
            extraction_ands=result.aig.num_ands,
            extraction_levels=result.levels,
        )
    if bench.gap is not None:
        record["completed"] = _completed(result, record, float(limits["budget"]))
    return record


def _completed(result: PipelineResult, record: Dict[str, object], budget: float) -> bool:
    """Every saturation the run made stopped healthily, no window failed, its
    CEC (when it ran one) found the circuits equivalent, and it fit ``budget``."""
    stops = []
    if result.rewrite_report is not None:
        stops.append(result.rewrite_report.stop_reason)
    partition = result.partition_profile
    if partition is not None:
        if partition.failed_windows:
            return False
        stops += [w.saturation_stop for w in partition.windows if w.status != "failed"]
    return (
        all(stop in HEALTHY_STOPS for stop in stops)
        and record.get("extraction_cec", "equivalent") == "equivalent"
        and float(record["wall_time"]) <= budget
    )


def _overhead_probes(bench: Bench, pipeline: Pipeline, aig, wall_time: float) -> Dict[str, object]:
    """The pipeline's timed passes re-run under a provenance recorder and
    under a resource sampler; ``overhead_vs_engine`` divides each by
    ``wall_time``, the unobserved run's.  Additive keys, never gated."""
    from repro.obs import provenance as obs_provenance
    from repro.obs import resource as obs_resource

    last = max(i for i, step in enumerate(pipeline.steps) if step.pass_name in bench.timed)
    timed = Pipeline(pipeline.steps[: last + 1])
    with obs_provenance.recording() as log:
        wall = _wall_time(bench, timed.run_flow(aig))
    provenance = {
        "wall_time": wall,
        "nodes_recorded": len(log.nodes),
        "merges_recorded": len(log.merges),
        "overhead_vs_engine": _ratio(wall, wall_time),
    }
    with obs_resource.sampling():
        result = timed.run_flow(aig)
    wall = _wall_time(bench, result)
    # The probe run's own sample: the timed passes saturate once.
    aggregate = obs_resource.aggregate_samples([result.resource] if result.resource else []) or {}
    resource = {
        "wall_time": wall,
        "samples": aggregate.get("samples", 0),
        "peak_rss_bytes": aggregate.get("peak_rss_bytes", 0),
        "adds": aggregate.get("adds", 0),
        "unions": aggregate.get("unions", 0),
        "overhead_vs_engine": _ratio(wall, wall_time),
    }
    return {"provenance": provenance, "resource": resource}


def run_bench(
    bench: Bench,
    circuits: Optional[Sequence[str]] = None,
    fast: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run every variant on every circuit; returns the bench payload.

    ``circuits`` defaults to the profile's; ``progress`` is an optional
    ``fn(message)`` callback for CLI feedback.
    """
    profile = bench.profile(fast)
    pipelines = {variant: Pipeline.from_script(script) for variant, script in bench.scripts(fast).items()}
    baseline, last = bench.variants[0][0], bench.variants[-1][0]
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "bench": bench.name,
        "preset": profile.preset,
        "fast": fast,
        "limits": dict(profile.limits),
        "circuits": {},
    }
    speedups: Dict[str, List[float]] = {variant: [] for variant in pipelines if variant != baseline}
    for name in circuits or profile.circuits:
        aig = epfl.build(name, preset=profile.preset)
        runs: Dict[str, Dict[str, object]] = {}
        for variant, pipeline in pipelines.items():
            if progress:
                progress(f"{name}: {variant} ...")
            runs[variant] = _record(bench, profile.limits, pipeline.run_flow(aig))
        entry: Dict[str, object] = {"stats": aig.stats(), "runs": runs, "speedup": {}}
        for variant, ratios in speedups.items():
            ratio = _ratio(runs[baseline]["wall_time"], runs[variant]["wall_time"])
            entry["speedup"][variant] = ratio
            ratios.append(ratio)
        if bench.overhead_probes:
            if progress:
                progress(f"{name}: observer overhead ...")
            entry.update(_overhead_probes(bench, pipelines[last], aig, runs[last]["wall_time"]))
        payload["circuits"][name] = entry
    summary: Dict[str, object] = {
        "circuits": len(payload["circuits"]),
        "geomean_speedup": {
            variant: math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
            for variant, ratios in speedups.items()
        },
    }
    if bench.gap is not None:
        summary["completed"] = {
            variant: sum(bool(entry["runs"][variant]["completed"]) for entry in payload["circuits"].values())
            for variant in pipelines
        }
    payload["summary"] = summary
    return payload


def _render_value(value: object) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def render_bench(bench: Bench, payload: Dict[str, object]) -> str:
    """Human-readable table of a payload: wall time, speedup, CEC verdict and
    the run's scalar gated counts."""
    limits = ", ".join(f"{key}={value}" for key, value in payload["limits"].items())
    lines = [
        f"{bench.name} bench (preset={payload['preset']}, {limits})",
        f"{'circuit':12s} {'variant':12s} {'wall (s)':>9s} {'speedup':>8s} {'cec':>12s}  gated counts",
    ]
    for name, entry in payload["circuits"].items():
        for variant, run in entry["runs"].items():
            speedup = entry["speedup"].get(variant)
            counts = " ".join(
                f"{field}={_render_value(run[field])}"
                for field in bench.counts
                if field in run and isinstance(run[field], (str, int, float))
            )
            lines.append(
                f"{name:12s} {variant:12s} {run['wall_time']:9.2f} "
                f"{f'{speedup:7.2f}x' if speedup is not None else '':>8s} "
                f"{run.get('extraction_cec') or '-':>12s}  {counts}"
            )
        for probe in ("provenance", "resource"):
            if probe in entry:
                lines.append(
                    f"{name:12s} {probe} overhead: {entry[probe]['wall_time']:.2f}s "
                    f"({entry[probe]['overhead_vs_engine']:.2f}x the unobserved run)"
                )
    summary = payload["summary"]
    if summary["geomean_speedup"]:
        rendered = ", ".join(f"{k} {v:.2f}x" for k, v in summary["geomean_speedup"].items())
        lines.append(f"geomean speedup vs {bench.variants[0][0]}: {rendered}")
    if "completed" in summary:
        rendered = ", ".join(f"{k} {v}/{summary['circuits']}" for k, v in summary["completed"].items())
        lines.append(f"completed at equal limits: {rendered}")
    return "\n".join(lines)


def check_regressions(
    payload: Dict[str, object],
    reference: Dict[str, object],
    max_ratio: float = 2.0,
    counts: Sequence[str] = (),
) -> List[str]:
    """Compare a bench payload against a committed reference.

    Returns failure messages; an empty list means no regression.  A
    (circuit, variant) run fails when its wall time exceeds ``max_ratio``
    times the reference's, when its reference CEC verdict was
    ``equivalent`` and it is now ``counterexample``, or, when both payloads
    ran the same preset and limits, when a ``counts`` field both runs carry
    differs.  Runs on only one side are skipped (a reference may predate a
    variant), but a payload none of whose runs is in the reference fails:
    such a gate would compare nothing.
    """
    failures: List[str] = []
    compared = 0
    same_config = all(payload.get(key) == reference.get(key) for key in ("preset", "limits"))
    for name, ref_entry in reference.get("circuits", {}).items():
        cur_entry = payload.get("circuits", {}).get(name)
        if cur_entry is None:
            continue
        for variant, ref_run in ref_entry.get("runs", {}).items():
            cur_run = cur_entry.get("runs", {}).get(variant)
            if cur_run is None:
                continue
            compared += 1
            ref_wall = float(ref_run["wall_time"])
            cur_wall = float(cur_run["wall_time"])
            if ref_wall > 0 and cur_wall > max_ratio * ref_wall:
                failures.append(
                    f"{name}/{variant}: {cur_wall:.2f}s vs reference {ref_wall:.2f}s "
                    f"(>{max_ratio:.1f}x)"
                )
            if ref_run.get("extraction_cec") == "equivalent" and (
                cur_run.get("extraction_cec") == "counterexample"
            ):
                failures.append(f"{name}/{variant}: extraction no longer equivalent")
            for field in counts if same_config else ():
                if field in ref_run and field in cur_run and cur_run[field] != ref_run[field]:
                    failures.append(
                        f"{name}/{variant}: {field} {cur_run[field]!r} vs reference {ref_run[field]!r}"
                    )
    if not compared:
        failures.append(
            "compared nothing: no circuit/variant run of the payload is in the reference "
            f"(its circuits: {', '.join(reference.get('circuits', {})) or 'none'})"
        )
    return failures


def check_completions(bench: Bench, payload: Dict[str, object]) -> List[str]:
    """The capability gate of a bench with a ``gap``.

    Fails if the gap's first variant did not complete on some circuit, or if
    its second variant completed on every circuit (the bench then no longer
    shows the gap the first variant exists to close).  Benches without a
    gap pass.
    """
    if bench.gap is None:
        return []
    completes, fails = bench.gap
    circuits = payload.get("circuits", {})
    failures = [
        f"{name}: {completes} run did not complete"
        for name, entry in circuits.items()
        if not entry["runs"][completes]["completed"]
    ]
    if circuits and all(entry["runs"][fails]["completed"] for entry in circuits.values()):
        failures.append(f"{fails} run completed every circuit: the bench shows no gap")
    return failures


def ledger_record(bench: Bench, payload: Dict[str, object]) -> Dict[str, object]:
    """One run-ledger record of a bench invocation (kind ``"bench"``): the
    summed run wall times as its runtime, plus the payload's summary."""
    from repro.obs import flow_record

    circuits = payload.get("circuits") or {}
    walls = [float(run["wall_time"]) for entry in circuits.values() for run in entry["runs"].values()]
    return flow_record(
        "bench",
        script=bench.command,
        config={"script": bench.command, "limits": payload.get("limits"), "fast": payload.get("fast")},
        runtime=sum(walls) if walls else None,
        extra={"bench": bench.command, "summary": payload.get("summary"), "circuits": sorted(circuits)},
    )
