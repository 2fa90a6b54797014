"""The saturation benchmark: the engine's two schedules, wall-clock and QoR.

``run_saturation_bench`` saturates benchgen circuits under two engine
configurations, both on the one (batched) e-matcher —

* ``simple``  — SimpleScheduler, no dedup: byte-for-byte the pre-engine
  runner loop;
* ``backoff`` — BackoffScheduler + cross-iteration match dedup: the default
  saturation configuration;

— then greedy-extracts a circuit from each saturated e-graph and checks it
for combinational equivalence against the input, so the speedup numbers are
guarded by correctness.  Matcher parity with the per-pattern reference is
pinned by the test suite, not re-measured here.  The payload is what
``emorphic saturate-bench`` writes to ``BENCH_saturation.json`` (the repo's
perf trajectory) and what CI compares against the checked-in reference via
:func:`check_regressions`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.aig.levels import logic_depth
from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.rules import boolean_rules
from repro.engine.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import DepthCost
from repro.extraction.greedy import greedy_extract
from repro.obs import trace as obs
from repro.obs.export import span_summary

BENCH_SCHEMA = 1

#: The largest benchgen circuits (by AND count under the ``bench`` preset).
DEFAULT_CIRCUITS = ("log2", "sin", "multiplier", "hyp")


@dataclass(frozen=True)
class BenchVariant:
    """One engine configuration exercised by the bench."""

    name: str
    scheduler: str
    dedup: bool


VARIANTS = (
    BenchVariant("simple", scheduler="simple", dedup=False),
    BenchVariant("backoff", scheduler="backoff", dedup=True),
)

#: The variant speedups are measured against (the legacy runner's loop).
BASELINE_VARIANT = VARIANTS[0]
#: The default saturation configuration; the observer probes re-run it.
DEFAULT_VARIANT = VARIANTS[-1]


def _engine(egraph, variant: BenchVariant, limits: EngineLimits) -> SaturationEngine:
    return SaturationEngine(
        egraph,
        boolean_rules(),
        limits,
        scheduler=variant.scheduler,
        dedup_matches=variant.dedup,
    )


def _bench_one(
    aig,
    variant: BenchVariant,
    limits: EngineLimits,
    check_cec: bool,
    conflict_budget: int,
) -> Dict[str, object]:
    circuit = aig_to_egraph(aig)
    start = time.perf_counter()
    # The run's own tracer: the per-phase digest lands in the payload under
    # the additive "span_summary" key (the gate only reads the legacy fields).
    with obs.tracing() as tracer:
        profile = _engine(circuit.egraph, variant, limits).run()
    wall_time = time.perf_counter() - start
    record: Dict[str, object] = {
        "wall_time": wall_time,
        "span_summary": span_summary(tracer),
        "stop_reason": profile.stop_reason,
        "iterations": profile.num_iterations,
        "final_classes": profile.final_classes,
        "final_nodes": profile.final_nodes,
        "total_matches": profile.total_matches,
        "total_applications": profile.total_applications,
        "matches_deduped": sum(it.matches_deduped for it in profile.iterations),
        "search_time": profile.search_time(),
        "apply_time": profile.apply_time(),
        "rebuild_time": profile.rebuild_time(),
        "growth_curve": profile.growth_curve(),
    }
    if check_cec:
        from repro.verify.cec import check_equivalence

        extraction = greedy_extract(circuit.egraph, cost=DepthCost())
        extracted = extraction_to_aig(circuit, extraction, name=f"{aig.name}_sat").strash()
        cec = check_equivalence(aig, extracted, conflict_budget=conflict_budget)
        record["extraction_cec"] = cec.status
        record["extraction_ands"] = extracted.stats()["ands"]
        record["extraction_levels"] = logic_depth(extracted)
    return record


def _bench_provenance(aig, limits: EngineLimits) -> Dict[str, object]:
    """Recording-on overhead probe: the default ``backoff`` variant re-run
    under a provenance recorder.  Lands in the payload as the additive
    per-circuit ``"provenance"`` key — the regression gate reads only the
    per-variant ``runs``, so this documents the cost without gating on it."""
    from repro.obs import provenance as obs_provenance

    circuit = aig_to_egraph(aig)
    start = time.perf_counter()
    with obs_provenance.recording() as log:
        _engine(circuit.egraph, DEFAULT_VARIANT, limits).run()
    wall_time = time.perf_counter() - start
    return {
        "wall_time": wall_time,
        "nodes_recorded": len(log.nodes),
        "merges_recorded": len(log.merges),
    }


def _bench_resource(aig, limits: EngineLimits) -> Dict[str, object]:
    """Sampling-on overhead probe: the default ``backoff`` variant re-run
    under a resource sampler.  Lands in the payload as the additive
    per-circuit ``"resource"`` key — the regression gate reads only the
    per-variant ``runs``, so this documents the measured overhead without
    gating on it."""
    from repro.obs import resource as obs_resource

    circuit = aig_to_egraph(aig)
    start = time.perf_counter()
    with obs_resource.sampling() as sampler:
        _engine(circuit.egraph, DEFAULT_VARIANT, limits).run()
    wall_time = time.perf_counter() - start
    aggregate = obs_resource.aggregate_samples(sampler.export()) or {}
    return {
        "wall_time": wall_time,
        "samples": len(sampler.samples),
        "peak_rss_bytes": aggregate.get("peak_rss_bytes", 0),
        "adds": aggregate.get("adds", 0),
        "unions": aggregate.get("unions", 0),
    }


def run_saturation_bench(
    circuits: Optional[Sequence[str]] = None,
    preset: str = "bench",
    fast: bool = False,
    iters: Optional[int] = None,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
    check_cec: bool = True,
    conflict_budget: int = 50_000,
    progress=None,
) -> Dict[str, object]:
    """Run the bench; returns the ``BENCH_saturation.json`` payload.

    ``fast`` shrinks everything (test-preset circuits, fewer iterations,
    small node budget) to CI scale; explicit ``iters``/``max_nodes``/
    ``time_limit`` win over both profiles.  ``progress`` is an optional
    ``fn(message)`` callback for CLI feedback.
    """
    if fast:
        preset = "test"
        limits = EngineLimits(
            max_iterations=iters or 3,
            max_nodes=max_nodes or 8_000,
            time_limit=time_limit or 30.0,
        )
    else:
        limits = EngineLimits(
            max_iterations=iters or 4,
            max_nodes=max_nodes or 150_000,
            time_limit=time_limit or 120.0,
        )
    names = list(circuits) if circuits else list(DEFAULT_CIRCUITS)
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "preset": preset,
        "fast": fast,
        "limits": {
            "iters": limits.max_iterations,
            "max_nodes": limits.max_nodes,
            "time_limit": limits.time_limit,
            "match_limit_per_rule": limits.match_limit_per_rule,
        },
        "circuits": {},
    }
    speedups: Dict[str, List[float]] = {
        v.name: [] for v in VARIANTS if v is not BASELINE_VARIANT
    }
    for name in names:
        aig = epfl.build(name, preset=preset)
        entry: Dict[str, object] = {"stats": aig.stats(), "runs": {}}
        for variant in VARIANTS:
            if progress:
                progress(f"{name}: {variant.name} ...")
            entry["runs"][variant.name] = _bench_one(
                aig, variant, limits, check_cec=check_cec, conflict_budget=conflict_budget
            )
        default_wall = entry["runs"][DEFAULT_VARIANT.name]["wall_time"]
        if progress:
            progress(f"{name}: provenance overhead ...")
        prov = _bench_provenance(aig, limits)
        prov["overhead_vs_engine"] = (
            prov["wall_time"] / default_wall if default_wall > 0 else float("inf")
        )
        entry["provenance"] = prov
        if progress:
            progress(f"{name}: resource-sampling overhead ...")
        res = _bench_resource(aig, limits)
        res["overhead_vs_engine"] = (
            res["wall_time"] / default_wall if default_wall > 0 else float("inf")
        )
        entry["resource"] = res
        baseline_wall = entry["runs"][BASELINE_VARIANT.name]["wall_time"]
        entry["speedup"] = {}
        for variant_name in speedups:
            wall = entry["runs"][variant_name]["wall_time"]
            ratio = baseline_wall / wall if wall > 0 else float("inf")
            entry["speedup"][variant_name] = ratio
            speedups[variant_name].append(ratio)
        payload["circuits"][name] = entry
    payload["summary"] = {
        "geomean_speedup": {
            variant: math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
            for variant, ratios in speedups.items()
        },
    }
    return payload


def render_bench(payload: Dict[str, object]) -> str:
    """Human-readable table of a bench payload."""
    lines = [
        f"saturation bench (preset={payload['preset']}, iters={payload['limits']['iters']}, "
        f"max_nodes={payload['limits']['max_nodes']})",
        f"{'circuit':12s} {'variant':8s} {'wall (s)':>9s} {'nodes':>8s} {'matches':>9s} "
        f"{'stop':>15s} {'cec':>12s} {'speedup':>8s}",
    ]
    for name, entry in payload["circuits"].items():
        for variant, run in entry["runs"].items():
            speedup = entry.get("speedup", {}).get(variant)
            speedup_text = f"{speedup:7.2f}x" if speedup is not None else f"{'':>8s}"
            lines.append(
                f"{name:12s} {variant:8s} {run['wall_time']:9.2f} {run['final_nodes']:8d} "
                f"{run['total_matches']:9d} {run['stop_reason']:>15s} "
                f"{run.get('extraction_cec', '-'):>12s} {speedup_text}"
            )
        prov = entry.get("provenance")
        if prov:
            lines.append(
                f"{name:12s} provenance recording: {prov['wall_time']:.2f}s "
                f"({prov['overhead_vs_engine']:.2f}x engine, "
                f"{prov['nodes_recorded']} nodes, {prov['merges_recorded']} merges)"
            )
        res = entry.get("resource")
        if res:
            lines.append(
                f"{name:12s} resource sampling: {res['wall_time']:.2f}s "
                f"({res['overhead_vs_engine']:.2f}x engine, "
                f"peak RSS {res['peak_rss_bytes'] / (1024 * 1024):.1f} MiB)"
            )
    geomeans = payload.get("summary", {}).get("geomean_speedup", {})
    if geomeans:
        rendered = ", ".join(f"{k} {v:.2f}x" for k, v in geomeans.items())
        lines.append(f"geomean speedup vs {BASELINE_VARIANT.name}: {rendered}")
    return "\n".join(lines)


#: The saturation bench's deterministic per-run fields.  Saturation and
#: greedy extraction are pure functions of the circuit and the limits, so any
#: move in these is a behaviour change, never noise.
COUNT_FIELDS = (
    "stop_reason",
    "iterations",
    "final_classes",
    "final_nodes",
    "total_matches",
    "total_applications",
    "matches_deduped",
    "growth_curve",
    "extraction_ands",
    "extraction_levels",
)


def check_regressions(
    payload: Dict[str, object],
    reference: Dict[str, object],
    max_ratio: float = 2.0,
    counts: Sequence[str] = (),
) -> List[str]:
    """Compare a bench payload against a checked-in reference.

    Returns failure messages for every (circuit, variant) whose wall-clock
    exceeds ``max_ratio`` times the reference — an empty list means no
    regression.  Circuits or variants missing from either side are skipped
    (the reference may be older than the bench set).  An extraction that
    was CEC-equivalent in the reference and is a counterexample now always
    fails, independent of timing.  Every field named in ``counts`` (the
    saturation bench passes :data:`COUNT_FIELDS`) that both runs carry must
    also be equal, provided both payloads ran the same preset and limits.
    """
    failures: List[str] = []
    same_config = all(payload.get(key) == reference.get(key) for key in ("preset", "limits"))
    for name, ref_entry in reference.get("circuits", {}).items():
        cur_entry = payload.get("circuits", {}).get(name)
        if cur_entry is None:
            continue
        for variant, ref_run in ref_entry.get("runs", {}).items():
            cur_run = cur_entry.get("runs", {}).get(variant)
            if cur_run is None:
                continue
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
    return failures
