"""One pass of one workload in a fresh process.

    python bench/worker.py WORKLOAD SEED MODE

Set-up (importing the program, building the workload's circuits and the
default cell library) is timed from the first line of ``main``, so
``setup_s`` includes the imports.  Then every circuit of the workload goes
through the workload's flow once, timed from outside the entry-point call,
and the mapped netlist is checked against the input AIG by ``simcheck``
(outside the timed region).  MODE is one of:

* ``plain``: nothing installed; the end-to-end numbers come from here;
* ``traced``: the benchmark's own span around every pass, through
  ``Pipeline.run(on_pass_start=, on_pass_end=)``, plus the sub-pass numbers
  the public result profiles carry; the per-layer numbers come from here;
* ``observers``: the program's four observers installed (tracer, provenance
  recorder, resource sampler, a fresh metrics registry), to price them.

The worker writes one JSON object per line to stdout: a ``setup`` record, one
``flow`` record per circuit as it finishes (so a parent that has to kill a
hung pass still knows which flows ended), and an ``end`` record.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from simcheck import check_netlist
from workloads import PRESET, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

MODES = ("plain", "traced", "observers")

#: Passes that rewrite the AIG before it enters the e-graph.
OPT_PASSES = frozenset(
    ("strash", "balance", "rewrite", "refactor", "sop_balance", "resyn2", "delay_opt", "cleanup")
)
LAYER_OF_PASS = {
    "dag2eg": "conversion",
    "saturate": "engine",
    "extract": "extraction",
    "premap": "mapping",
    "map": "mapping",
    "cec": "verify",
    "partition": "partition",
    "stitch": "partition",
}

#: Per-layer metrics of a traced pass, with their units.  Times and counts
#: are summed over the workload's circuits; shares are ratios of those sums.
LAYER_UNITS: Dict[str, str] = {
    "opt.s": "s",
    "conversion.dag2eg_s": "s",
    "conversion.eg2dag_s": "s",
    "engine.saturate_s": "s",
    "engine.search_s": "s",
    "engine.apply_s": "s",
    "engine.rebuild_s": "s",
    "engine.iterations": "count",
    "engine.nodes": "count",
    "engine.classes": "count",
    "engine.matches": "count",
    "engine.applications": "count",
    "engine.apply_per_match": "ratio",
    "engine.nodes_per_s": "1/s",
    "extraction.s": "s",
    "extraction.portfolio_s": "s",
    "extraction.moves": "count",
    "extraction.moves_per_s": "1/s",
    "extraction.accept_share": "ratio",
    "extraction.candidates": "count",
    "extraction.distinct_share": "ratio",
    "mapping.premap_s": "s",
    "mapping.map_s": "s",
    "mapping.map_s_per_candidate": "s",
    "verify.cec_s": "s",
    "verify.cec_conflicts": "count",
    "verify.unknown": "count",
    "partition.plan_s": "s",
    "partition.stitch_s": "s",
    "partition.windows_s": "s",
    "partition.final_cec_s": "s",
    "partition.windows": "count",
    "partition.window_nodes": "count",
    "partition.accepted_share": "ratio",
    "partition.pool_busy_share": "ratio",
    "pipeline.overhead_s": "s",
    "aig.ands_out": "count",
    "aig.levels_out": "count",
    "check.s": "s",
}


def emit(record: Dict[str, object]) -> None:
    """One JSON record per stdout line, flushed so a killed pass keeps it."""
    print(json.dumps(record), flush=True)


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def aig_depth(aig) -> int:
    """Longest PI-to-PO path in AND nodes."""
    depth = [0] * len(aig.nodes)
    for node in aig.nodes:
        if node.kind == "and":
            depth[node.var] = 1 + max(depth[node.fanin0 >> 1], depth[node.fanin1 >> 1])
    return max((depth[lit >> 1] for lit, _ in aig.pos), default=0)


class PassTracer:
    """Spans around every pass of one flow, kept in memory.

    Each span records name, layer, start, end (seconds since the worker
    started), the flow span that caused it and the flow id.  It also notes
    the two numbers only visible between passes: how many candidates the
    ``map`` pass received and how many distinct ones ``extract`` produced.
    """

    def __init__(self, origin: float, flow_id: int, circuit: str) -> None:
        self.origin = origin
        self.flow_id = flow_id
        self.spans: List[Dict[str, object]] = []
        self.flow_span = {"id": f"{flow_id}", "name": circuit, "layer": "flow",
                          "start": 0.0, "end": 0.0, "parent": None, "flow": flow_id}
        self.mapped_candidates = 0
        self.candidates = 0
        self._start = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def on_pass_start(self, name: str, ctx) -> None:
        if name == "map":
            self.mapped_candidates += max(1, len(ctx.candidates))
        self._start = self.now()

    def on_pass_end(self, name: str, ctx, seconds: float) -> None:
        if name == "extract":
            self.candidates += int(ctx.metrics.get("num_candidates", 0))
        self.spans.append({
            "id": f"{self.flow_id}.{len(self.spans)}",
            "name": name,
            "layer": "opt" if name in OPT_PASSES else LAYER_OF_PASS.get(name, "other"),
            "start": self._start,
            "end": self.now(),
            "parent": self.flow_span["id"],
            "flow": self.flow_id,
        })

    def hooks(self) -> Dict[str, object]:
        return {"on_pass_start": self.on_pass_start, "on_pass_end": self.on_pass_end}

    def pass_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def layer_seconds(self, layer: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["layer"] == layer)


def classify(result, mismatch: Optional[str]) -> Tuple[Optional[str], int]:
    """``(failure reason or None, number of CEC 'unknown' verdicts)``.

    A flow fails when the independent simulation finds a mismatch, when any
    in-flow CEC (final, partition-final or per-window) finds a
    counterexample, or when any saturation stops on its time limit, since
    its result would then depend on machine speed.  ``unknown`` is counted,
    not failed.
    """
    if mismatch is not None:
        return f"simulation mismatch: {mismatch}", 0
    verdicts: List[Tuple[str, Optional[str]]] = []
    stops: List[Tuple[str, Optional[str]]] = []
    equivalence = getattr(result, "equivalence", None)
    if equivalence is not None:
        verdicts.append(("cec", equivalence.status))
    report = getattr(result, "rewrite_report", None)
    if report is not None:
        stops.append(("saturate", report.stop_reason))
    profile = getattr(result, "partition_profile", None)
    if profile is not None:
        verdicts.append(("partition final cec", profile.final_cec))
        for window in profile.windows:
            verdicts.append((f"window {window.index} cec", window.cec))
            stops.append((f"window {window.index} saturate", window.saturation_stop))
    for where, status in verdicts:
        if status == "counterexample":
            return f"{where} returned a counterexample", 0
    for where, stop in stops:
        if stop == "time_limit":
            return f"{where} stopped on its time limit", 0
    return None, sum(1 for _, status in verdicts if status == "unknown")


def layer_numbers(result, tracer: PassTracer, record: Dict[str, object]) -> Dict[str, float]:
    """Raw numbers of one traced flow, read from the pass spans, the flow
    ``record`` and the result's public profiles; ``derive_layers`` turns
    their sums over a pass into the per-layer metrics."""
    numbers: Dict[str, float] = dict(
        opt_s=tracer.layer_seconds("opt"),
        dag2eg_s=tracer.pass_seconds("dag2eg"),
        extract_s=tracer.pass_seconds("extract"),
        saturate_s=tracer.pass_seconds("saturate"),
        premap_s=tracer.pass_seconds("premap"),
        map_s=tracer.pass_seconds("map"),
        mapped=tracer.mapped_candidates,
        candidates=tracer.candidates,
        cec_s=tracer.pass_seconds("cec"),
        plan_s=tracer.pass_seconds("partition"),
        stitch_s=tracer.pass_seconds("stitch"),
        flow_s=record["wall_s"],
        pass_s=sum(s["end"] - s["start"] for s in tracer.spans),
        ands_out=record["ands_out"],
        levels_out=record["levels_out"],
        check_s=record["check_s"],
        unknown=record["unknown"],
    )
    report = getattr(result, "rewrite_report", None)
    if report is not None:
        numbers.update(
            search_s=report.search_time(),
            apply_s=report.apply_time(),
            rebuild_s=report.rebuild_time(),
            iterations=report.num_iterations,
            nodes=report.final_nodes,
            classes=report.final_classes,
            matches=report.total_matches,
            applications=report.total_applications,
        )
    extraction = getattr(result, "extraction_profile", None)
    if extraction is not None:
        numbers.update(
            portfolio_s=extraction.wall_time,
            eg2dag_s=numbers["extract_s"] - extraction.wall_time,
            moves=extraction.total_moves,
            accepted=extraction.total_accepted,
            chains=extraction.num_chains,
        )
    equivalence = getattr(result, "equivalence", None)
    if equivalence is not None:
        numbers["cec_conflicts"] = equivalence.conflicts
    partition = getattr(result, "partition_profile", None)
    if partition is not None:
        numbers.update(
            windows_s=partition.optimize_time,
            final_cec_s=(partition.wall_time - partition.partition_time
                         - partition.optimize_time - partition.stitch_time),
            windows=partition.num_windows,
            window_nodes=sum(w.egraph_nodes for w in partition.windows),
            accepted_windows=partition.accepted_windows,
            window_busy_s=sum(w.wall_time for w in partition.windows),
            pool_capacity_s=partition.optimize_time * max(1, partition.workers),
        )
    return numbers


def derive_layers(raw: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics (``LAYER_UNITS`` names) from raw numbers summed over
    flows; a number no flow produced reads 0."""

    def ratio(numerator: str, denominator: str) -> float:
        return raw[numerator] / raw[denominator] if raw[denominator] else 0.0

    return {
        "opt.s": raw["opt_s"],
        "conversion.dag2eg_s": raw["dag2eg_s"],
        "conversion.eg2dag_s": raw["eg2dag_s"],
        "engine.saturate_s": raw["saturate_s"],
        "engine.search_s": raw["search_s"],
        "engine.apply_s": raw["apply_s"],
        "engine.rebuild_s": raw["rebuild_s"],
        "engine.iterations": raw["iterations"],
        "engine.nodes": raw["nodes"],
        "engine.classes": raw["classes"],
        "engine.matches": raw["matches"],
        "engine.applications": raw["applications"],
        "engine.apply_per_match": ratio("applications", "matches"),
        "engine.nodes_per_s": ratio("nodes", "saturate_s"),
        "extraction.s": raw["extract_s"],
        "extraction.portfolio_s": raw["portfolio_s"],
        "extraction.moves": raw["moves"],
        "extraction.moves_per_s": ratio("moves", "portfolio_s"),
        "extraction.accept_share": ratio("accepted", "moves"),
        "extraction.candidates": raw["candidates"],
        "extraction.distinct_share": ratio("candidates", "chains"),
        "mapping.premap_s": raw["premap_s"],
        "mapping.map_s": raw["map_s"],
        "mapping.map_s_per_candidate": ratio("map_s", "mapped"),
        "verify.cec_s": raw["cec_s"],
        "verify.cec_conflicts": raw["cec_conflicts"],
        "verify.unknown": raw["unknown"],
        "partition.plan_s": raw["plan_s"],
        "partition.stitch_s": raw["stitch_s"],
        "partition.windows_s": raw["windows_s"],
        "partition.final_cec_s": raw["final_cec_s"],
        "partition.windows": raw["windows"],
        "partition.window_nodes": raw["window_nodes"],
        "partition.accepted_share": ratio("accepted_windows", "windows"),
        "partition.pool_busy_share": ratio("window_busy_s", "pool_capacity_s"),
        "pipeline.overhead_s": raw["flow_s"] - raw["pass_s"],
        "aig.ands_out": raw["ands_out"],
        "aig.levels_out": raw["levels_out"],
        "check.s": raw["check_s"],
    }


def main(argv: List[str]) -> int:
    origin = time.perf_counter()
    if len(argv) != 3 or argv[0] not in WORKLOADS or not argv[1].isdigit() or argv[2] not in MODES:
        print(f"usage: worker.py {{{'|'.join(WORKLOADS)}}} SEED {{{'|'.join(MODES)}}}", file=sys.stderr)
        return 2
    workload, seed, mode = WORKLOADS[argv[0]], int(argv[1]), argv[2]

    sys.path.insert(0, str(SRC))
    from repro import obs
    from repro.benchgen import build
    from repro.flows.emorphic import EmorphicConfig, emorphic_pipeline, run_emorphic_flow
    from repro.mapping.library import default_library
    from repro.pipeline import Pipeline

    circuits = {circuit: build(circuit, preset=PRESET) for circuit in workload.circuits}
    library = default_library()
    emit({"kind": "setup", "setup_s": time.perf_counter() - origin})

    def run_flow(aig, hooks=None):
        """The public entry point a user would call for this workload."""
        if workload.script is None:
            config = EmorphicConfig(**workload.config_for(seed))
            if hooks is not None:
                # The same pipeline run_emorphic_flow runs, with pass hooks.
                return emorphic_pipeline(config).run(aig, library=library, **hooks)
            return run_emorphic_flow(aig, config, library=library)
        pipeline = Pipeline.from_script(workload.script_for(seed))
        return pipeline.run_flow(aig, library=library, **(hooks or {}))

    raw: Dict[str, float] = defaultdict(float)
    for flow_id, (circuit, aig) in enumerate(circuits.items()):
        tracer = PassTracer(origin, flow_id, circuit) if mode == "traced" else None
        record: Dict[str, object] = {"kind": "flow", "circuit": circuit}
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        failure = "the flow produced no mapped netlist"
        try:
            if mode == "observers":
                with obs.tracing(), obs.recording(), obs.sampling():
                    obs.reset_registry()
                    result = run_flow(aig)
            else:
                result = run_flow(aig, tracer.hooks() if tracer is not None else None)
        except Exception as error:  # one failed flow must not hide the others
            traceback.print_exc()
            result, failure = None, f"raised {type(error).__name__}: {error}"
        end = time.perf_counter()
        record.update(wall_s=end - start, cpu_s=cpu_seconds() - cpu_start)
        mapping = getattr(result, "mapping", None)
        if mapping is None:
            record.update(ok=False, reason=failure)
            emit(record)
            continue

        check_start = time.perf_counter()
        mismatch = check_netlist(aig, mapping.netlist, seed)
        check_s = time.perf_counter() - check_start
        reason, unknown = classify(result, mismatch)
        record.update(
            ok=reason is None,
            reason=reason,
            unknown=unknown,
            check_s=check_s,
            delay=mapping.delay,
            area=mapping.area,
            ands_out=result.aig.num_ands,
            levels_out=aig_depth(result.aig),
        )
        if tracer is not None:
            tracer.flow_span.update(start=start - origin, end=end - origin)
            for key, value in layer_numbers(result, tracer, record).items():
                raw[key] += value
            record["spans"] = [tracer.flow_span] + tracer.spans
        emit(record)

    end_record: Dict[str, object] = {"kind": "end", "peak_rss_mb": peak_rss_mb()}
    if mode == "traced":
        end_record["layers"] = derive_layers(raw)
    emit(end_record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
