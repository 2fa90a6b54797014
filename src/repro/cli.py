"""Command-line interface: ``emorphic <subcommand>``.

Subcommands:

* ``stats``     — print AIG statistics of a benchmark circuit or AIGER file;
* ``baseline``  — run the delay-oriented baseline flow;
* ``run``       — run the E-morphic flow;
* ``compare``   — run both and print the Table II row for one circuit;
* ``pipeline``  — run an arbitrary scripted pass pipeline
  (``--script "st; sopb; dag2eg; saturate(iters=4); extract(sa); map; cec"``);
* ``trace``     — run a scripted pipeline under a tracer and print the span
  tree (``--out`` writes the Chrome trace-event JSON);
* ``explain``   — run a scripted pipeline under a provenance recorder and
  print the rule-level QoR attribution (which rewrite rules produced the
  nodes that survived into the final circuit), with ``--provenance FILE``
  exporting the derivation log as DOT/JSON;
* ``scripts``   — list the registered pipeline passes;
* ``saturate-bench``, ``extract-bench``, ``partition-bench`` — the layer
  benches of :mod:`repro.pipeline.bench`: run each bench's variant scripts
  on benchgen circuits, write the payload with ``--json`` and gate it with
  ``--reference`` against a checked-in payload;
* ``list``      — list available benchmark circuits with per-preset
  PI/PO/AND/level statistics;
* ``batch``     — run a whole campaign (circuits x flows, or circuits x a
  scripted pipeline via ``--script``) process-parallel with persistent
  result caching;
* ``sweep``     — design-space exploration over config grids, or over flow
  *shapes* with repeated ``--script`` options;
* ``cache``     — inspect or clear the persistent result store;
* ``history``   — query the persistent run ledger (every run/pipeline/batch/
  sweep/bench invocation appends its QoR and runtime), comparing each
  group's latest run (one script on one input) against a rolling median
  baseline; ``--check`` exits non-zero on regression (the CI gate);
* ``report``    — render the run-ledger history as a static HTML report
  (QoR trend sparklines, pass-runtime waterfall, e-graph growth curves,
  rule-yield table).

``run`` and ``pipeline`` accept ``--sample-resources`` to record peak RSS
and per-iteration e-graph growth into the result payload and the ledger.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.aig.graph import Aig
from repro.aig.io_aiger import aag_to_string, read_aag
from repro.benchgen import epfl
from repro.flows.baseline import BaselineConfig, run_baseline_flow
from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow
from repro.obs.log import configure_logging, get_logger

FLOW_VARIANTS = ("baseline", "emorphic", "emorphic_ml")

_LOG = get_logger("cli")


def _load_circuit(args: argparse.Namespace) -> Aig:
    _resolve_circuit(args)
    if args.circuit.endswith(".aag"):
        return read_aag(args.circuit)
    return epfl.build(args.circuit, preset=args.preset)


def _add_circuit_args(parser: argparse.ArgumentParser, positional: bool = True) -> None:
    if positional:
        # The positional spelling and -c are interchangeable (exactly one).
        parser.add_argument(
            "circuit", nargs="?", default=None, help="benchmark name (see 'list') or path to an .aag file"
        )
        parser.add_argument(
            "-c",
            "--circuit",
            dest="circuit_opt",
            default=None,
            help="alternative spelling of the positional circuit argument",
        )
    else:
        parser.add_argument(
            "-c", "--circuit", required=True, help="benchmark name (see 'list') or path to an .aag file"
        )
    parser.add_argument(
        "--preset", default="test", choices=list(epfl.PRESETS), help="benchmark size preset"
    )


def _resolve_circuit(args: argparse.Namespace) -> None:
    """Fold the ``-c`` alternative into ``args.circuit`` (exactly one form)."""
    opt = getattr(args, "circuit_opt", None)
    if opt is not None:
        if args.circuit is not None:
            raise SystemExit("give the circuit either positionally or with -c, not both")
        args.circuit = opt
    if args.circuit is None:
        raise SystemExit("a circuit is required (positionally or with -c)")


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a span trace and write it to FILE: Chrome trace-event JSON "
        "(load in Perfetto / about:tracing), or folded flamegraph stacks when "
        "FILE ends in .folded",
    )


def _add_provenance_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--provenance",
        default=None,
        metavar="FILE",
        help="record rule provenance during saturation and write the derivation "
        "log to FILE: Graphviz DOT when FILE ends in .dot, JSON otherwise "
        "(flow results then embed the rule attribution)",
    )


def _write_derivation(recorder, path: str) -> None:
    from repro.obs import write_derivation_dot, write_derivation_json

    if path.endswith(".dot"):
        write_derivation_dot(recorder, path)
    else:
        write_derivation_json(recorder, path)
    _LOG.info(f"provenance written to {path}")


def _add_resource_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample-resources",
        action="store_true",
        help="sample peak RSS and per-iteration e-graph growth during the run "
        "(the result payload and the ledger record then embed the resource telemetry)",
    )


@contextmanager
def _observed(args: argparse.Namespace):
    """Install the observers a command's flags ask for: ``--trace FILE``,
    ``--provenance FILE`` and ``--sample-resources``.  Yields the tracer
    (None without ``--trace``) for the ledger record and writes the trace
    and derivation files on exit."""
    from repro.obs import recording, sampling, tracing, write_chrome_trace, write_folded_stacks

    trace_path = getattr(args, "trace", None)
    provenance_path = getattr(args, "provenance", None)
    with ExitStack() as stack:
        tracer = stack.enter_context(tracing()) if trace_path else None
        recorder = stack.enter_context(recording()) if provenance_path else None
        if getattr(args, "sample_resources", False):
            stack.enter_context(sampling())
        yield tracer
    if tracer is not None:
        write = write_folded_stacks if trace_path.endswith(".folded") else write_chrome_trace
        write(tracer, trace_path)
        _LOG.info(f"trace written to {trace_path}")
    if recorder is not None:
        _write_derivation(recorder, provenance_path)


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="run-ledger directory (default: $EMORPHIC_LEDGER or ~/.cache/emorphic/ledger)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this invocation to the run ledger",
    )


def _add_history_filter_args(parser: argparse.ArgumentParser) -> None:
    """Shared ``history``/``report`` selectors over the run ledger."""
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="run-ledger directory (default: $EMORPHIC_LEDGER or ~/.cache/emorphic/ledger)",
    )
    parser.add_argument(
        "--kind",
        default=None,
        choices=["run", "pipeline", "batch", "sweep", "bench"],
        help="only records appended by this command kind",
    )
    parser.add_argument("--circuit", default=None, help="only records of this circuit (exact)")
    parser.add_argument("--script", default=None, help="only records whose script contains this text")
    parser.add_argument("--flow", default=None, help="only records of this flow/tag (exact)")
    parser.add_argument(
        "--last",
        type=int,
        default=5,
        metavar="N",
        help="rolling-baseline window: latest run vs the median of the previous N",
    )


def _ledger_append(args: argparse.Namespace, record: Dict[str, object]) -> None:
    """Best-effort append to the run ledger (never fails the command)."""
    if getattr(args, "no_ledger", False):
        return
    from repro.obs import log_record

    record_id = log_record(record, getattr(args, "ledger", None))
    if record_id:
        _LOG.debug(f"ledger record {record_id} appended")


def _ledger_record(
    kind: str,
    circuit: str,
    content: str,
    result: Dict[str, object],
    flow: Optional[str] = None,
    tracer=None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Ledger record of one flow result payload: ``PipelineResult.to_dict()``
    in-process, a campaign job's stored ``result``.

    Its ``config_hash`` digests the canonical script together with the
    input's canonical AIGER text (``content``), so a ledger group is one
    script on one input, whichever command ran it.
    """
    from repro.obs import flow_record
    from repro.obs.export import span_summary

    return flow_record(
        kind,
        circuit=circuit,
        flow=flow,
        script=result["script"],
        config={"script": result["script"], "input": content},
        qor=result,
        runtime=result.get("runtime"),
        pass_runtimes=result.get("pass_runtimes") or None,
        span_summary=None if tracer is None else span_summary(tracer),
        attribution=result.get("attribution"),
        resource=result.get("resource"),
        extra=extra,
    )


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the Prometheus text exposition of the run's metrics to FILE",
    )


def _maybe_metrics(args: argparse.Namespace) -> None:
    """Dump the process metrics registry when ``--metrics FILE`` was given."""
    path = getattr(args, "metrics", None)
    if not path:
        return
    from repro.obs.metrics import prometheus_text

    with open(path, "w") as handle:
        handle.write(prometheus_text())
    _LOG.info(f"metrics written to {path}")


def _add_emorphic_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--iterations",
        "--rewrite-iterations",
        dest="iterations",
        type=int,
        default=5,
        help="e-graph rewriting (equality saturation) iterations",
    )
    parser.add_argument(
        "--max-egraph-nodes",
        type=int,
        default=40_000,
        help="node cap stopping equality saturation",
    )
    parser.add_argument(
        "--sa-iterations",
        type=int,
        default=4,
        help="annealing iterations per SA extraction chain",
    )
    parser.add_argument("--threads", type=int, default=4, help="extraction chains")
    parser.add_argument("--seed", type=int, default=7, help="base seed of the extraction chains")
    parser.add_argument(
        "--extraction-cost",
        default="depth",
        choices=["depth", "nodes"],
        help="guiding cost inside the SA extractor",
    )
    parser.add_argument(
        "--use-ml-model",
        action="store_true",
        help="evaluate SA candidates with the learned cost model (trains a small default model)",
    )
    parser.add_argument("--no-verify", action="store_true", help="skip the final equivalence check")
    parser.add_argument("--no-choices", action="store_true", help="disable choice computation (dch)")


def _emorphic_config(args: argparse.Namespace) -> EmorphicConfig:
    config = EmorphicConfig(
        rewrite_iterations=args.iterations,
        max_egraph_nodes=args.max_egraph_nodes,
        sa_iterations=args.sa_iterations,
        num_threads=args.threads,
        seed=args.seed,
        extraction_cost=args.extraction_cost,
        use_ml_model=args.use_ml_model,
        verify=not args.no_verify,
    )
    config.baseline.use_choices = not args.no_choices
    return config


def cmd_list(args: argparse.Namespace) -> int:
    presets = [p.strip() for p in (args.presets or "").split(",") if p.strip()]
    for preset in presets:
        if preset not in epfl.PRESETS:
            raise SystemExit(f"unknown preset {preset!r}; choose from {', '.join(epfl.PRESETS)}")
    if not presets:
        for name in epfl.available_circuits():
            print(f"{name:12s} ({epfl.circuit_family(name)})")
        return 0
    header = f"{'circuit':12s} {'family':11s}"
    for preset in presets:
        header += f" {preset + ' pi/po/and/lev':>24s}"
    print(header)
    for name in epfl.available_circuits():
        row = f"{name:12s} {epfl.circuit_family(name):11s}"
        for preset in presets:
            stats = epfl.build(name, preset=preset).stats()
            cell = f"{stats['pis']}/{stats['pos']}/{stats['ands']}/{stats['levels']}"
            row += f" {cell:>24s}"
        print(row)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    aig = _load_circuit(args)
    stats = aig.stats()
    print(f"{aig.name}: pis={stats['pis']} pos={stats['pos']} ands={stats['ands']} levels={stats['levels']}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    aig = _load_circuit(args)
    config = BaselineConfig(use_choices=not args.no_choices)
    result = run_baseline_flow(aig, config)
    print(
        f"{aig.name}: area={result.area:.2f} um^2  delay={result.delay:.2f} ps  "
        f"lev={result.levels}  runtime={result.runtime:.2f} s"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    aig = _load_circuit(args)
    config = _emorphic_config(args)
    with _observed(args) as tracer:
        result = run_emorphic_flow(aig, config)
    print(
        f"{aig.name}: area={result.area:.2f} um^2  delay={result.delay:.2f} ps  "
        f"lev={result.levels}  runtime={result.runtime:.2f} s"
    )
    if result.equivalence is not None:
        print(f"equivalence check: {result.equivalence.status}")
    breakdown = result.runtime_breakdown()
    total = sum(breakdown.values()) or 1.0
    for phase, seconds in breakdown.items():
        print(f"  {phase:20s} {seconds:8.2f} s ({100 * seconds / total:5.1f}%)")
    record = _ledger_record(
        "run", aig.name, aag_to_string(aig), result.to_dict(), flow="emorphic", tracer=tracer
    )
    _ledger_append(args, record)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    aig = _load_circuit(args)
    with _observed(args):
        baseline = run_baseline_flow(aig, BaselineConfig(use_choices=not args.no_choices))
        emorphic = run_emorphic_flow(aig, _emorphic_config(args))
    print(f"{'flow':12s} {'area (um^2)':>12s} {'delay (ps)':>12s} {'lev':>6s} {'runtime (s)':>12s}")
    print(
        f"{'baseline':12s} {baseline.area:12.2f} {baseline.delay:12.2f} "
        f"{baseline.levels:6d} {baseline.runtime:12.2f}"
    )
    print(
        f"{'emorphic':12s} {emorphic.area:12.2f} {emorphic.delay:12.2f} "
        f"{emorphic.levels:6d} {emorphic.runtime:12.2f}"
    )
    if baseline.delay > 0:
        print(f"delay reduction: {100 * (baseline.delay - emorphic.delay) / baseline.delay:.2f}%")
    if baseline.area > 0:
        print(f"area saving:     {100 * (baseline.area - emorphic.area) / baseline.area:.2f}%")
    return 0


# --------------------------------------------------------------------------
# Scripted pipelines.


def _build_pipeline(script: str):
    """Parse a pipeline script, turning parse errors into clean CLI errors."""
    from repro.pipeline import Pipeline, PipelineError

    try:
        return Pipeline.from_script(script)
    except PipelineError as exc:
        raise SystemExit(f"pipeline error: {exc}")


def _run_pipeline(pipeline, aig, **kwargs):
    """Run a parsed pipeline's flow, turning the ``PipelineError`` a pass
    raises while it runs (a run-time parameter check) into the same clean
    CLI error as a parse error."""
    from repro.pipeline import PipelineError

    try:
        return pipeline.run_flow(aig, **kwargs)
    except PipelineError as exc:
        raise SystemExit(f"pipeline error: {exc}")


def cmd_pipeline(args: argparse.Namespace) -> int:
    aig = _load_circuit(args)
    pipeline = _build_pipeline(args.script)

    def on_pass_end(name: str, ctx, seconds: float) -> None:
        stats = ctx.aig.stats()
        _LOG.info(
            f"  {name:12s} {seconds:7.2f} s  ands={stats['ands']} levels={stats['levels']}",
            extra={"pass": name, "seconds": seconds, "ands": stats["ands"], "levels": stats["levels"]},
        )

    with _observed(args) as tracer:
        result = _run_pipeline(pipeline, aig, on_pass_end=on_pass_end if args.verbose else None)
    print(f"pipeline: {pipeline.to_script()}")
    if result.mapping is not None:
        print(
            f"{aig.name}: area={result.area:.2f} um^2  delay={result.delay:.2f} ps  "
            f"lev={result.levels}  runtime={result.runtime:.2f} s"
        )
    else:
        stats = result.aig.stats()
        print(
            f"{aig.name}: ands={stats['ands']}  levels={stats['levels']}  "
            f"runtime={result.runtime:.2f} s  (no mapping pass in the script)"
        )
    if result.equivalence is not None:
        print(f"equivalence check: {result.equivalence.status}")
    total = sum(seconds for _, seconds in result.pass_runtimes) or 1.0
    print("per-pass runtime:")
    for name, seconds in result.pass_runtimes:
        print(f"  {name:12s} {seconds:8.2f} s ({100 * seconds / total:5.1f}%)")
    payload = result.to_dict()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        _LOG.info(f"report written to {args.json}")
    _ledger_append(args, _ledger_record("pipeline", aig.name, aag_to_string(aig), payload, tracer=tracer))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a scripted pipeline under a tracer and print the span tree."""
    from repro.obs import to_chrome_trace, tracing, write_chrome_trace

    aig = _load_circuit(args)
    pipeline = _build_pipeline(args.script)
    with tracing() as tracer:
        result = _run_pipeline(pipeline, aig)
    print(f"pipeline: {pipeline.to_script()} on {aig.name}")
    print(tracer.format_tree(max_depth=args.depth))
    stats = result.aig.stats()
    print(
        f"{len(tracer.records)} spans, {len(to_chrome_trace(tracer)['traceEvents'])} trace events; "
        f"final ands={stats['ands']} levels={stats['levels']}"
    )
    if args.out:
        write_chrome_trace(tracer, args.out)
        _LOG.info(f"trace written to {args.out}")
    _maybe_metrics(args)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Run a scripted pipeline under a provenance recorder and explain the QoR."""
    from repro.obs import recording

    aig = _load_circuit(args)
    pipeline = _build_pipeline(args.script)
    with recording() as recorder:
        result = _run_pipeline(pipeline, aig)
    print(f"pipeline: {pipeline.to_script()} on {aig.name}")
    attribution = result.attribution
    if attribution is None:
        print(
            "no attribution recorded — the script needs a saturate+extract "
            "(or partition ... stitch) stage to attribute the result to rules"
        )
    else:
        print(attribution.render())
    if result.equivalence is not None:
        print(f"equivalence check: {result.equivalence.status}")
    if args.provenance:
        _write_derivation(recorder, args.provenance)
    if args.json:
        payload = {
            "circuit": aig.name,
            "script": pipeline.to_script(),
            "attribution": None if attribution is None else attribution.to_dict(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        _LOG.info(f"attribution written to {args.json}")
    _maybe_metrics(args)
    return 0


def cmd_scripts(args: argparse.Namespace) -> int:
    from repro.pipeline import pass_table

    if getattr(args, "docs", False):
        # The grammar reference ships with the source tree (docs/dsl.md,
        # two levels above src/repro/cli.py).
        docs = Path(__file__).resolve().parent.parent.parent / "docs" / "dsl.md"
        print(docs)
        if not docs.exists():
            _LOG.warning("docs/dsl.md not found (installed without the docs tree?)")
        return 0
    print("registered pipeline passes (emorphic pipeline --script \"...\"):")
    for spec in pass_table():
        aliases = f"  (alias: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"  {spec.signature()}")
        print(f"      [{spec.kind}] {spec.summary}{aliases}")
    return 0


# --------------------------------------------------------------------------
# Layer benches (repro.pipeline.bench).


def _validated_circuits(text: Optional[str]) -> Optional[List[str]]:
    """Split a --circuits option and reject unknown benchmark names."""
    if not text:
        return None
    circuits = [name.strip() for name in text.split(",") if name.strip()]
    available = set(epfl.available_circuits())
    unknown = [name for name in circuits if name not in available]
    if unknown:
        raise SystemExit(f"unknown circuits: {', '.join(unknown)}")
    return circuits


def _add_bench_parser(sub, bench) -> None:
    fast, full = bench.fast, bench.full
    parser = sub.add_parser(bench.command, help=f"bench {bench.summary}")
    parser.add_argument(
        "--circuits",
        default=None,
        help=f"comma-separated benchmark names (default: {','.join(full.circuits)}; "
        f"with --fast: {','.join(fast.circuits)})",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help=f"CI profile: {fast.preset}-preset circuits at the limits of "
        f"benchmarks/{bench.name}_reference.json (default: the {full.preset} preset)",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE", help="write the payload to FILE (default: write none)"
    )
    parser.add_argument(
        "--reference",
        default=None,
        help="compare against this checked-in bench payload and fail on regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when wall-clock exceeds reference by this factor",
    )
    _add_ledger_args(parser)
    parser.set_defaults(func=cmd_bench, bench=bench.name)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.pipeline.bench import (
        BENCHES,
        check_completions,
        check_regressions,
        ledger_record,
        render_bench,
        run_bench,
    )

    bench = BENCHES[args.bench]
    with _observed(args):
        payload = run_bench(
            bench,
            circuits=_validated_circuits(args.circuits),
            fast=args.fast,
            progress=(lambda message: _LOG.info(f"  {message}")),
        )
    print(render_bench(bench, payload))
    _ledger_append(args, ledger_record(bench, payload))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        _LOG.info(f"bench written to {args.json}")
    status = 0
    if args.reference:
        with open(args.reference) as handle:
            reference = json.load(handle)
        failures = check_regressions(
            payload, reference, max_ratio=args.max_regression, counts=bench.counts
        )
        if failures:
            print(f"PERF REGRESSION vs {args.reference}:")
            for failure in failures:
                print(f"  {failure}")
            status = 1
        else:
            print(f"no regression vs {args.reference} (threshold {args.max_regression:.1f}x)")
    completions = check_completions(bench, payload)
    if completions:
        print("CAPABILITY GATE FAILED:")
        for failure in completions:
            print(f"  {failure}")
        status = 1
    return status


# --------------------------------------------------------------------------
# Campaign orchestration (batch / sweep / cache).


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated benchmark names (default: the full Table II suite)",
    )
    parser.add_argument(
        "--preset", default="test", choices=list(epfl.PRESETS), help="benchmark size preset"
    )
    parser.add_argument(
        "--profile",
        default="fast",
        choices=["fast", "paper"],
        help="base E-morphic configuration (fast campaign profile or paper defaults)",
    )
    parser.add_argument("--jobs", type=int, default=None, help="worker processes (default: CPU-bounded)")
    parser.add_argument("--store", default=None, help="result store directory (default: $EMORPHIC_STORE or ~/.cache/emorphic/store)")
    parser.add_argument("--no-cache", action="store_true", help="ignore and overwrite cached results")
    parser.add_argument("--timeout", type=float, default=None, help="per-job timeout in seconds")
    parser.add_argument("--json", default=None, help="write the full report to this JSON file")


def _campaign_circuits(args: argparse.Namespace) -> List[str]:
    if args.circuits:
        names = [name.strip() for name in args.circuits.split(",") if name.strip()]
        available = set(epfl.available_circuits())
        unknown = [name for name in names if name not in available and not name.endswith(".aag")]
        if unknown:
            raise SystemExit(f"unknown circuits: {', '.join(unknown)}")
        return names
    return epfl.available_circuits()


def _campaign_base_config(args: argparse.Namespace) -> EmorphicConfig:
    return EmorphicConfig.fast() if args.profile == "fast" else EmorphicConfig()


def _campaign_ledger_append(args: argparse.Namespace, kind: str, report) -> None:
    """Append one ledger record per successful outcome of a campaign."""
    if getattr(args, "no_ledger", False):
        return
    for outcome in report.successful():
        circuit = outcome.spec.circuit
        record = _ledger_record(
            kind,
            circuit.name,
            circuit.content(),
            outcome.record["result"],
            flow=outcome.spec.tag or "pipeline",
            extra={"status": outcome.status, "key": outcome.key},
        )
        _ledger_append(args, record)


def _print_store_counters() -> None:
    """One line of process-lifetime result-store lookup counters."""
    from repro.obs.metrics import registry

    hits = registry().counter("store_hits_total").value
    misses = registry().counter("store_misses_total").value
    if hits or misses:
        print(f"result store: {int(hits)} cache hits, {int(misses)} misses")


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.orchestrate import make_job, make_pipeline_job, run_campaign
    from repro.orchestrate.report import render_table2, table2_summary

    jobs = []
    if args.script:
        if args.flows != "baseline,emorphic":  # explicitly set alongside --script
            raise SystemExit("batch error: --script replaces the named flows; drop --flows")
        pipeline = _build_pipeline(args.script)
        for name in _campaign_circuits(args):
            jobs.append(make_pipeline_job(name, pipeline, preset=args.preset, tag="pipeline"))
    else:
        flows = [flow.strip() for flow in args.flows.split(",") if flow.strip()]
        unknown = [flow for flow in flows if flow not in FLOW_VARIANTS]
        if unknown:
            raise SystemExit(
                f"unknown flows: {', '.join(unknown)} (choose from {', '.join(FLOW_VARIANTS)})"
            )

        base = _campaign_base_config(args)
        # (recipe, config) per flow variant; make_job tags each by its variant.
        variants = {
            "baseline": ("baseline", base.baseline),
            "emorphic": ("emorphic", base),
            "emorphic_ml": ("emorphic", {**base.to_dict(), "use_ml_model": True}),
        }
        for name in _campaign_circuits(args):
            for flow in flows:
                recipe, config = variants[flow]
                jobs.append(make_job(name, recipe, config, preset=args.preset))

    if args.progress:
        from repro.obs import CampaignProgress

        renderer = CampaignProgress()
        progress, on_event = False, renderer.handle
    else:
        progress, on_event = True, None
    with _observed(args):
        report = run_campaign(
            jobs,
            store=args.store,
            max_workers=args.jobs,
            job_timeout=args.timeout,
            use_cache=not args.no_cache,
            progress=progress,
            on_event=on_event,
        )
    summary = table2_summary(report)
    if summary["rows"]:
        print()
        print(render_table2(summary, title=f"Campaign QoR ({args.preset} preset)"))
    _print_store_counters()
    _campaign_ledger_append(args, "batch", report)
    if args.json:
        payload = {"campaign": report.to_dict(), "summary": summary}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        _LOG.info(f"report written to {args.json}")
    return 0 if report.ok else 1


def _coerce(text: str) -> object:
    from repro.pipeline.values import coerce_value

    return coerce_value(text)


def _parse_grid(params: Sequence[str]) -> Dict[str, List[object]]:
    grid: Dict[str, List[object]] = {}
    for param in params:
        if "=" not in param:
            raise SystemExit(f"malformed --param {param!r} (expected name=value,value,...)")
        name, values = param.split("=", 1)
        parsed = [_coerce(value.strip()) for value in values.split(",") if value.strip()]
        if not parsed:
            raise SystemExit(f"--param {param!r} has no values")
        grid[name.strip()] = parsed
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.orchestrate.report import render_frontier
    from repro.orchestrate.sweep import grid_points, run_sweep, script_points

    # Every point is rendered, so every script and grid key is validated,
    # before any job launches.
    if args.script:
        if args.param:
            raise SystemExit("sweep error: --script sweeps flow shapes; drop --param")
        points = script_points([_build_pipeline(script) for script in args.script])
        title = f"Pipeline-shape frontier ({len(points)} shapes)"
    else:
        try:
            points = grid_points(_parse_grid(args.param or []), _campaign_base_config(args))
        except KeyError as exc:
            raise SystemExit(f"sweep error: {exc.args[0]}")
        title = f"Sweep frontier ({len(points)} grid points)"
    report = run_sweep(
        _campaign_circuits(args),
        points,
        preset=args.preset,
        store=args.store,
        max_workers=args.jobs,
        job_timeout=args.timeout,
        use_cache=not args.no_cache,
        progress=True,
    )
    frontier = report.frontier()
    if frontier:
        print()
        print(render_frontier(frontier, title=title))
    _print_store_counters()
    _campaign_ledger_append(args, "sweep", report.campaign)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        _LOG.info(f"report written to {args.json}")
    return 0 if report.campaign.ok else 1


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.orchestrate import ResultStore

    store = ResultStore(args.store)
    if args.action == "stats":
        stats = store.stats()
        print(f"store:   {stats['path']}")
        print(f"records: {stats['records']} ({stats['total_bytes'] / 1024:.1f} KiB)")
        for scope in ("per_flow", "per_circuit"):
            for name, count in sorted(stats[scope].items()):
                print(f"  {scope[4:]}: {name:12s} {count}")
        # Lookup counters are process-local (published by ResultStore.get via
        # the metrics registry); campaigns print the same line after running.
        from repro.obs.metrics import registry

        hits = registry().counter("store_hits_total").value
        misses = registry().counter("store_misses_total").value
        print(f"lookups (this process): {int(hits)} hits, {int(misses)} misses")
    elif args.action == "list":
        for record in store.records():
            job = record.get("job") or {}
            circuit = (job.get("circuit") or {}).get("name", "?")
            result = record.get("result") or {}
            print(
                f"{record.get('key', '?'):24s} {job.get('tag') or 'pipeline':9s} {circuit:12s} "
                f"delay={result.get('delay', 0.0):8.2f} area={result.get('area', 0.0):10.2f}"
            )
    elif args.action == "clear":
        print(f"removed {store.clear()} records from {store.root}")
    return 0


# --------------------------------------------------------------------------
# Run-ledger history and reporting.


def _ledger_records(args: argparse.Namespace):
    """Open the ledger and apply the shared --kind/--circuit/--script/--flow filters."""
    from repro.obs import RunLedger

    ledger = RunLedger(args.ledger)
    records = ledger.records(
        kind=args.kind, circuit=args.circuit, script=args.script, flow=args.flow
    )
    return ledger, records


def cmd_history(args: argparse.Namespace) -> int:
    from repro.obs import check_records, compare_group, group_records
    from repro.obs.ledger import QOR_METRICS, _short

    ledger, records = _ledger_records(args)
    if not records:
        print(f"no matching ledger records under {ledger.file}")
        return 0
    groups = group_records(records)
    comparisons = {
        key: compare_group(history, window=args.last) for key, history in sorted(groups.items())
    }
    if args.json:
        payload = {
            "ledger": str(ledger.file),
            "records": len(records),
            "groups": [
                {
                    "circuit": circuit,
                    "script": script,
                    "config_hash": cfg,
                    "runs": len(groups[(circuit, script, cfg)]),
                    "comparison": comparison,
                }
                for (circuit, script, cfg), comparison in comparisons.items()
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        _LOG.info(f"history written to {args.json}")
    print(f"{len(records)} records, {len(groups)} (circuit, script, config) groups in {ledger.file}")
    for (circuit, script, cfg), comparison in comparisons.items():
        history = groups[(circuit, script, cfg)]
        print(f"{circuit or '-'} [{_short(script)} @{cfg[:8]}] — {len(history)} runs")
        for metric in QOR_METRICS + ("runtime",):
            cell = comparison[metric]
            if cell["latest"] is None:
                continue
            if cell["baseline"] is None:
                print(f"  {metric:8s} {cell['latest']:12g}  (no baseline yet)")
            else:
                print(
                    f"  {metric:8s} {cell['latest']:12g}  baseline {cell['baseline']:12g}"
                    f"  ({cell['ratio']:.3f}x of rolling median)"
                )
    if args.check:
        failures = check_records(
            records,
            window=args.last,
            qor_tolerance=args.qor_tolerance,
            runtime_ratio=args.max_runtime_ratio,
        )
        if failures:
            print("HISTORY REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(
            f"no regression vs rolling median of last {args.last} runs "
            f"(QoR tolerance {100 * args.qor_tolerance:.0f}%, "
            f"runtime {args.max_runtime_ratio:.1f}x)"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import write_history_html

    ledger, records = _ledger_records(args)
    write_history_html(args.out, records, window=args.last)
    print(f"history report ({len(records)} records from {ledger.file}) written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emorphic", description=__doc__)
    parser.add_argument(
        "-v",
        dest="verbosity",
        action="count",
        default=0,
        help="increase diagnostic verbosity (repeatable; -v enables debug logging)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only log warnings and errors"
    )
    parser.add_argument(
        "--log-format",
        default="console",
        choices=["console", "json"],
        help="diagnostic log format: human console lines or one JSON object per line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available benchmark circuits")
    p_list.add_argument(
        "--presets",
        default="test,bench",
        help="comma-separated presets to show pi/po/and/level stats for "
        "('' for names only; 'large' is slower to generate)",
    )
    p_list.set_defaults(func=cmd_list)

    p_stats = sub.add_parser("stats", help="print AIG statistics")
    _add_circuit_args(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_base = sub.add_parser("baseline", help="run the delay-oriented baseline flow")
    _add_circuit_args(p_base)
    p_base.add_argument("--no-choices", action="store_true", help="disable choice computation (dch)")
    p_base.set_defaults(func=cmd_baseline)

    p_run = sub.add_parser("run", help="run the E-morphic flow")
    _add_circuit_args(p_run)
    _add_emorphic_args(p_run)
    _add_trace_arg(p_run)
    _add_provenance_arg(p_run)
    _add_resource_arg(p_run)
    _add_ledger_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare baseline and E-morphic on one circuit")
    _add_circuit_args(p_cmp)
    _add_emorphic_args(p_cmp)
    _add_trace_arg(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_pipe = sub.add_parser("pipeline", help="run an arbitrary scripted pass pipeline")
    _add_circuit_args(p_pipe)
    p_pipe.add_argument(
        "--script",
        required=True,
        help='ABC-style pass script, e.g. "st; sopb; dag2eg; saturate(iters=4); extract(sa); map; cec"',
    )
    p_pipe.add_argument("--verbose", action="store_true", help="print AIG stats after every pass")
    p_pipe.add_argument("--json", default=None, help="write the result summary to this JSON file")
    _add_trace_arg(p_pipe)
    _add_provenance_arg(p_pipe)
    _add_resource_arg(p_pipe)
    _add_ledger_args(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_trace = sub.add_parser(
        "trace", help="run a scripted pipeline under a tracer and print the span tree"
    )
    p_trace.add_argument(
        "script",
        help='ABC-style pass script, e.g. "st; dag2eg; saturate(iters=2); extract(greedy); map"',
    )
    _add_circuit_args(p_trace, positional=False)
    p_trace.add_argument(
        "--depth", type=int, default=None, help="limit the printed span tree to this depth"
    )
    p_trace.add_argument(
        "--out", default=None, help="also write the Chrome trace-event JSON to this file"
    )
    _add_metrics_arg(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="run a scripted pipeline under a provenance recorder and print the "
        "rule-level QoR attribution",
    )
    p_explain.add_argument(
        "script",
        help='ABC-style pass script, e.g. "st; dag2eg; saturate(iters=4); extract; map; cec"',
    )
    _add_circuit_args(p_explain, positional=False)
    p_explain.add_argument(
        "--json", default=None, help="write the attribution report to this JSON file"
    )
    _add_provenance_arg(p_explain)
    _add_metrics_arg(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_scripts = sub.add_parser("scripts", help="list registered pipeline passes")
    p_scripts.add_argument(
        "--docs",
        action="store_true",
        help="print the path of the pipeline-script grammar reference (docs/dsl.md)",
    )
    p_scripts.set_defaults(func=cmd_scripts)

    from repro.pipeline.bench import BENCHES

    for bench in BENCHES.values():
        _add_bench_parser(sub, bench)
    # The partition bench's windows run on a pool; --trace merges their spans.
    _add_trace_arg(sub.choices["partition-bench"])

    p_batch = sub.add_parser(
        "batch", help="run a campaign of circuits x flows process-parallel with caching"
    )
    p_batch.add_argument(
        "--flows",
        default="baseline,emorphic",
        help=f"comma-separated flow variants ({', '.join(FLOW_VARIANTS)})",
    )
    p_batch.add_argument(
        "--script",
        default=None,
        help="run this scripted pipeline instead of the named flows "
        "(the canonical pipeline spec participates in the job hash/cache)",
    )
    p_batch.add_argument(
        "--progress",
        action="store_true",
        help="live progress rendering (single rewritten status line on a TTY)",
    )
    _add_campaign_args(p_batch)
    _add_trace_arg(p_batch)
    _add_provenance_arg(p_batch)
    _add_resource_arg(p_batch)
    _add_ledger_args(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_sweep = sub.add_parser(
        "sweep", help="design-space exploration over config grids or flow shapes"
    )
    p_sweep.add_argument(
        "--param",
        action="append",
        metavar="NAME=V1,V2,...",
        help="grid dimension over an EmorphicConfig field (dotted baseline.* reaches the "
        "nested baseline config); repeatable",
    )
    p_sweep.add_argument(
        "--script",
        action="append",
        metavar="SCRIPT",
        help="a whole pipeline shape as one grid point; repeatable (mutually "
        "exclusive with --param)",
    )
    _add_campaign_args(p_sweep)
    _add_ledger_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cache = sub.add_parser("cache", help="inspect or clear the persistent result store")
    p_cache.add_argument("action", choices=["stats", "list", "clear"])
    p_cache.add_argument("--store", default=None, help="result store directory")
    p_cache.set_defaults(func=cmd_cache)

    p_hist = sub.add_parser(
        "history",
        help="query the persistent run ledger: latest run vs rolling median "
        "baseline per (circuit, script, config) group; --check gates CI",
    )
    _add_history_filter_args(p_hist)
    p_hist.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any group's latest run regresses vs its rolling baseline",
    )
    p_hist.add_argument(
        "--qor-tolerance",
        type=float,
        default=0.02,
        help="fractional QoR slack before --check fails (default 0.02 = 2%%)",
    )
    p_hist.add_argument(
        "--max-runtime-ratio",
        type=float,
        default=2.0,
        help="fail --check when runtime exceeds the baseline by this factor (timing is noisy)",
    )
    p_hist.add_argument("--json", default=None, help="write the comparison payload to this JSON file")
    p_hist.set_defaults(func=cmd_history)

    p_report = sub.add_parser(
        "report",
        help="render the run-ledger history as static HTML (QoR sparklines, "
        "pass-runtime waterfall, growth curves, rule yields)",
    )
    _add_history_filter_args(p_report)
    p_report.add_argument(
        "--out", default="history.html", help="write the HTML report to this file"
    )
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbosity=args.verbosity, quiet=args.quiet, fmt=args.log_format)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
