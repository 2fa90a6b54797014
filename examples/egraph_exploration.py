#!/usr/bin/env python3
"""Structural exploration with the e-graph API, step by step.

This example peels the E-morphic flow apart and uses the library's lower
level APIs directly:

1. build a circuit and convert it to an e-graph (direct DAG-to-DAG);
2. run a few equality-saturation iterations on the engine (backoff
   scheduling + op-indexed e-matching) and watch the number of equivalence
   classes grow — including the per-rule telemetry of the run;
3. extract structures with different objectives (node count vs depth) and
   with the island-model extraction portfolio — including the per-chain
   accept/reject and migration telemetry of the run;
4. map every extracted structure and compare post-mapping area/delay —
   demonstrating the structural-bias effect the paper targets;
5. the whole exploration runs under a trace (`repro.obs`): the span tree is
   pretty-printed at the end and exported as Chrome trace-event JSON,
   loadable in https://ui.perfetto.dev.

Run with::

    python examples/egraph_exploration.py
"""

from __future__ import annotations

from repro.benchgen import arithmetic
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import DepthCost, NodeCountCost
from repro.extraction.engine import PortfolioConfig, portfolio_extract
from repro.extraction.greedy import greedy_extract
from repro.mapping.cut_mapping import map_aig
from repro.mapping.library import default_library
from repro.obs import tracing, write_chrome_trace
from repro.verify.cec import check_equivalence


def report(label: str, aig, library) -> None:
    mapped = map_aig(aig, library)
    print(f"  {label:28s} ands={aig.num_ands:5d}  area={mapped.area:8.2f} um^2  delay={mapped.delay:7.1f} ps")


def main() -> int:
    library = default_library()
    aig = arithmetic.multiplier(4)
    print(f"input circuit: {aig.name} with {aig.num_ands} AND nodes")

    # 1. Direct DAG-to-DAG conversion.
    circuit = aig_to_egraph(aig)
    print(f"initial e-graph: {circuit.egraph.num_classes} classes, {circuit.egraph.num_nodes} e-nodes")

    # 2. Equality saturation, a few iterations (the paper uses 5), on the
    #    engine: backoff scheduling + op-indexed e-matching + match dedup.
    #    Steps 2 and 3 run under a tracer, so every engine phase (per-rule
    #    search/apply, portfolio rounds and chains) lands in one span tree.
    with tracing() as tracer:
        engine = SaturationEngine(
            circuit.egraph,
            boolean_rules(),
            EngineLimits(max_iterations=4, max_nodes=20_000, time_limit=20.0),
            scheduler="backoff",
        )
        profile = engine.run()

        # 3. Extraction with different objectives.
        extractions = {
            "greedy / node count": greedy_extract(circuit.egraph, NodeCountCost()),
            "greedy / depth": greedy_extract(circuit.egraph, DepthCost()),
        }
        portfolio = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=3, move_budget=96, migrate_every=16, seed=1),
            seed_solution=circuit.original_extraction(),
        )

    print(f"after rewriting ({profile.stop_reason}, scheduler={profile.scheduler}):")
    for it in profile.iterations:
        print(f"  iteration {it.iteration}: {it.num_classes} classes, {it.num_nodes} e-nodes "
              f"({it.elapsed:.2f} s, {it.matches_found} matches, "
              f"{len(it.banned)} rules banned)")
    busiest = sorted(profile.rules.values(), key=lambda r: r.search_time, reverse=True)[:3]
    for rule in busiest:
        print(f"  busiest rule {rule.name}: {rule.matches_found} matches, "
              f"{rule.applications} applications, search {rule.search_time:.2f} s")
    extractions["extraction portfolio"] = portfolio.extraction
    profile = portfolio.profile
    print(f"portfolio extraction: cost {profile.initial_cost:.0f} -> {profile.best_cost:.0f} "
          f"(chain {profile.best_chain} wins, {len(profile.migrations)} migrations, "
          f"{profile.wall_time:.2f} s)")
    for chain in profile.chains:
        print(f"  chain {chain.chain_id} [{chain.kind:7s}] best={chain.best_cost:5.0f} "
              f"accepted={chain.accepted}/{chain.moves} uphill={chain.uphill} "
              f"mean cone={chain.mean_cone:.1f} classes/move")

    # 4. Map every candidate and compare: same function, different QoR.
    print("\npost-mapping comparison of the extracted structures:")
    report("original circuit", aig, library)
    for label, extraction in extractions.items():
        candidate = extraction_to_aig(circuit, extraction, name=label)
        assert check_equivalence(aig, candidate, conflict_budget=50_000).equivalent
        report(label, candidate, library)
    print("\nall candidates verified equivalent to the input circuit")

    # 5. The trace of the exploration: span tree to the terminal, Chrome
    #    trace-event JSON to disk (open in https://ui.perfetto.dev).
    print("\ntrace of the exploration (top two levels):")
    print(tracer.format_tree(max_depth=1))
    write_chrome_trace(tracer, "egraph_exploration_trace.json")
    print(f"\nfull trace ({len(tracer.records)} spans) written to "
          "egraph_exploration_trace.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
