"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not a table in the paper, but the paper's methodology section motivates three
mechanisms whose effect we quantify here:

* solution-space pruning (Algorithm 1's worklist) vs the unpruned full sweep;
* simulated annealing vs pure greedy extraction;
* the number of rewrite iterations (the paper fixes 5 and argues a few
  iterations already produce enough equivalence classes).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, saturate_engine
from repro.extraction.cost import DepthCost, NodeCountCost, extraction_cost
from repro.extraction.engine import ChainSpec, PortfolioConfig, portfolio_extract
from repro.extraction.greedy import greedy_extract
from repro.extraction.sa import generate_neighbor

from conftest import bench_preset, print_table

pytestmark = [pytest.mark.slow]

RESULTS_PATH = Path(__file__).parent / "results_ablation.json"
CIRCUIT = "sqrt"


def _saturated_circuit(iterations: int = 3, max_nodes: int = 15_000):
    aig = epfl.build(CIRCUIT, preset=bench_preset())
    circuit = aig_to_egraph(aig)
    report = saturate_engine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=iterations, max_nodes=max_nodes, time_limit=20.0),
        scheduler="simple",
        dedup_matches=False,
    )
    return circuit, report


def _time_neighbor_generation(circuit, pruned: bool, repeats: int = 3) -> float:
    import random

    cost = NodeCountCost()
    base = greedy_extract(circuit.egraph, cost)
    start = time.perf_counter()
    for i in range(repeats):
        generate_neighbor(circuit.egraph, base, cost, p_random=0.1, rng=random.Random(i), pruned=pruned)
    return (time.perf_counter() - start) / repeats


def _run_ablation() -> dict:
    circuit, _ = _saturated_circuit()
    # 1. Pruning on/off.
    pruned_time = _time_neighbor_generation(circuit, pruned=True)
    unpruned_time = _time_neighbor_generation(circuit, pruned=False)

    # 2. Greedy vs SA extraction quality (depth cost, structural objective).
    cost = DepthCost()
    greedy = greedy_extract(circuit.egraph, cost)
    greedy_cost = extraction_cost(circuit.egraph, greedy, cost, circuit.output_classes)
    sa_result = portfolio_extract(
        circuit.egraph,
        circuit.output_classes,
        cost=cost,
        config=PortfolioConfig(
            chains=1,
            move_budget=16,
            migrate_every=4,
            seed=3,
            chain_specs=(ChainSpec(kind="sa", initial="greedy"),),
        ),
    )

    # 3. Rewrite-iteration sweep: equivalence classes and nodes per iteration count.
    sweep = {}
    for iterations in (1, 2, 3, 5):
        fresh, report = _saturated_circuit(iterations=iterations)
        sweep[iterations] = {
            "classes": report.final_classes,
            "nodes": report.final_nodes,
            "stop_reason": report.stop_reason,
        }
    return {
        "pruned_neighbor_time": pruned_time,
        "unpruned_neighbor_time": unpruned_time,
        "greedy_depth_cost": greedy_cost,
        "sa_depth_cost": sa_result.cost,
        "sa_initial_cost": sa_result.profile.initial_cost,
        "iteration_sweep": sweep,
    }


@pytest.mark.benchmark(group="ablation")
def test_ablation_extraction_design_choices(benchmark):
    data = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)

    speedup = data["unpruned_neighbor_time"] / max(data["pruned_neighbor_time"], 1e-9)
    rows = [
        ["solution-space pruning", f"{data['pruned_neighbor_time']*1000:.1f} ms/neighbour",
         f"{data['unpruned_neighbor_time']*1000:.1f} ms unpruned", f"{speedup:.2f}x faster"],
        ["SA vs greedy (depth cost)", f"SA {data['sa_depth_cost']:.1f}",
         f"greedy {data['greedy_depth_cost']:.1f}", "SA <= greedy"],
    ]
    for iterations, stats in data["iteration_sweep"].items():
        rows.append(
            [f"{iterations} rewrite iteration(s)", f"{stats['classes']} classes", f"{stats['nodes']} e-nodes", stats["stop_reason"]]
        )
    print_table("Ablation: extraction design choices", ["mechanism", "value", "reference", "note"], rows)
    RESULTS_PATH.write_text(json.dumps(data, indent=2))

    # Pruning must not be slower than the unpruned sweep.
    assert data["pruned_neighbor_time"] <= data["unpruned_neighbor_time"] * 1.1
    # SA never ends up worse than its initial (greedy) solution.
    assert data["sa_depth_cost"] <= data["sa_initial_cost"] + 1e-9
    # More rewrite iterations never produce fewer equivalence classes.
    sweep = data["iteration_sweep"]
    iteration_counts = sorted(sweep)
    classes = [sweep[i]["classes"] for i in iteration_counts]
    assert classes == sorted(classes)
