"""The extraction benchmark: one delta-cost chain vs the island portfolio.

``run_extraction_bench`` saturates the largest benchgen circuits once (the
default saturation engine), then runs two extractor configurations over the
*same* saturated e-graph at an equal total move budget —

* ``delta``     — one portfolio chain with delta-cost evaluation: a move
  re-prices only the ancestor cone of the flipped class;
* ``portfolio`` — the island-model parallel portfolio (delta evaluation,
  best-solution migration) splitting the same budget across its chains;

— and checks every winning extraction for combinational equivalence against
the input circuit.  ``speedup`` is the portfolio's wall-clock against the
single ``delta`` chain.  The payload is what ``emorphic extract-bench``
writes to ``BENCH_extraction.json`` and what CI gates against
``benchmarks/extraction_reference.json`` via the same
:func:`repro.engine.bench.check_regressions` the saturation gate uses.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.rules import boolean_rules
from repro.engine.bench import check_regressions  # noqa: F401  (re-export: shared gate)
from repro.engine.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import DepthCost
from repro.extraction.engine.portfolio import PortfolioConfig, portfolio_extract
from repro.obs import trace as obs
from repro.obs.export import span_summary

BENCH_SCHEMA = 1

#: The largest benchgen circuits (by AND count under the ``bench`` preset).
DEFAULT_CIRCUITS = ("log2", "sin", "multiplier", "hyp")

VARIANT_NAMES = ("delta", "portfolio")

#: Payload fields the ``--reference`` gate requires to be equal (passed to
#: :func:`repro.engine.bench.check_regressions`).  A run is a pure function
#: of the saturated e-graph, the budget and the seed, so any move in these
#: is a behaviour change, never noise.
COUNT_FIELDS = (
    "cost",
    "initial_cost",
    "moves",
    "accepted",
    "evals",
    "mean_cone",
    "chains",
    "migrations",
    "extraction_ands",
)

#: The variant speedups are measured against (one delta-cost chain).
BASELINE_VARIANT = VARIANT_NAMES[0]


def _bench_one(
    aig,
    circuit,
    variant: str,
    move_budget: int,
    chains: int,
    migrate_every: int,
    seed: int,
    check_cec: bool,
    conflict_budget: int,
) -> Dict[str, object]:
    cost = DepthCost()
    start = time.perf_counter()
    # The run's own tracer: the per-phase digest lands in the payload under
    # the additive "span_summary" key (the gate only reads the legacy fields).
    with obs.tracing() as tracer:
        config = PortfolioConfig(
            chains=1 if variant == "delta" else chains,
            move_budget=move_budget,
            migrate_every=migrate_every,
            seed=seed,
            workers=0 if variant == "delta" else None,
        )
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=cost,
            config=config,
            seed_solution=circuit.original_extraction(),
        )
        extraction = result.extraction
        profile = result.profile
        record: Dict[str, object] = {
            "wall_time": time.perf_counter() - start,
            "cost": result.cost,
            "initial_cost": profile.initial_cost,
            "moves": profile.total_moves,
            "accepted": profile.total_accepted,
            "evals": profile.total_evals,
            "mean_cone": profile.mean_cone(),
            "chains": profile.num_chains,
            "migrations": len(profile.migrations),
        }
    record["span_summary"] = span_summary(tracer)
    if check_cec:
        from repro.verify.cec import check_equivalence

        extracted = extraction_to_aig(circuit, extraction, name=f"{aig.name}_ext").strash()
        cec = check_equivalence(aig, extracted, conflict_budget=conflict_budget)
        record["extraction_cec"] = cec.status
        record["extraction_ands"] = extracted.stats()["ands"]
    return record


def run_extraction_bench(
    circuits: Optional[Sequence[str]] = None,
    preset: str = "bench",
    fast: bool = False,
    move_budget: Optional[int] = None,
    chains: int = 4,
    migrate_every: Optional[int] = None,
    seed: int = 7,
    saturate_iters: Optional[int] = None,
    max_nodes: Optional[int] = None,
    check_cec: bool = True,
    conflict_budget: int = 50_000,
    progress=None,
) -> Dict[str, object]:
    """Run the bench; returns the ``BENCH_extraction.json`` payload.

    ``fast`` shrinks everything (test-preset circuits, small saturation
    budget, fewer moves) to CI scale; explicit ``move_budget``/
    ``saturate_iters``/``max_nodes`` win over both profiles.  All variants
    share one saturated e-graph per circuit and the same total move budget.
    """
    if fast:
        preset = "test"
        budget = move_budget or 48
        limits = EngineLimits(
            max_iterations=saturate_iters or 3,
            max_nodes=max_nodes or 8_000,
            time_limit=30.0,
        )
    else:
        budget = move_budget or 64
        limits = EngineLimits(
            max_iterations=saturate_iters or 4,
            max_nodes=max_nodes or 50_000,
            time_limit=120.0,
        )
    migrate = migrate_every or max(1, budget // (2 * chains))
    names = list(circuits) if circuits else list(DEFAULT_CIRCUITS)
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "bench": "extraction",
        "preset": preset,
        "fast": fast,
        "limits": {
            "move_budget": budget,
            "chains": chains,
            "migrate_every": migrate,
            "seed": seed,
            "saturate_iters": limits.max_iterations,
            "max_nodes": limits.max_nodes,
        },
        "circuits": {},
    }
    speedups: Dict[str, List[float]] = {
        name: [] for name in VARIANT_NAMES if name != BASELINE_VARIANT
    }
    for name in names:
        aig = epfl.build(name, preset=preset)
        if progress:
            progress(f"{name}: saturating ...")
        circuit = aig_to_egraph(aig)
        t0 = time.perf_counter()
        SaturationEngine(circuit.egraph, boolean_rules(), limits).run()
        entry: Dict[str, object] = {
            "stats": aig.stats(),
            "egraph": {
                "classes": circuit.egraph.num_classes,
                "nodes": circuit.egraph.num_nodes,
                "saturate_time": time.perf_counter() - t0,
            },
            "runs": {},
        }
        for variant in VARIANT_NAMES:
            if progress:
                progress(f"{name}: {variant} ...")
            entry["runs"][variant] = _bench_one(
                aig,
                circuit,
                variant,
                move_budget=budget,
                chains=chains,
                migrate_every=migrate,
                seed=seed,
                check_cec=check_cec,
                conflict_budget=conflict_budget,
            )
        baseline_wall = entry["runs"][BASELINE_VARIANT]["wall_time"]
        entry["speedup"] = {}
        for variant in speedups:
            wall = entry["runs"][variant]["wall_time"]
            ratio = baseline_wall / wall if wall > 0 else float("inf")
            entry["speedup"][variant] = ratio
            speedups[variant].append(ratio)
        payload["circuits"][name] = entry
    payload["summary"] = {
        "geomean_speedup": {
            variant: math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
            for variant, ratios in speedups.items()
        }
    }
    return payload


def render_bench(payload: Dict[str, object]) -> str:
    """Human-readable table of a bench payload."""
    limits = payload["limits"]
    lines = [
        f"extraction bench (preset={payload['preset']}, moves={limits['move_budget']}, "
        f"chains={limits['chains']}, migrate_every={limits['migrate_every']})",
        f"{'circuit':12s} {'variant':10s} {'wall (s)':>9s} {'cost':>8s} {'accepted':>9s} "
        f"{'cone':>9s} {'cec':>12s} {'speedup':>8s}",
    ]
    for name, entry in payload["circuits"].items():
        for variant, run in entry["runs"].items():
            speedup = entry.get("speedup", {}).get(variant)
            speedup_text = f"{speedup:7.2f}x" if speedup is not None else f"{'':>8s}"
            lines.append(
                f"{name:12s} {variant:10s} {run['wall_time']:9.2f} {run['cost']:8.1f} "
                f"{run['accepted']:4d}/{run['moves']:<4d} {run['mean_cone']:9.1f} "
                f"{run.get('extraction_cec', '-'):>12s} {speedup_text}"
            )
    geomeans = payload.get("summary", {}).get("geomean_speedup", {})
    if geomeans:
        rendered = ", ".join(f"{k} {v:.2f}x" for k, v in geomeans.items())
        lines.append(f"geomean speedup vs {BASELINE_VARIANT}: {rendered}")
    return "\n".join(lines)
