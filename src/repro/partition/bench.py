"""The partition benchmark: monolithic saturation vs. partition-and-conquer.

For each circuit the bench runs the saturation engine twice under the *same*
limits (iteration cap, e-graph node cap, wall-clock budget):

* ``monolithic`` — one ``dag2eg -> saturate`` over the whole circuit.  It
  *completes* only if saturation stops for a healthy reason ("saturated" or
  "iteration_limit") within the budget; tripping the node cap or the clock
  is the failure mode the partition subsystem exists to fix.
* ``partitioned`` — :func:`~repro.partition.optimize.partitioned_optimize`
  with the same per-window limits.  It completes when every window's
  saturation stopped healthily, the stitched circuit passed the final
  whole-circuit CEC, and the whole run fit in the budget.

The point of the payload is the ``completed`` pair: on partition-scale
inputs the monolithic run records ``false`` where the partitioned run
records ``true`` at equal budget.  ``emorphic partition-bench`` writes it to
``BENCH_partition.json``; CI gates the fast profile against the checked-in
reference with the same :func:`repro.engine.bench.check_regressions` the
other benches use, wall times and the deterministic :data:`COUNT_FIELDS`.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.partition.optimize import (
    WINDOW_STEPS,
    PartitionConfig,
    WindowStep,
    partitioned_optimize,
)

BENCH_SCHEMA = 1

#: Saturation stop reasons that count as "the engine finished its work" (as
#: opposed to slamming into a resource cap).
HEALTHY_STOPS = ("saturated", "iteration_limit")

#: Large-preset circuits the full bench runs by default (kept small — each
#: partitioned run optimizes every window of a multi-thousand-AND circuit).
DEFAULT_CIRCUITS = ("log2", "sin")

#: Payload fields the ``--reference`` gate requires to be equal (passed to
#: :func:`repro.engine.bench.check_regressions`).  Windows, their guards,
#: the final CEC and the monolithic saturation are pure functions of the
#: circuit and the limits, so any move in these is a behaviour change.
COUNT_FIELDS = (
    "num_windows",
    "ands_before",
    "ands_after",
    "levels_before",
    "levels_after",
    "accepted_windows",
    "reverted_windows",
    "failed_windows",
    "status_counts",
    "window_sizes",
    "final_cec",
    "completed",
    "stop_reason",
    "iterations",
    "final_nodes",
)


def _monolithic_run(aig, limits: EngineLimits, budget: float) -> Dict[str, object]:
    start = time.perf_counter()
    circuit = aig_to_egraph(aig)
    profile = SaturationEngine(circuit.egraph, boolean_rules(), limits).run()
    wall = time.perf_counter() - start
    return {
        "wall_time": wall,
        "stop_reason": profile.stop_reason,
        "iterations": profile.num_iterations,
        "final_nodes": profile.final_nodes,
        "completed": profile.stop_reason in HEALTHY_STOPS and wall <= budget,
    }


def _partitioned_run(
    aig,
    partition: PartitionConfig,
    window: Sequence[WindowStep],
    budget: float,
) -> Dict[str, object]:
    outcome = partitioned_optimize(aig, partition, window, verify=True)
    profile = outcome.profile
    healthy = all(
        w.saturation_stop in HEALTHY_STOPS for w in profile.windows if w.status != "failed"
    ) and profile.failed_windows == 0
    completed = healthy and profile.final_cec == "equivalent" and profile.wall_time <= budget
    record = profile.to_dict()
    del record["windows"]  # per-window detail stays out of the bench payload
    record["wall_time"] = profile.wall_time
    record["completed"] = completed
    record["extraction_cec"] = profile.final_cec  # same key the gate's CEC guard reads
    return record


def run_partition_bench(
    circuits: Optional[Sequence[str]] = None,
    preset: str = "large",
    fast: bool = False,
    k: Optional[int] = None,
    method: str = "cone",
    seed: int = 0,
    workers: Optional[int] = None,
    iters: Optional[int] = None,
    max_nodes: Optional[int] = None,
    budget: Optional[float] = None,
    progress=None,
) -> Dict[str, object]:
    """Run the bench; returns the ``BENCH_partition.json`` payload.

    ``fast`` shrinks everything to CI scale (test preset, one circuit, tiny
    windows) with constants chosen so the monolithic run deterministically
    trips the node cap while every window completes; explicit arguments win
    over both profiles.  ``progress`` is an optional ``fn(message)`` callback.
    """
    if fast:
        preset = "test"
        names = list(circuits) if circuits else ["log2"]
        k = k or 40
        iters = iters or 3
        max_nodes = max_nodes or 4_000
        budget = budget or 120.0
        workers = 2 if workers is None else workers
    else:
        names = list(circuits) if circuits else list(DEFAULT_CIRCUITS)
        k = k or 120
        iters = iters or 2
        max_nodes = max_nodes or 20_000
        budget = budget or 300.0
        workers = (os.cpu_count() or 1) if workers is None else workers
    limits = EngineLimits(max_iterations=iters, max_nodes=max_nodes, time_limit=budget)
    partition = PartitionConfig(k=k, method=method, seed=seed, workers=workers)
    saturate = {"iters": iters, "max_nodes": max_nodes, "time_limit": budget}
    window = (("saturate", saturate),) + WINDOW_STEPS[1:]

    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "preset": preset,
        "fast": fast,
        "limits": {
            "iters": iters,
            "max_nodes": max_nodes,
            "budget": budget,
            "k": k,
            "method": method,
            "seed": seed,
            "workers": workers,
        },
        "circuits": {},
    }
    for name in names:
        aig = epfl.build(name, preset=preset)
        entry: Dict[str, object] = {"stats": aig.stats(), "runs": {}}
        if progress:
            progress(f"{name}: monolithic ...")
        entry["runs"]["monolithic"] = _monolithic_run(aig, limits, budget)
        if progress:
            progress(f"{name}: partitioned ...")
        entry["runs"]["partitioned"] = _partitioned_run(aig, partition, window, budget)
        payload["circuits"][name] = entry
    runs = payload["circuits"]
    payload["summary"] = {
        "monolithic_completed": sum(1 for e in runs.values() if e["runs"]["monolithic"]["completed"]),
        "partitioned_completed": sum(
            1 for e in runs.values() if e["runs"]["partitioned"]["completed"]
        ),
        "circuits": len(runs),
    }
    return payload


def render_bench(payload: Dict[str, object]) -> str:
    """Human-readable table of a partition bench payload."""
    limits = payload["limits"]
    lines = [
        f"partition bench (preset={payload['preset']}, k={limits['k']}, iters={limits['iters']}, "
        f"max_nodes={limits['max_nodes']}, budget={limits['budget']:.0f}s)",
        f"{'circuit':12s} {'run':12s} {'wall (s)':>9s} {'completed':>10s}  detail",
    ]
    for name, entry in payload["circuits"].items():
        mono = entry["runs"]["monolithic"]
        part = entry["runs"]["partitioned"]
        lines.append(
            f"{name:12s} {'monolithic':12s} {mono['wall_time']:9.2f} "
            f"{str(mono['completed']):>10s}  stop={mono['stop_reason']} "
            f"nodes={mono['final_nodes']}"
        )
        lines.append(
            f"{name:12s} {'partitioned':12s} {part['wall_time']:9.2f} "
            f"{str(part['completed']):>10s}  windows={part['num_windows']} "
            f"accepted={part['accepted_windows']} ands {part['ands_before']}->{part['ands_after']} "
            f"cec={part['final_cec']}"
        )
    summary = payload.get("summary", {})
    if summary:
        lines.append(
            f"completed at equal budget: monolithic {summary['monolithic_completed']}/"
            f"{summary['circuits']}, partitioned {summary['partitioned_completed']}/"
            f"{summary['circuits']}"
        )
    return "\n".join(lines)


def check_completions(payload: Dict[str, object]) -> List[str]:
    """The bench's own acceptance gate, on top of the wall-clock regressions.

    Fails if any partitioned run did not complete, or if the monolithic
    engine completed everywhere (meaning the bench no longer demonstrates
    the capability gap partitioning exists to close).
    """
    failures: List[str] = []
    mono_failed_somewhere = False
    for name, entry in payload.get("circuits", {}).items():
        if not entry["runs"]["partitioned"]["completed"]:
            failures.append(f"{name}: partitioned run did not complete")
        if not entry["runs"]["monolithic"]["completed"]:
            mono_failed_somewhere = True
    if payload.get("circuits") and not mono_failed_somewhere:
        failures.append("monolithic engine completed every circuit — bench demonstrates no gap")
    return failures
