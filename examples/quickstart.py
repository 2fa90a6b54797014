#!/usr/bin/env python3
"""Quickstart: optimize one circuit with E-morphic and inspect the result.

Builds a synthetic benchmark circuit, runs the delay-oriented baseline flow
and the E-morphic flow, prints the QoR of both, and shows the runtime
breakdown and the final equivalence check.

Run with::

    python examples/quickstart.py [circuit] [preset]

where ``circuit`` is one of the registered benchmarks (default: sqrt) and
``preset`` is "test" (small, seconds) or "bench" (larger, minutes).
"""

from __future__ import annotations

import sys

from repro.benchgen import epfl
from repro.flows.baseline import BaselineConfig, run_baseline_flow
from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow


def main() -> int:
    circuit_name = sys.argv[1] if len(sys.argv) > 1 else "sqrt"
    preset = sys.argv[2] if len(sys.argv) > 2 else "test"

    aig = epfl.build(circuit_name, preset=preset)
    stats = aig.stats()
    print(f"circuit {circuit_name}: {stats['pis']} PIs, {stats['pos']} POs, "
          f"{stats['ands']} AND nodes, {stats['levels']} levels")

    print("\nrunning the SOP-balancing baseline flow...")
    baseline = run_baseline_flow(aig, BaselineConfig(use_choices=False))
    print(f"  area  {baseline.area:10.2f} um^2")
    print(f"  delay {baseline.delay:10.2f} ps")
    print(f"  runtime {baseline.runtime:8.2f} s")

    print("\nrunning the E-morphic flow (e-graph resynthesis before mapping)...")
    config = EmorphicConfig(
        rewrite_iterations=5,
        max_egraph_nodes=20_000,
        num_threads=3,
        moves_per_iteration=3,
    )
    config.baseline.use_choices = False
    emorphic = run_emorphic_flow(aig, config)
    print(f"  area  {emorphic.area:10.2f} um^2")
    print(f"  delay {emorphic.delay:10.2f} ps")
    print(f"  runtime {emorphic.runtime:8.2f} s")
    print(f"  explored candidates: {emorphic.metrics['num_candidates']}")
    if emorphic.equivalence is not None:
        print(f"  equivalence check: {emorphic.equivalence.status}")

    print("\nruntime breakdown (the Figure 9 components):")
    for phase, seconds in emorphic.runtime_breakdown().items():
        print(f"  {phase:20s} {seconds:8.2f} s")

    if baseline.delay > 0:
        delay_gain = 100.0 * (baseline.delay - emorphic.delay) / baseline.delay
        area_gain = 100.0 * (baseline.area - emorphic.area) / baseline.area
        print(f"\ndelay reduction vs baseline: {delay_gain:+.2f}%")
        print(f"area saving vs baseline:     {area_gain:+.2f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
