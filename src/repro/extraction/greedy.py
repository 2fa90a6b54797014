"""Bottom-up greedy extraction.

The classic egg extractor: every e-class takes its cheapest e-node given the
best costs of its children.  It runs on the frozen extraction problem — the
event-driven :meth:`~repro.extraction.engine.problem.FrozenProblem.greedy_choice`
over a snapshot of the e-graph's integer rows — and provides the initial
solutions of the simulated-annealing extractor.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.egraph.egraph import EGraph, ENode
from repro.extraction.cost import CostFunction
from repro.extraction.engine.problem import snapshot
from repro.obs import trace as obs


def greedy_extract(egraph: EGraph, cost: Optional[CostFunction] = None) -> Dict[int, ENode]:
    """Select the locally cheapest e-node for every e-class.

    Returns a map canonical-class-id -> chosen canonical e-node, in ascending
    id order, covering every class that is acyclically realizable
    (unreachable or cyclic-only classes are omitted); the default cost is
    node count.
    """
    problem = snapshot(egraph, (), cost)
    with obs.span("extract greedy", category="extraction.setup"):
        return problem.extraction_from_choice(problem.greedy_choice())

