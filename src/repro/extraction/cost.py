"""Cost functions for e-graph extraction.

Two aggregation modes exist, matching Algorithm 1 of the paper:

* ``sum`` costs accumulate over the children (a proxy for area / node count);
* ``depth`` costs take the maximum over the children (a proxy for delay).

The per-e-node cost is supplied by the concrete class; the extractors only
rely on :meth:`CostFunction.node_cost` and :attr:`CostFunction.mode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.egraph.egraph import ENode
from repro.egraph.language import AND, CONST0, CONST1, NOT, OR, VAR


class CostFunction:
    """Base class: a per-node cost plus an aggregation mode ('sum' or 'depth')."""

    mode: str = "sum"

    def node_cost(self, enode: ENode) -> float:
        """The cost of ``enode`` alone, before aggregating its children."""
        raise NotImplementedError

    def aggregate(self, enode: ENode, child_costs: Iterable[float]) -> float:
        """Total cost of choosing ``enode`` given its children's best costs."""
        children = list(child_costs)
        if self.mode == "sum":
            return self.node_cost(enode) + sum(children)
        if self.mode == "depth":
            return self.node_cost(enode) + (max(children) if children else 0.0)
        raise ValueError(f"unknown cost mode {self.mode!r}")


@dataclass
class NodeCountCost(CostFunction):
    """Counts structural nodes: AND/OR cost 1, NOT and leaves cost 0."""

    mode: str = "sum"
    weights: Dict[str, float] = field(
        default_factory=lambda: {AND: 1.0, OR: 1.0, NOT: 0.0, VAR: 0.0, CONST0: 0.0, CONST1: 0.0}
    )

    def node_cost(self, enode: ENode) -> float:
        """The operator's weight; operators without one cost 1."""
        return self.weights.get(enode.op, 1.0)


@dataclass
class DepthCost(CostFunction):
    """Counts logic levels: AND/OR add one level, NOT and leaves are free."""

    mode: str = "depth"
    weights: Dict[str, float] = field(
        default_factory=lambda: {AND: 1.0, OR: 1.0, NOT: 0.0, VAR: 0.0, CONST0: 0.0, CONST1: 0.0}
    )

    def node_cost(self, enode: ENode) -> float:
        """The operator's weight; operators without one cost 1."""
        return self.weights.get(enode.op, 1.0)


#: The structural costs a flow can guide extraction by, by name
#: (``extract(cost=)``, in a whole-circuit flow or a partition window).
GUIDING_COSTS = {"depth": DepthCost, "nodes": NodeCountCost}


def guiding_cost(name: str) -> CostFunction:
    """The guiding cost called ``name``; unknown names raise ``ValueError``."""
    if name not in GUIDING_COSTS:
        raise ValueError(f"unknown extraction cost {name!r}; choose from {', '.join(GUIDING_COSTS)}")
    return GUIDING_COSTS[name]()


@dataclass
class OperatorCost(CostFunction):
    """Arbitrary per-operator weights with a selectable aggregation mode.

    This is the "flexible cost model integration" hook of the paper: mapped
    gate delays or ML-predicted costs can be plugged in by adjusting weights
    (or by wrapping a predictor at the QoR-evaluation level, see
    :mod:`repro.costmodel`).
    """

    weights: Dict[str, float] = field(default_factory=dict)
    mode: str = "sum"
    default: float = 1.0

    def node_cost(self, enode: ENode) -> float:
        """The operator's weight, or ``default`` for an unweighted operator."""
        return self.weights.get(enode.op, self.default)


def extraction_cost(
    egraph,
    extraction: Dict[int, ENode],
    cost: Optional[CostFunction] = None,
    roots: Optional[Iterable[int]] = None,
) -> float:
    """Cost of a complete extraction, evaluated on the extracted DAG.

    For ``sum`` costs each distinct extracted class is counted once (DAG
    semantics, matching node count of the rebuilt circuit); for ``depth``
    costs the longest path to any root is returned.
    """
    if cost is None:
        cost = NodeCountCost()
    if roots is None:
        roots = list(extraction.keys())
    roots = [egraph.find(r) for r in roots]

    # Reachable classes from the roots.
    reachable = set()
    stack = list(roots)
    while stack:
        cid = egraph.find(stack.pop())
        if cid in reachable:
            continue
        reachable.add(cid)
        enode = extraction[cid]
        stack.extend(egraph.find(c) for c in enode.children)

    if cost.mode == "sum":
        return sum(cost.node_cost(extraction[cid]) for cid in reachable)

    # Depth: longest path over the extracted DAG (iterative, memoised).
    memo: Dict[int, float] = {}

    def depth_of(cid: int) -> float:
        cid = egraph.find(cid)
        if cid in memo:
            return memo[cid]
        work = [(cid, False)]
        while work:
            current, expanded = work.pop()
            current = egraph.find(current)
            if current in memo:
                continue
            enode = extraction[current]
            children = [egraph.find(c) for c in enode.children]
            if not expanded:
                work.append((current, True))
                work.extend((c, False) for c in children if c not in memo)
                continue
            child_costs = [memo[c] for c in children]
            memo[current] = cost.node_cost(enode) + (max(child_costs) if child_costs else 0.0)
        return memo[cid]

    return max(depth_of(r) for r in roots) if roots else 0.0
