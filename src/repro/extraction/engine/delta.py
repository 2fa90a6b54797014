"""Delta-cost evaluation: incremental extraction cost under single-class flips.

A naive SA move pays O(e-graph) twice over — a full bottom-up neighbour
sweep plus a from-scratch DAG cost evaluation.  The engine's move is a
*flip* (one class changes its chosen e-node), and
:class:`DeltaCostEvaluator` prices it by re-evaluating only the ancestor
cone of the flipped class.  It keeps the cost decomposition live between
moves: reference counts of the extracted DAG in ``sum`` mode, per-class
depths in ``depth`` mode.  ``depth`` mode keeps no parent map of its own: a
class's extraction parents are the entries of the problem's static
``users`` index that the live choice selects.  Its starting depths come
from :meth:`FrozenProblem.toposort`, which prices every class as it places
it, so setting up an evaluator adds no walk of its own; ``sum`` mode counts
references over the root-reachable classes.

:func:`choice_cost` is the from-scratch cost of a choice, with the same
semantics as :func:`repro.extraction.cost.extraction_cost`.  A flip's delta
cost equals it exactly whenever per-node costs are integer-valued (the
default ``NodeCountCost``/``DepthCost``); with arbitrary float weights the
``sum``-mode running total may drift by ulps between flips.  Every
portfolio round rebuilds evaluator state from the bare choice, so drift
never carries from one round into the next.  The full re-derivation per
flip that the evaluator must match is a test oracle (see ``docs/parity.md``).

Flips must stay within :meth:`FrozenProblem.flip_candidates` of the order the
evaluator was built with — that is what makes acyclicity an invariant and
lets the evaluator skip per-move cycle checks.  Choices, reference counts,
positions and depths are lists indexed by class number (see ``problem.py``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.extraction.engine.problem import Choice, FrozenProblem


def choice_cost(problem: FrozenProblem, choice: Choice) -> float:
    """From-scratch cost of a choice, root-reachable DAG semantics.

    The frozen-problem twin of :func:`repro.extraction.cost.extraction_cost`:
    ``sum`` counts every reachable class once; ``depth`` is the longest path
    from any root.
    """
    children = problem.children
    node_costs = problem.node_costs
    if problem.mode == "sum":
        # Floats are summed in the iteration order of a set of e-class ids
        # filled in visit order, as ``extraction_cost`` sums them: with
        # non-integral weights the total depends on that order.
        ids = problem.class_ids
        reachable = set()
        cost_of: Dict[int, float] = {}
        stack = list(problem.roots)
        while stack:
            c = stack.pop()
            cid = ids[c]
            if cid in reachable:
                continue
            reachable.add(cid)
            idx = choice[c]
            cost_of[cid] = node_costs[c][idx]
            stack.extend(children[c][idx])
        return sum(cost_of[cid] for cid in reachable)

    memo: List[Optional[float]] = [None] * len(children)
    for root in problem.roots:
        stack = [(root, False)]
        while stack:
            cid, expanded = stack.pop()
            if memo[cid] is not None:
                continue
            kids = children[cid][choice[cid]]
            if not expanded:
                stack.append((cid, True))
                stack.extend((ch, False) for ch in kids if memo[ch] is None)
                continue
            child_depths = [memo[ch] for ch in kids]
            memo[cid] = node_costs[cid][choice[cid]] + (max(child_depths) if child_depths else 0.0)
    return max((memo[r] for r in problem.roots), default=0.0)


class DeltaCostEvaluator:
    """Incremental evaluator: a flip touches only the flipped class's cone.

    ``sum`` mode maintains reference counts over the root-reachable extracted
    DAG (multiplicity-aware, like ABC's deref/ref node counting): a flip
    adjusts the flipped class's own contribution and cascades references into
    subgraphs that (dis)appear.  ``depth`` mode maintains per-class depths
    and re-propagates depth changes upward in topological order, to the
    ``users`` of a changed class that the live choice selects.

    ``position`` and ``depths``, when given, must be the pair
    ``problem.toposort(choice)`` returned; depth mode keeps both (``depths``
    becomes its live depth table), sum mode ignores them.

    ``evals`` counts flips and ``touched`` the classes whose cached cost
    contribution a flip re-derived (the cone sizes): the telemetry behind a
    chain's mean cone.
    """

    def __init__(
        self,
        problem: FrozenProblem,
        choice: Choice,
        position: Optional[List[int]] = None,
        depths: Optional[List[float]] = None,
    ):
        self.problem = problem
        self.choice: Choice = list(choice)
        self.cost: float = 0.0
        self.evals: int = 0
        self.touched: int = 0
        self._children = problem.children
        self._node_costs = problem.node_costs
        if problem.mode == "sum":
            self._init_sum()
        else:
            if position is None or depths is None:
                position, depths = problem.toposort(self.choice)
            self._position, self._depth = position, depths
            self.cost = max((depths[r] for r in problem.roots), default=0.0)

    # -- sum mode -----------------------------------------------------------

    def _init_sum(self) -> None:
        refs = self._refs = [0] * len(self._children)
        children, node_costs, choice = self._children, self._node_costs, self.choice
        total = 0.0
        stack = []
        # Root multiplicity: every PO holds its own reference.
        for root in self.problem.roots:
            refs[root] += 1
            if refs[root] == 1:
                stack.append(root)
        while stack:
            cid = stack.pop()
            idx = choice[cid]
            total += node_costs[cid][idx]
            for ch in children[cid][idx]:
                refs[ch] += 1
                if refs[ch] == 1:
                    stack.append(ch)
        self.cost = total

    def _ref(self, cids) -> None:
        refs, children, node_costs, choice = self._refs, self._children, self._node_costs, self.choice
        stack = list(cids)
        while stack:
            cid = stack.pop()
            refs[cid] += 1
            if refs[cid] == 1:
                self.touched += 1
                idx = choice[cid]
                self.cost += node_costs[cid][idx]
                stack.extend(children[cid][idx])

    def _deref(self, cids) -> None:
        refs, children, node_costs, choice = self._refs, self._children, self._node_costs, self.choice
        stack = list(cids)
        while stack:
            cid = stack.pop()
            refs[cid] -= 1
            if refs[cid] == 0:
                self.touched += 1
                idx = choice[cid]
                self.cost -= node_costs[cid][idx]
                stack.extend(children[cid][idx])

    def _flip_sum(self, cid: int, node_idx: int) -> float:
        old_idx = self.choice[cid]
        if self._refs[cid] == 0:
            # Unreachable class: no cost impact until something references it.
            self.choice[cid] = node_idx
            return self.cost
        class_children = self._children[cid]
        costs = self._node_costs[cid]
        self.cost += costs[node_idx] - costs[old_idx]
        self.choice[cid] = node_idx
        self.touched += 1
        # Reference the new cone before releasing the old one so shared
        # children never bounce through zero (keeps float totals tighter).
        self._ref(class_children[node_idx])
        self._deref(class_children[old_idx])
        return self.cost

    # -- depth mode ---------------------------------------------------------

    def _flip_depth(self, cid: int, node_idx: int) -> float:
        choice = self.choice
        choice[cid] = node_idx
        users = self.problem.users
        children, node_costs = self._children, self._node_costs
        depth = self._depth
        # Propagate depth changes upward in topological order: a parent is
        # always re-derived after every changed child (parents sit strictly
        # later in the order), so each class settles in one recomputation.
        position = self._position
        heap: List[tuple] = [(position[cid], cid)]
        queued = {cid}
        touched = 0
        while heap:
            _, current = heapq.heappop(heap)
            queued.discard(current)
            idx = choice[current]
            child_depths = [depth[ch] for ch in children[current][idx]]
            new_depth = node_costs[current][idx] + (max(child_depths) if child_depths else 0.0)
            touched += 1
            if new_depth == depth[current]:
                continue
            depth[current] = new_depth
            for parent, i, _ in users[current]:
                if choice[parent] == i and parent not in queued:
                    queued.add(parent)
                    heapq.heappush(heap, (position[parent], parent))
        self.touched += touched
        self.cost = max((depth[r] for r in self.problem.roots), default=0.0)
        return self.cost

    # -- dispatch -----------------------------------------------------------

    def flip(self, cid: int, node_idx: int) -> float:
        """Re-point class ``cid`` at candidate ``node_idx``, re-deriving only
        its cone; returns the new total cost.  Flipping back to the previous
        index reverts the move."""
        self.evals += 1
        if self.problem.mode == "sum":
            return self._flip_sum(cid, node_idx)
        return self._flip_depth(cid, node_idx)

