"""Delta-cost evaluation: incremental extraction cost under single-class flips.

A naive SA move pays O(e-graph) twice over — a full bottom-up neighbour
sweep plus a from-scratch DAG cost evaluation.  The engine's move is a
*flip* (one class changes its chosen e-node), and the two evaluators
here price a flip in two ways:

* :class:`DeltaCostEvaluator` — the engine's default.  It keeps the cost
  decomposition live between moves (reference counts of the extracted DAG in
  ``sum`` mode, per-class depths in ``depth`` mode) so a flip re-evaluates
  only the ancestor cone of the flipped class.  ``depth`` mode keeps no
  parent map of its own: a class's extraction parents are the entries of
  the problem's static ``users`` index that the live choice selects.  Its
  starting depths come from :meth:`FrozenProblem.toposort`, which prices
  every class as it places it, so setting up an evaluator adds no walk of
  its own; ``sum`` mode counts references over the root-reachable classes.
* :class:`FullCostEvaluator` — the exact-parity reference: same interface,
  but every flip re-derives the cost from scratch with the same semantics as
  :func:`repro.extraction.cost.extraction_cost`.

Both evaluate a flip to the *identical* float whenever per-node costs are
integer-valued (the default ``NodeCountCost``/``DepthCost``), which is what
the engine's parity tests pin down.  With arbitrary float weights the
``sum``-mode running total may drift by ulps between flips; every portfolio
round rebuilds evaluator state from the bare choice, so drift never carries
from one round into the next.

Flips must stay within :meth:`FrozenProblem.flip_candidates` of the order the
evaluator was built with — that is what makes acyclicity an invariant and
lets both evaluators skip per-move cycle checks.
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
    if problem.mode == "sum":
        reachable = set()
        stack = list(problem.roots)
        while stack:
            cid = stack.pop()
            if cid in reachable:
                continue
            reachable.add(cid)
            stack.extend(problem.children[cid][choice[cid]])
        return sum(problem.node_costs[cid][choice[cid]] for cid in reachable)

    memo: Dict[int, float] = {}
    for root in problem.roots:
        stack = [(root, False)]
        while stack:
            cid, expanded = stack.pop()
            if cid in memo:
                continue
            kids = problem.children[cid][choice[cid]]
            if not expanded:
                stack.append((cid, True))
                stack.extend((ch, False) for ch in kids if ch not in memo)
                continue
            child_depths = [memo[ch] for ch in kids]
            memo[cid] = problem.node_costs[cid][choice[cid]] + (
                max(child_depths) if child_depths else 0.0
            )
    return max((memo[r] for r in problem.roots), default=0.0)


class CostEvaluator:
    """Shared evaluator surface: a live choice plus a priced ``flip``.

    ``evals`` counts flips; ``touched`` counts the classes whose cached cost
    contribution was re-derived (the delta evaluator's cone sizes, or the
    whole traversal for the full reference) — the telemetry behind the
    bench's delta-vs-full evaluation ratio.
    """

    kind = "abstract"

    def __init__(self, problem: FrozenProblem, choice: Choice):
        self.problem = problem
        self.choice: Choice = dict(choice)
        self.cost: float = 0.0
        self.evals: int = 0
        self.touched: int = 0

    def flip(self, cid: int, node_idx: int) -> float:
        """Re-point class ``cid`` at candidate ``node_idx``; returns the new
        total cost.  Flipping back to the previous index reverts the move."""
        raise NotImplementedError


class FullCostEvaluator(CostEvaluator):
    """The full-sweep parity reference: every flip pays a whole re-derivation."""

    kind = "full"

    def __init__(self, problem: FrozenProblem, choice: Choice):
        super().__init__(problem, choice)
        self.cost = choice_cost(problem, self.choice)

    def flip(self, cid: int, node_idx: int) -> float:
        """Re-point ``cid`` at ``node_idx`` and re-derive the whole cost."""
        self.choice[cid] = node_idx
        self.cost = choice_cost(self.problem, self.choice)
        self.evals += 1
        self.touched += self.problem.num_classes
        return self.cost


class DeltaCostEvaluator(CostEvaluator):
    """Incremental evaluator: a flip touches only the flipped class's cone.

    ``sum`` mode maintains reference counts over the root-reachable extracted
    DAG (multiplicity-aware, like ABC's deref/ref node counting): a flip
    adjusts the flipped class's own contribution and cascades references into
    subgraphs that (dis)appear.  ``depth`` mode maintains per-class depths
    and re-propagates depth changes upward in topological order, to the
    ``users`` of a changed class that the live choice selects.

    ``order`` and ``depths``, when given, must be the pair
    ``problem.toposort(choice)`` returned; depth mode keeps both (``depths``
    becomes its live depth table), sum mode ignores them.
    """

    kind = "delta"

    def __init__(
        self,
        problem: FrozenProblem,
        choice: Choice,
        order: Optional[Dict[int, int]] = None,
        depths: Optional[Dict[int, float]] = None,
    ):
        super().__init__(problem, choice)
        if problem.mode == "sum":
            self._init_sum()
        else:
            if order is None or depths is None:
                order, depths = problem.toposort(self.choice)
            self._order, self._depth = order, depths
            self.cost = max((depths[r] for r in problem.roots), default=0.0)

    # -- sum mode -----------------------------------------------------------

    def _init_sum(self) -> None:
        self._refs: Dict[int, int] = {}
        total = 0.0
        stack = []
        # Root multiplicity: every PO holds its own reference.
        for root in self.problem.roots:
            self._refs[root] = self._refs.get(root, 0) + 1
            if self._refs[root] == 1:
                stack.append(root)
        while stack:
            cid = stack.pop()
            total += self.problem.node_costs[cid][self.choice[cid]]
            for ch in self.problem.children[cid][self.choice[cid]]:
                self._refs[ch] = self._refs.get(ch, 0) + 1
                if self._refs[ch] == 1:
                    stack.append(ch)
        self.cost = total

    def _ref(self, cids) -> None:
        stack = list(cids)
        while stack:
            cid = stack.pop()
            self._refs[cid] = self._refs.get(cid, 0) + 1
            if self._refs[cid] == 1:
                self.touched += 1
                self.cost += self.problem.node_costs[cid][self.choice[cid]]
                stack.extend(self.problem.children[cid][self.choice[cid]])

    def _deref(self, cids) -> None:
        stack = list(cids)
        while stack:
            cid = stack.pop()
            self._refs[cid] -= 1
            if self._refs[cid] == 0:
                self.touched += 1
                self.cost -= self.problem.node_costs[cid][self.choice[cid]]
                stack.extend(self.problem.children[cid][self.choice[cid]])

    def _flip_sum(self, cid: int, node_idx: int) -> float:
        old_idx = self.choice[cid]
        if self._refs.get(cid, 0) == 0:
            # Unreachable class: no cost impact until something references it.
            self.choice[cid] = node_idx
            return self.cost
        old_kids = self.problem.children[cid][old_idx]
        self.cost += self.problem.node_costs[cid][node_idx] - self.problem.node_costs[cid][old_idx]
        self.choice[cid] = node_idx
        self.touched += 1
        # Reference the new cone before releasing the old one so shared
        # children never bounce through zero (keeps float totals tighter).
        self._ref(self.problem.children[cid][node_idx])
        self._deref(old_kids)
        return self.cost

    # -- depth mode ---------------------------------------------------------

    def _flip_depth(self, cid: int, node_idx: int) -> float:
        choice = self.choice
        choice[cid] = node_idx
        users = self.problem.users
        # Propagate depth changes upward in topological order: a parent is
        # always re-derived after every changed child (parents sit strictly
        # later in the order), so each class settles in one recomputation.
        order = self._order
        heap: List[tuple] = [(order[cid], cid)]
        queued = {cid}
        while heap:
            _, current = heapq.heappop(heap)
            queued.discard(current)
            kids = self.problem.children[current][choice[current]]
            child_depths = [self._depth[ch] for ch in kids]
            new_depth = self.problem.node_costs[current][choice[current]] + (
                max(child_depths) if child_depths else 0.0
            )
            self.touched += 1
            if new_depth == self._depth[current]:
                continue
            self._depth[current] = new_depth
            for parent, i in users[current]:
                if choice.get(parent) == i and parent not in queued:
                    queued.add(parent)
                    heapq.heappush(heap, (order[parent], parent))
        self.cost = max((self._depth[r] for r in self.problem.roots), default=0.0)
        return self.cost

    # -- dispatch -----------------------------------------------------------

    def flip(self, cid: int, node_idx: int) -> float:
        """Re-point ``cid`` at ``node_idx``, re-deriving only its cone."""
        self.evals += 1
        if self.problem.mode == "sum":
            return self._flip_sum(cid, node_idx)
        return self._flip_depth(cid, node_idx)


EVALUATORS = ("delta", "full")


def make_evaluator(
    kind: str,
    problem: FrozenProblem,
    choice: Choice,
    order: Optional[Dict[int, int]] = None,
    depths: Optional[Dict[int, float]] = None,
) -> CostEvaluator:
    """The evaluator called ``kind`` over ``choice``.

    ``order`` and ``depths`` are ``problem.toposort(choice)``'s pair, handed
    to the delta evaluator so it does not walk the choice again.
    """
    if kind == "delta":
        return DeltaCostEvaluator(problem, choice, order=order, depths=depths)
    if kind == "full":
        return FullCostEvaluator(problem, choice)
    raise ValueError(f"unknown evaluator {kind!r}; choose from {', '.join(EVALUATORS)}")
