"""The frozen extraction problem: the e-graph snapshot the engine works on.

Extraction runs on a *frozen* e-graph (saturation has finished), so greedy
and SA extraction front-load every canonicalisation into one picklable,
index-based structure, snapshotted from the e-graph's rows: per-class
candidate e-nodes with pre-resolved child class ids and pre-computed per-node
costs.  Chains, evaluators, and worker processes all operate on
plain ``int`` class ids and node indices — no ``EGraph`` and no ``find``
calls on the hot path — and the whole problem crosses a
``ProcessPoolExecutor`` boundary exactly once per worker.

The problem also carries a static reverse index, built once with it:
``users[child]`` lists one ``(parent class, node index)`` pair per node and
distinct child, and ``distinct_children[cid][i]`` counts node ``i``'s distinct
children.  With them :meth:`FrozenProblem.greedy_choice` and
:meth:`FrozenProblem.random_choice` are event-driven (a class that gets
cheaper, or gets chosen, wakes exactly the nodes that use it) and the depth
evaluator finds a class's extraction parents by filtering ``users`` through
the live choice, so none of them re-derives e-graph structure per call.

Cycle safety is handled here too: :meth:`FrozenProblem.toposort` orders the
classes of a concrete extraction (and, for a depth cost, prices every class
as it places it), and :meth:`FrozenProblem.flip_candidates` keeps, per class,
only the candidate nodes whose children all precede the class in that order.
Flips restricted to those candidates can never create a cyclic extraction,
so the move loop needs no per-move cycle check (see ``delta.py``).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.extraction.cost import CostFunction, NodeCountCost

#: A solution: canonical class id -> index into ``FrozenProblem.nodes[cid]``.
Choice = Dict[int, int]


@dataclass
class FrozenProblem:
    """An extraction instance with every e-graph lookup pre-resolved.

    ``nodes[cid]`` lists the canonical candidate e-nodes of class ``cid``;
    ``children[cid][i]`` holds the (canonical) child class ids of
    ``nodes[cid][i]`` and ``node_costs[cid][i]`` its per-node cost.  ``mode``
    is the cost aggregation ("sum" counts every reachable class once, DAG
    semantics; "depth" is the longest root-to-leaf path), matching
    :func:`repro.extraction.cost.extraction_cost` exactly.

    ``users`` and ``distinct_children`` are derived from ``children`` on
    construction (see the module docstring) and travel with the problem when
    it is pickled.  Construction rejects a node cost that is negative, NaN
    or infinite with ``ValueError``: finite non-negative costs are what
    makes the greedy fixpoint terminate with a complete acyclic choice.
    """

    nodes: Dict[int, List[ENode]]
    children: Dict[int, List[Tuple[int, ...]]]
    node_costs: Dict[int, List[float]]
    roots: List[int]
    mode: str = "sum"
    users: Dict[int, List[Tuple[int, int]]] = field(init=False, repr=False, compare=False)
    distinct_children: Dict[int, List[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        users: Dict[int, List[Tuple[int, int]]] = {cid: [] for cid in self.nodes}
        distinct_children: Dict[int, List[int]] = {}
        inf = math.inf
        for cid, class_children in self.children.items():
            costs = self.node_costs[cid]
            counts = []
            for i, kids in enumerate(class_children):
                if not 0 <= costs[i] < inf:
                    kind = "negative" if costs[i] < 0 else "non-finite"
                    raise ValueError(f"{kind} node cost {costs[i]} for operator {self.nodes[cid][i].op}")
                distinct = set(kids)
                counts.append(len(distinct))
                user = (cid, i)  # one tuple per node, shared by its children's lists
                for ch in distinct:
                    users.setdefault(ch, []).append(user)
            distinct_children[cid] = counts
        self.users = users
        self.distinct_children = distinct_children

    @classmethod
    def build(
        cls,
        egraph: EGraph,
        roots: Sequence[int],
        cost: Optional[CostFunction] = None,
    ) -> "FrozenProblem":
        """Snapshot ``egraph`` into a frozen problem.

        Reads the e-graph's rows (:meth:`~repro.egraph.egraph.EGraph.class_rows`)
        instead of e-node objects: the first occurrence of each ``(op,
        canonical children, payload)`` row is the class's candidate, and only
        candidates get an :class:`ENode`.  Classes come in ascending id order.
        """
        cost = cost or NodeCountCost()
        nodes: Dict[int, List[ENode]] = {}
        children: Dict[int, List[Tuple[int, ...]]] = {}
        node_costs: Dict[int, List[float]] = {}
        for cid, rows in egraph.class_rows():
            seen = set()
            class_nodes: List[ENode] = []
            class_children: List[Tuple[int, ...]] = []
            class_costs: List[float] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    enode = ENode(*row)
                    class_nodes.append(enode)
                    class_children.append(enode.children)
                    class_costs.append(cost.node_cost(enode))
            nodes[cid] = class_nodes
            children[cid] = class_children
            node_costs[cid] = class_costs
        return cls(
            nodes=nodes,
            children=children,
            node_costs=node_costs,
            roots=[egraph.find(r) for r in roots],
            mode=cost.mode,
        )

    @property
    def num_classes(self) -> int:
        """Number of e-classes in the snapshot."""
        return len(self.nodes)

    @property
    def num_nodes(self) -> int:
        """Number of candidate e-nodes over all classes."""
        return sum(len(ns) for ns in self.nodes.values())

    def node_index(self, cid: int, enode: ENode) -> Optional[int]:
        """Index of ``enode`` among the class's candidates, if present."""
        for i, candidate in enumerate(self.nodes[cid]):
            if candidate == enode:
                return i
        return None

    def choice_from_extraction(self, extraction: Dict[int, ENode]) -> Choice:
        """Convert an e-node extraction into an index-based choice."""
        choice: Choice = {}
        for cid, enode in extraction.items():
            if cid not in self.nodes:
                continue
            idx = self.node_index(cid, enode)
            if idx is not None:
                choice[cid] = idx
        return choice

    def extraction_from_choice(self, choice: Choice) -> Dict[int, ENode]:
        """Convert an index-based choice back to an e-node extraction."""
        return {cid: self.nodes[cid][idx] for cid, idx in choice.items()}

    # -- initial solutions --------------------------------------------------

    def greedy_choice(self) -> Choice:
        """Bottom-up greedy choice: every acyclically realizable class gets its
        cheapest node given its children's best costs.

        Semantically a fixpoint of ascending-id passes that re-price every
        class's nodes in index order, a node winning only when cheaper by more
        than ``1e-12``.  It runs event-driven instead: a class that gets
        cheaper wakes its users into the current pass if their id is still
        ahead, else into the next one.  Only visits that change nothing are
        skipped, so costs, choices and dict insertion order are the
        fixpoint's (see ``docs/parity.md``).
        """
        users = self.users
        children = self.children
        node_costs = self.node_costs
        depth = self.mode != "sum"
        best: Dict[int, float] = {}
        choice: Choice = {}
        this_pass = [cid for cid, counts in self.distinct_children.items() if 0 in counts]
        heapq.heapify(this_pass)
        queued = set(this_pass)
        next_pass: List[int] = []
        while this_pass:
            while this_pass:
                cid = heapq.heappop(this_pass)
                queued.discard(cid)
                costs = node_costs[cid]
                improved = False
                for i, kids in enumerate(children[cid]):
                    child_costs = [best.get(ch) for ch in kids]
                    if None in child_costs:
                        continue
                    if depth:
                        total = costs[i] + (max(child_costs) if child_costs else 0.0)
                    else:
                        total = costs[i] + sum(child_costs)
                    if total < best.get(cid, math.inf) - 1e-12:
                        best[cid] = total
                        choice[cid] = i
                        improved = True
                if improved:
                    for parent, _ in users[cid]:
                        if parent not in queued:
                            queued.add(parent)
                            heapq.heappush(this_pass if parent > cid else next_pass, parent)
            this_pass, next_pass = next_pass, this_pass
        return choice

    def random_choice(self, rng: random.Random, fallback: Optional[Choice] = None) -> Choice:
        """Random bottom-up valid choice; classes that never become
        realizable fall back to ``fallback`` (normally the greedy choice).

        Semantically a fixpoint of ascending-id passes: each pass visits the
        unchosen classes in ascending id order and gives every class with a
        ready node (all children chosen) a uniformly drawn ready node, until
        a pass chooses nothing.  It runs event-driven instead: choosing a
        class counts down its users' unchosen children, and a class that
        becomes ready joins the current pass if its id is still ahead of the
        pass, else the next one.  Visit order, rng draws and the returned
        dict's insertion order are those of the pass-by-pass fixpoint.
        """
        users = self.users
        # Per node, how many of its distinct children are still unchosen.
        unchosen = {cid: list(counts) for cid, counts in self.distinct_children.items()}
        chosen: Choice = {}
        this_pass = [cid for cid, counts in unchosen.items() if 0 in counts]
        heapq.heapify(this_pass)
        queued = set(this_pass)
        next_pass: List[int] = []
        while this_pass:
            while this_pass:
                cid = heapq.heappop(this_pass)
                candidates = [i for i, left in enumerate(unchosen[cid]) if not left]
                chosen[cid] = candidates[rng.randrange(len(candidates))]
                for parent, i in users[cid]:
                    counts = unchosen[parent]
                    counts[i] -= 1
                    # Chosen classes are queued too, so they are never re-added.
                    if not counts[i] and parent not in queued:
                        queued.add(parent)
                        heapq.heappush(this_pass if parent > cid else next_pass, parent)
            this_pass, next_pass = next_pass, this_pass
        if fallback and len(chosen) < len(self.nodes):
            # Iterate the full class set, not the unchosen ones: a set keeps
            # its slot order under discards, so this is the fixpoint's order.
            for cid in set(self.nodes):
                if cid not in chosen and cid in fallback:
                    chosen[cid] = fallback[cid]
        return chosen

    # -- cycle-safety structures -------------------------------------------

    def toposort(self, choice: Choice) -> Tuple[Dict[int, int], Optional[Dict[int, float]]]:
        """Topological positions of every chosen class (children first),
        plus every chosen class's depth on a depth cost (``None`` on a sum
        cost).

        One depth-first walk from each class in ascending id order: a class
        is placed, and on a depth cost priced, as soon as its chosen children
        are, so iterating the order walks the classes topologically.  A
        cyclic choice, or one missing a chosen class's child, raises
        ``ValueError``.  Class ids are non-negative, so a stack entry
        ``~cid`` is ``cid``'s post-order marker.
        """
        children = self.children
        node_costs = self.node_costs
        order: Dict[int, int] = {}
        depths: Optional[Dict[int, float]] = None if self.mode == "sum" else {}
        on_stack = set()
        counter = 0
        # Starts sit at the bottom of the stack, popped in ascending id order.
        stack = sorted(choice, reverse=True)
        pop, push = stack.pop, stack.append
        while stack:
            cid = pop()
            if cid < 0:
                cid = ~cid
                on_stack.discard(cid)
                i = choice[cid]
                kids = children[cid][i]
            elif cid in order:
                continue
            else:
                i = choice[cid]
                kids = children[cid][i]
                expanded = False
                for ch in kids:
                    if ch not in order:
                        if ch not in choice:
                            raise ValueError(f"choice is missing e-class {ch} (child of class {cid})")
                        if not expanded:
                            if cid in on_stack:
                                raise ValueError(f"cyclic extraction through e-class {cid}")
                            on_stack.add(cid)
                            push(~cid)
                            expanded = True
                        push(ch)
                if expanded:
                    continue
            order[cid] = counter
            counter += 1
            if depths is not None:
                # max() unrolled with max()'s own rule (a later value wins
                # only when strictly greater), so depths stay bit-exact.
                if len(kids) == 2:
                    x, y = kids
                    a, b = depths[x], depths[y]
                    depths[cid] = node_costs[cid][i] + (b if b > a else a)
                elif len(kids) == 1:
                    depths[cid] = node_costs[cid][i] + depths[kids[0]]
                elif kids:
                    depths[cid] = node_costs[cid][i] + max([depths[ch] for ch in kids])
                else:
                    depths[cid] = node_costs[cid][i] + 0.0
        return order, depths

    def flip_candidates(
        self, order: Dict[int, int], classes: Optional[Iterable[int]] = None
    ) -> Dict[int, List[int]]:
        """Per class, the candidate node indices that are cycle-safe under
        ``order``: every child strictly precedes the class.  Any sequence of
        flips within these sets keeps ``order`` a valid topological order of
        the extraction, so acyclicity is an invariant, not a per-move check.

        ``classes`` restricts the result to those classes (each must be in
        ``order``); by default every ordered class is covered.
        """
        children = self.children
        position_of = order.get
        inf = math.inf
        safe: Dict[int, List[int]] = {}
        for cid in order if classes is None else classes:
            position = order[cid]
            indices = []
            for i, kids in enumerate(children[cid]):
                for ch in kids:
                    if position_of(ch, inf) >= position:
                        break
                else:
                    indices.append(i)
            safe[cid] = indices
        return safe


@dataclass
class ProblemStats:
    """Summary counters of a frozen problem (for telemetry and benches)."""

    classes: int = 0
    nodes: int = 0
    flippable_classes: int = 0
    roots: int = 0

    @classmethod
    def of(cls, problem: FrozenProblem, safe: Optional[Dict[int, List[int]]] = None) -> "ProblemStats":
        """Count ``problem``'s classes, nodes and roots; with ``safe`` (flip
        candidates), also the classes with a cycle-safe alternative."""
        flippable = 0
        if safe is not None:
            flippable = sum(1 for indices in safe.values() if len(indices) > 1)
        return cls(
            classes=problem.num_classes,
            nodes=problem.num_nodes,
            flippable_classes=flippable,
            roots=len(problem.roots),
        )

    def to_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-ready dict."""
        return {
            "classes": self.classes,
            "nodes": self.nodes,
            "flippable_classes": self.flippable_classes,
            "roots": self.roots,
        }
