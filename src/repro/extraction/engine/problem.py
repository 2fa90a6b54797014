"""The frozen extraction problem: the e-graph snapshot the engine works on.

Extraction runs on a *frozen* e-graph (saturation has finished), so greedy
and SA extraction front-load every canonicalisation into one index-based
structure, snapshotted from the e-graph's rows.  The snapshot numbers the
e-classes ``0..n-1`` in ascending e-class id order, once, and everything
after it is a flat list indexed by class number: per-class candidate
e-nodes, their children as class numbers, pre-computed per-node costs and
the roots.  A :data:`Choice` is a list too (class number -> node index,
``-1`` for an unchosen class).  Chains and evaluators therefore index
lists, never a dict keyed by sparse e-class ids and never an ``EGraph``.
E-class ids and ``ENode`` objects appear only at the boundary:
:meth:`FrozenProblem.build` on the way in,
:meth:`FrozenProblem.extraction_from_choice` and
:meth:`FrozenProblem.choice_from_extraction` on the way out.

Numbering in ascending id order keeps every rule that used to depend on
ascending ids: the heap order of the greedy and random passes, routing a
woken class into this pass or the next, the depth-first start order and the
ascending flippable lists.

The problem also carries a static reverse index, built once with it:
``users[child]`` lists one ``(parent, node index, flat node)`` triple per
node and distinct child, and ``distinct_counts[flat node]`` counts a node's
distinct children, where node ``i`` of class ``c`` is flat node
``node_start[c] + i``.  With them :meth:`FrozenProblem.greedy_choice` and
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
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.extraction.cost import CostFunction, NodeCountCost
from repro.obs import trace as obs

#: A solution: class number -> index into ``FrozenProblem.nodes[class]``,
#: ``-1`` for a class without a chosen node.
Choice = List[int]


@dataclass
class FrozenProblem:
    """An extraction instance with every e-graph lookup pre-resolved.

    Classes are numbered ``0..n-1``; ``class_ids[c]`` is class ``c``'s
    e-class id, ascending in ``c``.  ``nodes[c]`` lists the canonical
    candidate e-nodes of class ``c``; ``children[c][i]`` holds the class
    numbers of the children of ``nodes[c][i]`` and ``node_costs[c][i]`` its
    per-node cost; ``roots`` are class numbers.  ``mode`` is the cost
    aggregation ("sum" counts every reachable class once, DAG semantics;
    "depth" is the longest root-to-leaf path), matching
    :func:`repro.extraction.cost.extraction_cost` exactly.

    ``users``, ``node_start``, ``distinct_counts`` and ``leaf_classes`` (the
    classes with a childless node, ascending) are derived from ``children``
    on construction (see the module docstring).  Construction rejects a
    node cost that is negative, NaN or infinite with ``ValueError``: finite
    non-negative costs are what makes the greedy fixpoint terminate with a
    complete acyclic choice.
    """

    class_ids: List[int]
    nodes: List[List[ENode]]
    children: List[List[Tuple[int, ...]]]
    node_costs: List[List[float]]
    roots: List[int]
    mode: str = "sum"
    users: List[List[Tuple[int, int, int]]] = field(init=False, repr=False, compare=False)
    node_start: List[int] = field(init=False, repr=False, compare=False)
    distinct_counts: List[int] = field(init=False, repr=False, compare=False)
    leaf_classes: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        users: List[List[Tuple[int, int, int]]] = [[] for _ in self.children]
        node_start = [0]
        counts: List[int] = []
        leaf_classes: List[int] = []
        count = counts.append
        inf = math.inf
        flat = 0
        for cid, class_children in enumerate(self.children):
            costs = self.node_costs[cid]
            leaf = False
            for i, kids in enumerate(class_children):
                if not 0 <= costs[i] < inf:
                    kind = "negative" if costs[i] < 0 else "non-finite"
                    raise ValueError(f"{kind} node cost {costs[i]} for operator {self.nodes[cid][i].op}")
                user = (cid, i, flat)  # one tuple per node, shared by its children's lists
                flat += 1
                # Each distinct child gets the node once (AND/OR and NOT
                # nodes without building a set).
                if len(kids) == 2 and kids[0] != kids[1]:
                    users[kids[0]].append(user)
                    users[kids[1]].append(user)
                    count(2)
                elif len(kids) == 1:
                    users[kids[0]].append(user)
                    count(1)
                elif kids:
                    distinct = set(kids)
                    for ch in distinct:
                        users[ch].append(user)
                    count(len(distinct))
                else:
                    count(0)
                    leaf = True
            if leaf:
                leaf_classes.append(cid)
            node_start.append(flat)
        self.users = users
        self.node_start = node_start
        self.distinct_counts = counts
        self.leaf_classes = leaf_classes

    @classmethod
    def build(
        cls,
        egraph: EGraph,
        roots: Sequence[int],
        cost: Optional[CostFunction] = None,
    ) -> "FrozenProblem":
        """Snapshot ``egraph`` into a frozen problem.

        Reads the e-graph's distinct canonical e-nodes per class
        (:meth:`~repro.egraph.egraph.EGraph.class_rows`): the first row of
        each canonical form is the class's candidate.  Classes come in
        ascending id order, which is the order they are numbered in.
        """
        cost = cost or NodeCountCost()
        node_cost = cost.node_cost
        class_ids = egraph.class_ids()
        # Class number of every canonical e-class id (ids index a list).
        number = [0] * (class_ids[-1] + 1 if class_ids else 0)
        for c, cid in enumerate(class_ids):
            number[cid] = c
        nodes: List[List[ENode]] = []
        children: List[List[Tuple[int, ...]]] = []
        node_costs: List[List[float]] = []
        for _, class_nodes in egraph.class_rows():
            class_children: List[Tuple[int, ...]] = []
            for enode in class_nodes:
                kids = enode.children
                # The language's operators have two, one or no children.
                if len(kids) == 2:
                    class_children.append((number[kids[0]], number[kids[1]]))
                elif kids:
                    class_children.append((number[kids[0]],))
                else:
                    class_children.append(())
            nodes.append(class_nodes)
            children.append(class_children)
            node_costs.append([node_cost(enode) for enode in class_nodes])
        return cls(
            class_ids=class_ids,
            nodes=nodes,
            children=children,
            node_costs=node_costs,
            roots=[number[egraph.find(r)] for r in roots],
            mode=cost.mode,
        )

    @property
    def num_classes(self) -> int:
        """Number of e-classes in the snapshot."""
        return len(self.class_ids)

    @property
    def num_nodes(self) -> int:
        """Number of candidate e-nodes over all classes."""
        return len(self.distinct_counts)

    def class_number(self, cid: int) -> Optional[int]:
        """The number of e-class ``cid``, or ``None`` if it is not a class
        of the snapshot."""
        c = bisect_left(self.class_ids, cid)
        return c if c < len(self.class_ids) and self.class_ids[c] == cid else None

    def node_index(self, cid: int, enode: ENode) -> Optional[int]:
        """Index of ``enode`` among class number ``cid``'s candidates, if present."""
        for i, candidate in enumerate(self.nodes[cid]):
            if candidate == enode:
                return i
        return None

    def choice_from_extraction(self, extraction: Dict[int, ENode]) -> Choice:
        """Convert an e-node extraction (e-class id -> e-node) into a choice."""
        choice = [-1] * len(self.class_ids)
        for cid, enode in extraction.items():
            c = self.class_number(cid)
            if c is not None:
                idx = self.node_index(c, enode)
                if idx is not None:
                    choice[c] = idx
        return choice

    def extraction_from_choice(self, choice: Choice) -> Dict[int, ENode]:
        """Convert a choice back to an e-node extraction (e-class id ->
        e-node, ascending ids)."""
        ids, nodes = self.class_ids, self.nodes
        return {ids[c]: nodes[c][idx] for c, idx in enumerate(choice) if idx >= 0}

    # -- initial solutions --------------------------------------------------

    def greedy_choice(self) -> Choice:
        """Bottom-up greedy choice: every acyclically realizable class gets its
        cheapest node given its children's best costs.

        Semantically a fixpoint of ascending-class passes that re-price every
        class's nodes in index order, a node winning only when cheaper by more
        than ``1e-12``.  It runs event-driven instead: a class that gets
        cheaper wakes its users into the current pass if their number is
        still ahead, else into the next one.  Only visits that change nothing
        are skipped, so costs and choices are the fixpoint's (see
        ``docs/parity.md``).  A best cost of ``inf`` means "not realized
        yet": no finite sum ever reaches it, since costs are finite.
        """
        users = self.users
        children = self.children
        node_costs = self.node_costs
        depth = self.mode != "sum"
        inf = math.inf
        n = len(children)
        best = [inf] * n
        choice = [-1] * n
        queued = [False] * n
        this_pass = list(self.leaf_classes)  # ascending, so already a heap
        for cid in this_pass:
            queued[cid] = True
        next_pass: List[int] = []
        heappop, heappush = heapq.heappop, heapq.heappush
        while this_pass:
            while this_pass:
                cid = heappop(this_pass)
                queued[cid] = False
                costs = node_costs[cid]
                improved = False
                for i, kids in enumerate(children[cid]):
                    child_costs = [best[ch] for ch in kids]
                    if inf in child_costs:
                        continue
                    if depth:
                        total = costs[i] + (max(child_costs) if child_costs else 0.0)
                    else:
                        total = costs[i] + sum(child_costs)
                    if total < best[cid] - 1e-12:
                        best[cid] = total
                        choice[cid] = i
                        improved = True
                if improved:
                    for parent, _, _ in users[cid]:
                        if not queued[parent]:
                            queued[parent] = True
                            heappush(this_pass if parent > cid else next_pass, parent)
            this_pass, next_pass = next_pass, this_pass
        return choice

    def random_choice(self, rng: random.Random, fallback: Optional[Choice] = None) -> Choice:
        """Random bottom-up valid choice; classes that never become
        realizable fall back to ``fallback`` (normally the greedy choice).

        Semantically a fixpoint of ascending-class passes: each pass visits
        the unchosen classes in ascending order and gives every class with a
        ready node (all children chosen) a uniformly drawn ready node, until
        a pass chooses nothing.  It runs event-driven instead: choosing a
        class counts down its users' unchosen children in one flat copy of
        ``distinct_counts``, and a class that becomes ready joins the current
        pass if its number is still ahead of the pass, else the next one.
        Visit order and rng draws are those of the pass-by-pass fixpoint; a
        class with one ready node still draws (``randrange(1)`` consumes
        random bits).  The fallback fills only classes left unchosen.
        """
        users = self.users
        start = self.node_start
        # Per node, how many of its distinct children are still unchosen.
        unchosen = self.distinct_counts[:]
        n = len(self.children)
        chosen = [-1] * n
        # Chosen classes stay queued, so they are never re-added.
        queued = [False] * n
        this_pass = list(self.leaf_classes)  # ascending, so already a heap
        for cid in this_pass:
            queued[cid] = True
        next_pass: List[int] = []
        heappop, heappush = heapq.heappop, heapq.heappush
        # ``randrange(k)`` for ``k > 0`` is exactly ``_randbelow(k)`` (same
        # bits consumed), minus its argument checks.
        randbelow = rng._randbelow
        while this_pass:
            while this_pass:
                cid = heappop(this_pass)
                first = start[cid]
                last = start[cid + 1]
                if last - first == 1:
                    # A lone node is ready when its class is; it still draws.
                    randbelow(1)
                    chosen[cid] = 0
                else:
                    candidates = [i for i, left in enumerate(unchosen[first:last]) if not left]
                    chosen[cid] = candidates[randbelow(len(candidates))]
                for parent, _, node in users[cid]:
                    left = unchosen[node] - 1
                    unchosen[node] = left
                    if not left and not queued[parent]:
                        queued[parent] = True
                        heappush(this_pass if parent > cid else next_pass, parent)
            this_pass, next_pass = next_pass, this_pass
        if fallback is not None and -1 in chosen:
            for cid, idx in enumerate(chosen):
                if idx < 0:
                    chosen[cid] = fallback[cid]
        return chosen

    # -- cycle-safety structures -------------------------------------------

    def toposort(self, choice: Choice) -> Tuple[List[int], Optional[List[float]]]:
        """Topological positions of every chosen class (children first),
        plus every chosen class's depth on a depth cost (``None`` on a sum
        cost), both as lists indexed by class number.  An unchosen class's
        position is ``n``, past every placed class.

        One depth-first walk from each chosen class in ascending order: a
        class is placed, and on a depth cost priced, as soon as its chosen
        children are, so iterating the order walks the classes
        topologically.  A cyclic choice, or one missing a chosen class's
        child, raises ``ValueError`` naming e-class ids.  Class numbers are
        non-negative, so a stack entry ``~cid`` is ``cid``'s post-order
        marker.
        """
        children = self.children
        node_costs = self.node_costs
        n = len(children)
        position = [n] * n
        depths: Optional[List[float]] = None if self.mode == "sum" else [0.0] * n
        on_stack = [False] * n
        counter = 0
        # Starts sit at the bottom of the stack, popped in ascending order.
        if -1 in choice:
            stack = [cid for cid, idx in enumerate(choice) if idx >= 0]
            stack.reverse()
        else:
            stack = list(range(n - 1, -1, -1))
        pop, push = stack.pop, stack.append
        while stack:
            cid = pop()
            if cid < 0:
                cid = ~cid
                on_stack[cid] = False
                i = choice[cid]
                kids = children[cid][i]
            elif position[cid] < n:
                continue
            else:
                i = choice[cid]
                kids = children[cid][i]
                expanded = False
                for ch in kids:
                    if position[ch] == n:
                        if choice[ch] < 0:
                            ids = self.class_ids
                            raise ValueError(f"choice is missing e-class {ids[ch]} (child of class {ids[cid]})")
                        if not expanded:
                            if on_stack[cid]:
                                raise ValueError(f"cyclic extraction through e-class {self.class_ids[cid]}")
                            on_stack[cid] = True
                            push(~cid)
                            expanded = True
                        push(ch)
                if expanded:
                    continue
            position[cid] = counter
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
        return position, depths

    def flip_candidates(
        self, position: List[int], classes: Optional[Iterable[int]] = None
    ) -> List[Optional[List[int]]]:
        """Per class, the candidate node indices that are cycle-safe under
        ``position`` (from :meth:`toposort`): every child strictly precedes
        the class.  Any sequence of flips within these sets keeps
        ``position`` a valid topological order of the extraction, so
        acyclicity is an invariant, not a per-move check.

        ``classes`` restricts the result to those classes (each must be
        placed); by default every placed class is covered.  Uncovered
        classes map to ``None``.
        """
        children = self.children
        n = len(children)
        safe: List[Optional[List[int]]] = [None] * n
        if classes is None:
            classes = [cid for cid in range(n) if position[cid] < n]
        for cid in classes:
            here = position[cid]
            indices = []
            for i, kids in enumerate(children[cid]):
                for ch in kids:
                    # An unplaced child sits at ``n``, past every class.
                    if position[ch] >= here:
                        break
                else:
                    indices.append(i)
            safe[cid] = indices
        return safe


def snapshot(egraph: EGraph, roots: Sequence[int], cost: Optional[CostFunction] = None) -> FrozenProblem:
    """:meth:`FrozenProblem.build` under an ``extract snapshot`` span
    (category ``extraction.setup``) that counts its ``classes`` and
    ``nodes``: the set-up every extraction entry point pays."""
    with obs.span("extract snapshot", category="extraction.setup") as span:
        problem = FrozenProblem.build(egraph, roots, cost)
        span.set("classes", problem.num_classes)
        span.set("nodes", problem.num_nodes)
    return problem


@dataclass
class ProblemStats:
    """Summary counters of a frozen problem (for telemetry and benches)."""

    classes: int = 0
    nodes: int = 0
    flippable_classes: int = 0
    roots: int = 0

    @classmethod
    def of(cls, problem: FrozenProblem, safe: Optional[List[Optional[List[int]]]] = None) -> "ProblemStats":
        """Count ``problem``'s classes, nodes and roots; with ``safe`` (flip
        candidates), also the classes with a cycle-safe alternative."""
        flippable = 0
        if safe is not None:
            flippable = sum(1 for indices in safe if indices is not None and len(indices) > 1)
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
