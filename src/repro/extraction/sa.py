"""The paper's Algorithm 1 neighbour generator, with solution-space pruning.

:func:`generate_neighbor` builds a neighbouring extraction by a bottom-up
sweep that may randomly keep sub-optimal choices (``p_random``).
Solution-space pruning is the queue discipline of Algorithm 1: only e-nodes
whose class cost actually improved propagate to their parents, and per-class
best costs are cached in ``Costs_map`` so unchanged sub-trees are never
re-evaluated.

Extraction itself runs on the island portfolio
(:mod:`repro.extraction.engine`); this generator builds the structural
variants that train the learned cost model
(:func:`repro.costmodel.train.structural_variants`) and is timed by the
pruning row of the extraction ablation benchmark.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import is_leaf_op
from repro.extraction.cost import CostFunction


@dataclass
class EGraphIndex:
    """Precomputed traversal structures shared by all neighbour generations.

    The e-graph is frozen during extraction, so the canonicalised node lists,
    per-class parents, and leaf seeds can be built once per extraction run
    instead of once per move.
    """

    classes: Dict[int, List[ENode]]
    owner_of: Dict[ENode, int]
    parents_of: Dict[int, List[ENode]]
    leaves: List[ENode]

    @classmethod
    def build(cls, egraph: EGraph) -> "EGraphIndex":
        """Index ``egraph``'s canonical nodes, their owners, parents and leaves."""
        classes: Dict[int, List[ENode]] = {}
        owner_of: Dict[ENode, int] = {}
        parents_of: Dict[int, List[ENode]] = {}
        leaves: List[ENode] = []
        for cid in egraph.class_ids():
            canonical_nodes = egraph.nodes_of(cid)
            for canonical in canonical_nodes:
                owner_of[canonical] = cid
                if is_leaf_op(canonical.op) or not canonical.children:
                    leaves.append(canonical)
            classes[cid] = canonical_nodes
        for cid, nodes in classes.items():
            for enode in nodes:
                for child in enode.children:
                    parents_of.setdefault(egraph.find(child), []).append(enode)
        return cls(classes=classes, owner_of=owner_of, parents_of=parents_of, leaves=leaves)


def generate_neighbor(
    egraph: EGraph,
    current: Dict[int, ENode],
    cost: CostFunction,
    p_random: float = 0.1,
    rng: Optional[random.Random] = None,
    pruned: bool = True,
    index: Optional[EGraphIndex] = None,
) -> Dict[int, ENode]:
    """Algorithm 1: generate a neighbouring solution bottom-up.

    With ``pruned`` (the default, matching the paper), the traversal queue
    only propagates from classes whose best cost improved; the unpruned
    variant re-evaluates every e-node of every class until a fixpoint, which
    is the baseline the ablation benchmark compares against.
    """
    if rng is None:
        rng = random.Random()
    if index is None:
        index = EGraphIndex.build(egraph)
    new_solution = dict(current)
    costs_map: Dict[int, float] = {}
    find = egraph.find

    def process(enode: ENode) -> bool:
        """Process one e-node; returns True when the class cost improved."""
        cid = index.owner_of[enode]
        prev_cost = costs_map.get(cid, math.inf)
        children = [find(c) for c in enode.children]
        if any(c not in costs_map for c in children):
            return False
        new_cost = cost.aggregate(enode, (costs_map[c] for c in children))
        take = prev_cost == math.inf or (new_cost < prev_cost and rng.random() >= p_random)
        if take:
            new_solution[cid] = enode
            costs_map[cid] = new_cost
            return True
        return False

    if pruned:
        queue: deque = deque(index.leaves)
        while queue:
            enode = queue.popleft()
            if process(enode):
                cid = index.owner_of[enode]
                queue.extend(index.parents_of.get(find(cid), ()))
    else:
        # Unpruned baseline: sweep every e-node of every class to a fixpoint.
        changed = True
        while changed:
            changed = False
            for nodes in index.classes.values():
                for enode in nodes:
                    if process(enode):
                        changed = True
    return new_solution
