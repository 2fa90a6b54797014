"""AND-tree balancing (ABC's ``balance`` command).

Maximal multi-input AND trees are collected by traversing non-complemented
AND fanins, then rebuilt as delay-balanced trees using a Huffman-style merge
of the earliest-arriving operands.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_not, lit_var


def _collect_and_leaves(aig: Aig, var: int, fanouts: List[int]) -> List[int]:
    """Leaves (as literals of the old AIG) of the maximal AND tree rooted at ``var``.

    Recursion descends through non-complemented fanins that are AND nodes with
    a single fanout, so shared logic is never duplicated.
    """
    node = aig.node(var)
    leaves: List[int] = []
    for fanin in (node.fanin0, node.fanin1):
        fvar = lit_var(fanin)
        fnode = aig.node(fvar)
        if not lit_is_compl(fanin) and fnode.is_and and fanouts[fvar] == 1:
            leaves.extend(_collect_and_leaves(aig, fvar, fanouts))
        else:
            leaves.append(fanin)
    return leaves


def _balanced_and(new: Aig, operands: List[Tuple[int, int]]) -> Tuple[int, int]:
    """Combine (arrival, literal) operands into a balanced AND tree.

    Returns the resulting (arrival, literal).  The two earliest-arriving
    operands are merged first, which minimises the tree depth for
    non-uniform arrival times.
    """
    heap = [(arr, i, lit) for i, (arr, lit) in enumerate(operands)]
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        arr0, _, lit0 = heapq.heappop(heap)
        arr1, _, lit1 = heapq.heappop(heap)
        lit = new.add_and(lit0, lit1)
        arrival = max(arr0, arr1) + 1
        heapq.heappush(heap, (arrival, counter, lit))
        counter += 1
    arr, _, lit = heap[0]
    return arr, lit


def balance(aig: Aig) -> Aig:
    """Return a depth-balanced copy of the AIG."""
    fanouts = aig.fanout_counts()
    new = Aig(name=aig.name)
    old2new: Dict[int, int] = {0: 0}
    arrival: Dict[int, int] = {0: 0}
    for var in aig.pis:
        old2new[var] = new.add_pi(aig.node(var).name)
        arrival[lit_var(old2new[var])] = 0

    def map_lit(old_lit: int) -> Tuple[int, int]:
        """Map an old literal to (arrival, new literal)."""
        var = lit_var(old_lit)
        new_lit = old2new[var]
        arr = arrival.get(lit_var(new_lit), 0)
        return arr, new_lit ^ (old_lit & 1)

    processed: Dict[int, bool] = {}

    def build(var: int) -> None:
        if var in old2new or processed.get(var):
            return
        node = aig.node(var)
        # Ensure fanin cones that are tree leaves are built first.
        leaves_old = _collect_and_leaves(aig, var, fanouts)
        for leaf in leaves_old:
            lvar = lit_var(leaf)
            if lvar not in old2new:
                build(lvar)
        operands = [map_lit(leaf) for leaf in leaves_old]
        arr, lit = _balanced_and(new, operands)
        old2new[var] = lit
        arrival[lit_var(lit)] = max(arrival.get(lit_var(lit), 0), arr)
        processed[var] = True

    # Interior nodes of an AND tree (single non-complemented fanout into
    # another AND) are absorbed by their root and never built standalone.
    interior = set()
    for node in aig.and_nodes():
        for fanin in (node.fanin0, node.fanin1):
            fvar = lit_var(fanin)
            if not lit_is_compl(fanin) and aig.node(fvar).is_and and fanouts[fvar] == 1:
                interior.add(fvar)

    for node in aig.and_nodes():
        if node.var not in old2new and node.var not in interior:
            build(node.var)

    for lit, name in aig.pos:
        var = lit_var(lit)
        if var not in old2new:
            build(var)
        new.add_po(old2new[var] ^ (lit & 1), name)
    del build  # build holds itself through its closure cell: leave no cycle
    return new.cleanup()
