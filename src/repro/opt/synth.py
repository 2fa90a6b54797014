"""Helpers for materialising Boolean functions as AIG structures.

Used by rewriting, refactoring and SOP balancing: given the truth table of a
cut and the literals (and optionally arrival times) of its leaves in the
target AIG, build an AIG structure computing the function.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig, lit_not
from repro.opt.sop import Cube, FactorNode, factored_cover, isop_cover
from repro.opt.truth import FULL


def build_factored(aig: Aig, node: FactorNode, leaf_lits: Sequence[int]) -> int:
    """Build a factored form into the AIG; returns the root literal."""
    if node.kind == "lit":
        lit = leaf_lits[node.var]
        return lit if node.positive else lit_not(lit)
    child_lits = [build_factored(aig, c, leaf_lits) for c in node.children]
    if node.kind == "and":
        if not child_lits:
            return 1  # empty AND is constant true
        return aig.add_and_multi(child_lits)
    if node.kind == "or":
        return aig.add_or_multi(child_lits)
    raise ValueError(f"unknown factor node kind {node.kind!r}")


def build_truth_factored(aig: Aig, truth: int, leaf_lits: Sequence[int]) -> int:
    """Build a function (given as a truth table over the leaves) via factoring."""
    num_vars = len(leaf_lits)
    mask = FULL[num_vars]
    truth &= mask
    if truth == 0:
        return 0
    if truth == mask:
        return 1
    # Factor whichever phase has the smaller cover, complementing at the end.
    cover_pos = isop_cover(truth, num_vars)
    cover_neg = isop_cover(truth ^ mask, num_vars)
    if sum(c.num_literals for c in cover_neg) < sum(c.num_literals for c in cover_pos):
        lit = build_factored(aig, factored_cover(truth ^ mask, num_vars), leaf_lits)
        return lit_not(lit)
    return build_factored(aig, factored_cover(truth, num_vars), leaf_lits)


def _balanced_tree(
    aig: Aig,
    operands: List[Tuple[float, int]],
    combine: str,
) -> Tuple[float, int]:
    """Combine (arrival, literal) operands with a delay-balanced AND/OR tree."""
    if not operands:
        return (0.0, 1 if combine == "and" else 0)
    heap = [(arr, i, lit) for i, (arr, lit) in enumerate(operands)]
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        arr0, _, lit0 = heapq.heappop(heap)
        arr1, _, lit1 = heapq.heappop(heap)
        if combine == "and":
            lit = aig.add_and(lit0, lit1)
        else:
            lit = aig.add_or(lit0, lit1)
        heapq.heappush(heap, (max(arr0, arr1) + 1, counter, lit))
        counter += 1
    arr, _, lit = heap[0]
    return arr, lit


def build_sop_balanced(
    aig: Aig,
    cubes: Sequence[Cube],
    leaf_lits: Sequence[int],
    leaf_arrivals: Optional[Sequence[float]] = None,
) -> Tuple[float, int]:
    """Build an SOP cover as arrival-balanced AND trees feeding a balanced OR tree.

    Returns (arrival estimate, literal).  This is the decomposition used by
    SOP balancing: the AND tree of each cube pairs late-arriving literals as
    close to the output as possible, and the OR tree does the same over cubes.
    """
    if leaf_arrivals is None:
        leaf_arrivals = [0.0] * len(leaf_lits)
    cube_results: List[Tuple[float, int]] = []
    for cube in cubes:
        operands = []
        for var, positive in cube.literals():
            lit = leaf_lits[var] if positive else lit_not(leaf_lits[var])
            operands.append((float(leaf_arrivals[var]), lit))
        if not operands:
            cube_results.append((0.0, 1))
            continue
        cube_results.append(_balanced_tree(aig, operands, "and"))
    return _balanced_tree(aig, cube_results, "or")


def sop_balanced_depth(cubes: Sequence[Cube], leaf_arrivals: Sequence[float]) -> float:
    """Estimate the arrival of an SOP decomposition without building nodes.

    Mirrors :func:`build_sop_balanced` on a scratch AIG-free Huffman merge.
    """
    def merge(arrivals: List[float]) -> float:
        if not arrivals:
            return 0.0
        heap = list(arrivals)
        heapq.heapify(heap)
        while len(heap) > 1:
            a = heapq.heappop(heap)
            b = heapq.heappop(heap)
            heapq.heappush(heap, max(a, b) + 1)
        return heap[0]

    cube_arr = []
    for cube in cubes:
        arrivals = [float(leaf_arrivals[var]) for var, _ in cube.literals()]
        cube_arr.append(merge(arrivals))
    return merge(cube_arr)


def build_truth_sop_balanced(
    aig: Aig,
    truth: int,
    leaf_lits: Sequence[int],
    leaf_arrivals: Optional[Sequence[float]] = None,
) -> Tuple[float, int]:
    """SOP-balanced realisation of a truth table; picks the cheaper output phase."""
    num_vars = len(leaf_lits)
    mask = FULL[num_vars]
    truth &= mask
    if truth == 0:
        return 0.0, 0
    if truth == mask:
        return 0.0, 1
    if leaf_arrivals is None:
        leaf_arrivals = [0.0] * len(leaf_lits)
    cover_pos = isop_cover(truth, num_vars)
    cover_neg = isop_cover(truth ^ mask, num_vars)
    depth_pos = sop_balanced_depth(cover_pos, leaf_arrivals)
    depth_neg = sop_balanced_depth(cover_neg, leaf_arrivals)
    if (depth_neg, sum(c.num_literals for c in cover_neg)) < (depth_pos, sum(c.num_literals for c in cover_pos)):
        arr, lit = build_sop_balanced(aig, cover_neg, leaf_lits, leaf_arrivals)
        return arr, lit_not(lit)
    return build_sop_balanced(aig, cover_pos, leaf_lits, leaf_arrivals)
