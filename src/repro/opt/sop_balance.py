"""SOP balancing (ABC's ``if -g``): delay-oriented AIG restructuring.

Following Mishchenko et al. (ICCAD'11), each node picks the K-feasible cut
whose ISOP, decomposed as arrival-balanced AND/OR trees, gives the smallest
arrival time.  The network is then covered from the outputs and rebuilt from
the selected cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.aig.graph import Aig, lit_var
from repro.opt.cuts import Cut, enumerate_cuts
from repro.opt.sop import isop_cover
from repro.opt.synth import build_truth_sop_balanced, sop_balanced_depth
from repro.opt.truth import FULL


@dataclass
class _NodeChoice:
    cut: Cut
    arrival: float


def _cut_arrival(cut: Cut, arrivals: Dict[int, float]) -> float:
    """Arrival of the SOP-balanced decomposition of ``cut``."""
    num_vars = cut.size
    mask = FULL[num_vars]
    truth = cut.truth & mask
    if truth in (0, mask):
        return 0.0
    leaf_arr = [arrivals[leaf] for leaf in cut.leaves]
    depth_pos = sop_balanced_depth(isop_cover(truth, num_vars), leaf_arr)
    depth_neg = sop_balanced_depth(isop_cover(truth ^ mask, num_vars), leaf_arr)
    return min(depth_pos, depth_neg)


def sop_balance(aig: Aig, k: int = 6, cut_limit: int = 8) -> Aig:
    """Delay-oriented SOP balancing with K-input cuts."""
    cuts = enumerate_cuts(aig, k=k, cut_limit=cut_limit)
    arrivals: Dict[int, float] = {0: 0.0}
    choices: Dict[int, _NodeChoice] = {}
    for var in aig.pis:
        arrivals[var] = 0.0

    for node in aig.and_nodes():
        best: Optional[_NodeChoice] = None
        for cut in cuts[node.var]:
            if cut.leaves == (node.var,) or cut.size < 2:
                continue
            if any(leaf not in arrivals for leaf in cut.leaves):
                continue
            arrival = _cut_arrival(cut, arrivals)
            if best is None or (arrival, cut.size) < (best.arrival, best.cut.size):
                best = _NodeChoice(cut=cut, arrival=arrival)
        if best is None:
            # Fall back to the node's own two-input cut.
            leaves = tuple(sorted({lit_var(node.fanin0), lit_var(node.fanin1)}))
            from repro.opt.cuts import cut_truth_table

            truth = cut_truth_table(aig, node.var, leaves)
            best = _NodeChoice(cut=Cut(leaves=leaves, truth=truth), arrival=max(arrivals[l] for l in leaves) + 1)
        choices[node.var] = best
        arrivals[node.var] = best.arrival

    # Cover from the outputs and rebuild.
    new = Aig(name=aig.name)
    old2new: Dict[int, int] = {0: 0}
    new_arrival: Dict[int, float] = {}
    for var in aig.pis:
        old2new[var] = new.add_pi(aig.node(var).name)
        new_arrival[var] = 0.0

    def realize(var: int) -> int:
        if var in old2new:
            return old2new[var]
        choice = choices[var]
        leaf_lits = [realize(leaf) for leaf in choice.cut.leaves]
        leaf_arr = [new_arrival.get(leaf, 0.0) for leaf in choice.cut.leaves]
        arr, lit = build_truth_sop_balanced(new, choice.cut.truth, leaf_lits, leaf_arr)
        old2new[var] = lit
        new_arrival[var] = arr
        return lit

    # Realise in topological order to keep recursion shallow.
    needed = set()
    stack = [lit_var(lit) for lit, _ in aig.pos]
    while stack:
        var = stack.pop()
        if var in needed or not aig.node(var).is_and:
            continue
        needed.add(var)
        stack.extend(choices[var].cut.leaves)
    for node in aig.and_nodes():
        if node.var in needed:
            realize(node.var)

    for lit, name in aig.pos:
        new.add_po(realize(lit_var(lit)) ^ (lit & 1), name)
    del realize  # realize holds itself through its closure cell: leave no cycle
    return new.cleanup()
