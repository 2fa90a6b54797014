"""K-feasible cut enumeration with truth-table computation.

Cuts are the workhorse of both DAG-aware rewriting and cut-based technology
mapping.  The enumeration follows the standard bottom-up merge procedure with
per-node priority-cut filtering (keep only the ``cut_limit`` best cuts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.opt.truth import FULL, MAX_VARS, VAR_MASKS, stretch


@dataclass(frozen=True)
class Cut:
    """A cut: a set of leaf variables and the truth table of the root over them.

    The truth table is an integer with ``2 ** len(leaves)`` valid bits, where
    leaf *i* corresponds to input variable *i* of the function (ordered as in
    ``leaves``).
    """

    leaves: Tuple[int, ...]
    truth: int

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True if this cut's leaves are a subset of the other's."""
        return set(self.leaves) <= set(other.leaves)


def merge_cuts(cut0: Cut, cut1: Cut, compl0: bool, compl1: bool, k: int) -> Optional[Cut]:
    """Merge two fanin cuts into a cut of the AND node, or None if > k leaves."""
    leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
    if len(leaves) > k:
        return None
    n = len(leaves)
    t0 = stretch(cut0.truth, tuple(map(leaves.index, cut0.leaves)), n)
    t1 = stretch(cut1.truth, tuple(map(leaves.index, cut1.leaves)), n)
    if compl0:
        t0 ^= FULL[n]
    if compl1:
        t1 ^= FULL[n]
    return Cut(leaves=leaves, truth=t0 & t1)


@dataclass
class CutSet:
    """Cuts of a single node, including the trivial cut."""

    var: int
    cuts: List[Cut] = field(default_factory=list)


def enumerate_cuts(
    aig: Aig,
    k: int = 4,
    cut_limit: int = 8,
    include_trivial: bool = True,
) -> Dict[int, List[Cut]]:
    """Enumerate up to ``cut_limit`` k-feasible cuts per variable.

    Returns a map from variable to its cut list.  PIs and the constant get only
    their trivial cut.  Cuts are kept sorted by (size, leaves) as a simple
    priority function; callers that need delay-aware priority re-sort.
    """
    if k > MAX_VARS:
        raise ValueError(f"cut size larger than {MAX_VARS} is not supported (truth tables grow too large)")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")
    cuts: Dict[int, List[Cut]] = {}
    cuts[0] = [Cut(leaves=(), truth=0)]
    for var in aig.pis:
        cuts[var] = [Cut(leaves=(var,), truth=VAR_MASKS[1][0])]
    for node in aig.and_nodes():
        v0, v1 = lit_var(node.fanin0), lit_var(node.fanin1)
        c0, c1 = lit_is_compl(node.fanin0), lit_is_compl(node.fanin1)
        merged: List[Cut] = []
        seen = set()
        for cut0 in cuts[v0]:
            for cut1 in cuts[v1]:
                cut = merge_cuts(cut0, cut1, c0, c1, k)
                if cut is None or cut.leaves in seen:
                    continue
                seen.add(cut.leaves)
                merged.append(cut)
        # Remove dominated cuts (a cut whose leaves are a superset of another's).
        filtered: List[Cut] = []
        for cut in sorted(merged, key=lambda c: (c.size, c.leaves)):
            if any(other.dominates(cut) and other.leaves != cut.leaves for other in filtered):
                continue
            filtered.append(cut)
        filtered = filtered[:cut_limit]
        if include_trivial:
            filtered.append(Cut(leaves=(node.var,), truth=VAR_MASKS[1][0]))
        cuts[node.var] = filtered
    return cuts


def cut_truth_table(aig: Aig, root: int, leaves: Sequence[int]) -> int:
    """Truth table of ``root`` (a variable) as a function of ``leaves``.

    Computed by local simulation of the cone between the leaves and the root.
    """
    n = len(leaves)
    values: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        values[leaf] = VAR_MASKS[n][i]
    mask = FULL[n]

    def eval_var(var: int) -> int:
        if var in values:
            return values[var]
        node = aig.node(var)
        if not node.is_and:
            raise ValueError(f"variable {var} is not inside the cut cone")
        v0 = eval_var(lit_var(node.fanin0))
        if lit_is_compl(node.fanin0):
            v0 ^= mask
        v1 = eval_var(lit_var(node.fanin1))
        if lit_is_compl(node.fanin1):
            v1 ^= mask
        values[var] = v0 & v1
        return values[var]

    return eval_var(root)


def cut_cone_volume(aig: Aig, root: int, leaves: Sequence[int]) -> int:
    """Number of AND nodes strictly inside the cut cone (root included)."""
    leaf_set = set(leaves)
    seen = set()
    stack = [root]
    count = 0
    while stack:
        var = stack.pop()
        if var in seen or var in leaf_set:
            continue
        seen.add(var)
        node = aig.node(var)
        if node.is_and:
            count += 1
            stack.append(lit_var(node.fanin0))
            stack.append(lit_var(node.fanin1))
    return count
