"""K-feasible cut enumeration with truth-table computation.

Cuts are the workhorse of both DAG-aware rewriting and cut-based technology
mapping.  The enumeration follows the standard bottom-up merge procedure with
per-node priority-cut filtering (keep only the ``cut_limit`` best cuts).

While the cuts are enumerated, each one carries a leaf signature: bit
``leaf % SIG_BITS`` of one word per leaf, as in ABC's cut signatures.  The
signature of a union is the OR of the signatures, its bit count is a lower
bound on the union's size, and a subset's signature is a subset of the
superset's.  So most fanin pairs are rejected, and most dominance tests
answered, without building a leaf set.  A signature has a fixed width: it
does not grow with the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.obs import trace as obs
from repro.opt.truth import FULL, MAX_VARS, VAR_MASKS, stretch

#: Width of a leaf signature: leaf ``v`` sets bit ``v % SIG_BITS``.
SIG_BITS = 64


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


def popcount_fallback(word: int) -> int:
    """Number of set bits of a non-negative ``word`` (for Pythons before 3.10)."""
    return bin(word).count("1")


#: Number of set bits of a non-negative int: ``int.bit_count`` where it exists.
popcount = getattr(int, "bit_count", popcount_fallback)


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

    An AND node's cuts are the distinct leaf unions of its fanins' cut pairs
    with at most ``k`` leaves (the first pair forming a union gives its truth
    table), minus every union that strictly contains another, the first
    ``cut_limit`` of them in (size, leaves) order, then the trivial cut.
    Only the kept unions are stretched into truth tables.  Stopping at
    ``cut_limit`` is exact: a union can only be contained in a smaller one,
    which comes earlier in that order.

    Records one ``cut enumeration`` span (category ``opt.cuts``) with the
    AND ``nodes`` enumerated, the fanin cut ``pairs`` tried, the pairs
    rejected as ``too_wide`` and the non-trivial cuts ``kept``.
    """
    if k < 1:
        raise ValueError(f"cut size k must be at least 1 (got {k})")
    if k > MAX_VARS:
        raise ValueError(f"cut size larger than {MAX_VARS} is not supported (truth tables grow too large)")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")
    with obs.span("cut enumeration", category="opt.cuts", k=k) as span:
        cuts, counts = _enumerate(aig, k, cut_limit, include_trivial)
        for name, value in counts.items():
            span.set(name, value)
    return cuts


def _enumerate(
    aig: Aig, k: int, cut_limit: int, include_trivial: bool
) -> Tuple[Dict[int, List[Cut]], Dict[str, int]]:
    # ``stretch`` and ``VAR_MASKS`` are read through the module on each call.
    expand = stretch
    unit = VAR_MASKS[1][0]
    count_bits = popcount
    full = FULL
    cuts: Dict[int, List[Cut]] = {0: [Cut(leaves=(), truth=0)]}
    # ``sigs[var][i]``: the leaf signature of ``cuts[var][i]``.
    sigs: Dict[int, List[int]] = {0: [0]}
    for var in aig.pis:
        cuts[var] = [Cut(leaves=(var,), truth=unit)]
        sigs[var] = [1 << (var % SIG_BITS)]
    nodes = pairs = fitting = kept = 0
    for node in aig.and_nodes():
        var = node.var
        v0, v1 = lit_var(node.fanin0), lit_var(node.fanin1)
        cuts0, cuts1, sigs1 = cuts[v0], cuts[v1], sigs[v1]
        nodes += 1
        pairs += len(cuts0) * len(cuts1)
        # Distinct unions of at most k leaves, in order of their first pair.
        first: Dict[Tuple[int, ...], Tuple[int, Cut, Cut]] = {}
        for cut0, sig0 in zip(cuts0, sigs[v0]):
            leaves0 = cut0.leaves
            for cut1, sig1 in zip(cuts1, sigs1):
                sig = sig0 | sig1
                if count_bits(sig) > k:
                    continue
                leaves = tuple(sorted({*leaves0, *cut1.leaves}))
                if len(leaves) > k:
                    continue
                fitting += 1
                if leaves not in first:
                    first[leaves] = (sig, cut0, cut1)
        order = sorted(first)
        order.sort(key=len)
        chosen: List[Tuple[int, Tuple[int, ...]]] = []
        for leaves in order:
            sig = first[leaves][0]
            # The unions are distinct, so a kept subset is a strict one.
            for other_sig, other in chosen:
                if other_sig | sig == sig and set(other).issubset(leaves):
                    break
            else:
                chosen.append((sig, leaves))
                if len(chosen) == cut_limit:
                    break
        kept += len(chosen)
        compl0, compl1 = lit_is_compl(node.fanin0), lit_is_compl(node.fanin1)
        node_cuts: List[Cut] = []
        node_sigs: List[int] = []
        for sig, leaves in chosen:
            _, cut0, cut1 = first[leaves]
            n = len(leaves)
            t0 = expand(cut0.truth, tuple(map(leaves.index, cut0.leaves)), n)
            t1 = expand(cut1.truth, tuple(map(leaves.index, cut1.leaves)), n)
            if compl0:
                t0 ^= full[n]
            if compl1:
                t1 ^= full[n]
            node_cuts.append(Cut(leaves=leaves, truth=t0 & t1))
            node_sigs.append(sig)
        if include_trivial:
            node_cuts.append(Cut(leaves=(var,), truth=unit))
            node_sigs.append(1 << (var % SIG_BITS))
        cuts[var] = node_cuts
        sigs[var] = node_sigs
    counts = {"nodes": nodes, "pairs": pairs, "too_wide": pairs - fitting, "kept": kept}
    return cuts, counts


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
