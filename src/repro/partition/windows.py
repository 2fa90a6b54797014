"""Window decomposition of an AIG: the "divide" half of partition-and-conquer.

A :class:`Window` is a set of host AND variables with explicit boundary
semantics: ``inputs`` are the host variables (PIs or AND nodes of other
windows) feeding the window from outside, ``outputs`` are the member
variables visible outside it (referenced by another window's nodes or by a
primary output).  Each window carries its own extracted sub-:class:`Aig`
(one PI per boundary input, one PO per boundary output, members strashed in
host topological order) — the unit the conquer stage saturates, extracts,
CEC-checks, and splices back.

Both partitioners produce *convex* decompositions: windows are packed from
units (fanout-free cones, or single nodes in level order) along a
topological order, so every boundary input of window ``i`` is a PI or a
member of a window ``j < i``.  That invariant is what lets the stitcher
materialise windows in index order with no cyclic dependencies, and it is
checked by :func:`check_partition`.

Decompositions are pure functions of ``(aig, k, method, seed)``: the seed
shifts the cut phase (the first window's capacity), giving a different but
equally valid decomposition per seed — useful for portfolio-style
partitioning sweeps — while staying fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.aig.graph import CONST0, Aig, lit_var
from repro.aig.levels import compute_levels

#: Registered partitioning methods (``partition(method=...)`` in the DSL).
PARTITION_METHODS = ("cone", "window")


@dataclass
class Window:
    """One partition window over a host AIG.

    ``members`` / ``inputs`` / ``outputs`` are host variable indices in
    ascending (topological) order; ``aig`` is the extracted sub-circuit with
    ``len(inputs)`` PIs (in ``inputs`` order) and ``len(outputs)`` POs (in
    ``outputs`` order).
    """

    index: int
    members: List[int]
    inputs: List[int]
    outputs: List[int]
    aig: Aig

    @property
    def num_members(self) -> int:
        """Host AND nodes the window covers."""
        return len(self.members)

    def summary(self) -> Dict[str, int]:
        """The window's shape: index, members, boundary widths, sub-AIG ANDs."""
        return {
            "index": self.index,
            "members": len(self.members),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "sub_ands": self.aig.num_ands,
        }


def _and_parents_and_po_refs(aig: Aig) -> Tuple[Dict[int, List[int]], List[int]]:
    """Per-variable AND fanout lists and PO reference counts."""
    parents: Dict[int, List[int]] = {}
    po_refs = [0] * aig.num_nodes
    for node in aig.and_nodes():
        parents.setdefault(lit_var(node.fanin0), []).append(node.var)
        parents.setdefault(lit_var(node.fanin1), []).append(node.var)
    for lit, _ in aig.pos:
        po_refs[lit_var(lit)] += 1
    return parents, po_refs


def _cone_units(aig: Aig, parents: Dict[int, List[int]], po_refs: Sequence[int]) -> List[List[int]]:
    """Fanout-free cones, one per root, ordered topologically by root.

    A variable is a cone *root* when it is referenced by a primary output or
    by anything other than exactly one AND node; every single-fanout internal
    node joins its unique parent's cone.  Roots sorted by creation index are
    a valid topological order of the cone DAG (every inter-cone edge goes
    from a smaller root to a cone whose members — hence root — are larger).
    """
    root_of: Dict[int, int] = {}
    and_vars = [node.var for node in aig.and_nodes()]
    for var in reversed(and_vars):
        var_parents = parents.get(var, ())
        if po_refs[var] > 0 or len(var_parents) != 1:
            root_of[var] = var
        else:
            root_of[var] = root_of[var_parents[0]]
    cones: Dict[int, List[int]] = {}
    for var in and_vars:
        cones.setdefault(root_of[var], []).append(var)
    return [cones[root] for root in sorted(cones)]


def _level_units(aig: Aig) -> List[List[int]]:
    """Single-node units in ``(level, var)`` order — structural level cuts.

    ``(level, var)`` is a topological order (every fanin sits at a strictly
    smaller level), so consecutive packing stays convex while grouping nodes
    of similar depth into the same window.
    """
    levels = compute_levels(aig)
    ordered = sorted((node.var for node in aig.and_nodes()), key=lambda v: (levels[v], v))
    return [[var] for var in ordered]


def _pack_units(units: List[List[int]], k: int, seed: int) -> List[List[int]]:
    """Pack topologically ordered units into windows of at most ``k`` members.

    The seed shifts the cut phase: the first window's capacity is reduced by
    ``seed % k``, after which every window takes ``k``.  A unit larger than
    the remaining capacity closes the current window; an oversized unit
    (a cone bigger than ``k``) becomes a window of its own.
    """
    windows: List[List[int]] = []
    current: List[int] = []
    capacity = k - (seed % k) if k > 0 else k
    if capacity <= 0:
        capacity = k
    for unit in units:
        if current and len(current) + len(unit) > capacity:
            windows.append(current)
            current = []
            capacity = k
        current.extend(unit)
    if current:
        windows.append(current)
    return windows


def extract_window(
    aig: Aig,
    index: int,
    members: Sequence[int],
    parents: Dict[int, List[int]],
    po_refs: Sequence[int],
) -> Window:
    """Materialise one window: boundary analysis plus the sub-AIG."""
    member_set = set(members)
    ordered = sorted(member_set)
    inputs: List[int] = []
    seen_inputs = set()
    outputs: List[int] = []
    for var in ordered:
        node = aig.node(var)
        for fanin in (node.fanin0, node.fanin1):
            fv = lit_var(fanin)
            if fv != 0 and fv not in member_set and fv not in seen_inputs:
                seen_inputs.add(fv)
                inputs.append(fv)
        if po_refs[var] > 0 or any(p not in member_set for p in parents.get(var, ())):
            outputs.append(var)
    inputs.sort()

    sub = Aig(name=f"{aig.name}_w{index}")
    var_map: Dict[int, int] = {0: CONST0}
    for var in inputs:
        var_map[var] = sub.add_pi(f"v{var}")

    def map_lit(lit: int) -> int:
        return var_map[lit_var(lit)] ^ (lit & 1)

    for var in ordered:
        node = aig.node(var)
        var_map[var] = sub.add_and(map_lit(node.fanin0), map_lit(node.fanin1))
    for var in outputs:
        sub.add_po(var_map[var], f"o{var}")
    return Window(index=index, members=ordered, inputs=inputs, outputs=outputs, aig=sub)


def partition_aig(aig: Aig, k: int = 500, method: str = "cone", seed: int = 0) -> List[Window]:
    """Decompose an AIG into optimization windows of at most ``k`` AND nodes.

    ``method="cone"`` clusters fanout-free cones (whole cones never straddle
    a window boundary, keeping boundaries small); ``method="window"`` cuts
    structurally along the level order.  Every AND node lands in exactly one
    window; the returned list is topologically ordered (see module docstring).
    """
    if k < 1:
        raise ValueError("window capacity k must be >= 1")
    if method not in PARTITION_METHODS:
        raise ValueError(f"unknown partition method {method!r}; choose from {', '.join(PARTITION_METHODS)}")
    parents, po_refs = _and_parents_and_po_refs(aig)
    if method == "cone":
        units = _cone_units(aig, parents, po_refs)
    else:
        units = _level_units(aig)
    packed = _pack_units(units, k, seed)
    return [
        extract_window(aig, index, members, parents, po_refs)
        for index, members in enumerate(packed)
    ]


def check_partition(aig: Aig, windows: Sequence[Window]) -> None:
    """Validate the partition invariants; raises ``ValueError`` on violation.

    Checks: every AND variable is in exactly one window; every boundary
    input is a PI or a member of an *earlier* window (convexity); window
    outputs cover everything referenced from outside.
    """
    owner: Dict[int, int] = {}
    for window in windows:
        for var in window.members:
            if var in owner:
                raise ValueError(f"variable {var} is in windows {owner[var]} and {window.index}")
            owner[var] = window.index
    for node in aig.and_nodes():
        if node.var not in owner:
            raise ValueError(f"AND variable {node.var} is in no window")
    pi_vars = set(aig.pis)
    for window in windows:
        exported = set(window.outputs)
        for var in window.inputs:
            if var in pi_vars:
                continue
            source = owner.get(var)
            if source is None:
                raise ValueError(f"window {window.index} input {var} is neither a PI nor owned")
            if source >= window.index:
                raise ValueError(
                    f"window {window.index} depends on window {source} (non-convex decomposition)"
                )
            if var not in windows[source].outputs:
                raise ValueError(f"window {source} does not export {var} needed by {window.index}")
        if len(exported) != len(window.outputs):
            raise ValueError(f"window {window.index} exports a duplicate output")
    for lit, _ in aig.pos:
        var = lit_var(lit)
        if var != 0 and var not in pi_vars:
            window = windows[owner[var]]
            if var not in window.outputs:
                raise ValueError(f"PO driver {var} is not exported by window {window.index}")
