"""Cut-based technology mapping with priority cuts and optional choices.

The mapper performs delay-oriented Boolean matching: every AND node selects
the (cut, gate) pair minimising its arrival time, an area-recovery pass then
relaxes off-critical nodes toward cheaper matches, and finally the network is
covered from the primary outputs into a gate-level netlist.

Structural choices (equivalence classes computed by :mod:`repro.opt.dch`) are
supported by letting a class representative use the cuts of every member of
its class, which is how lossless-synthesis choice mapping mitigates
structural bias.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.mapping.choices import ChoiceClasses
from repro.mapping.library import Gate, GateMatch, Library, default_library
from repro.mapping.netlist import Netlist
from repro.opt.cuts import Cut, enumerate_cuts
from repro.opt.truth import permute


@dataclass
class _Match:
    leaves: Tuple[int, ...]
    match: GateMatch
    arrival: float
    area_flow: float


@dataclass
class MappingResult:
    """Outcome of technology mapping.

    ``nodes_evaluated`` counts the AND nodes whose candidate cuts were
    priced and ``cuts_priced`` the distinct ``(leaves, truth)`` pairs looked
    up in the library.
    """

    netlist: Netlist
    area: float
    delay: float
    levels: int
    runtime: float
    num_gates: int
    nodes_evaluated: int = 0
    cuts_priced: int = 0


#: ``priced`` value of a ``(leaves, truth)`` pair not looked up yet.
_UNPRICED = object()
#: Start value of a pin-arrival maximum (below every arrival).
_NO_ARRIVAL = float("-inf")

#: A priced cut is ``(gate delay, leaf of each pin, inverter delay or 0.0 of
#: each pin, output negated, base area, leaves, index)``: the base area is
#: the gate's plus its inverters', and ``index`` numbers the priced cut (its
#: match is ``gate_matches[index]``).  The per-pin tuples are shared by
#: every cut of the same function, so pricing a cut allocates two tuples:
#: this record and its dict key.
PricedCut = Tuple[float, Tuple[int, ...], Tuple[float, ...], bool, float, Tuple[int, ...], int]


def map_aig(
    aig: Aig,
    library: Optional[Library] = None,
    k: Optional[int] = None,
    cut_limit: int = 8,
    choices: Optional[ChoiceClasses] = None,
    area_recovery: bool = True,
) -> MappingResult:
    """Map an AIG onto the standard-cell library (delay-oriented).

    ``choices`` adds structural choices: the cut set of a node is extended
    with the cuts of every choice-equivalent node (with leaves remapped to
    class representatives).

    Within one call each cut function is matched against the library once,
    each distinct ``(leaves, truth)`` pair is priced once, each class
    member's cuts are remapped once, and each node's candidate list (its own
    cuts, then every other member's in class order, trivial, unmatched and
    repeated pairs dropped) is built once and reused by area recovery.
    Dropping a repeat cannot change a choice: the first of equal candidates
    wins every comparison.  ``k`` below 2 raises ``ValueError``: no gate
    input can be matched by a one-leaf cut of an AND node.
    """
    start = time.perf_counter()
    if library is None:
        library = default_library()
    if k is None:
        k = min(4, library.max_gate_inputs())
    if k < 2:
        raise ValueError(f"map_aig needs a cut size k of at least 2 (got {k}): smaller cuts match no gate")
    cuts = enumerate_cuts(aig, k=k, cut_limit=cut_limit)
    inv = library.inverter
    inv_delay = inv.delay
    inv_area = inv.area

    def repr_of(var: int) -> int:
        return choices.representative(var) if choices is not None else var

    and_vars = [node.var for node in aig.and_nodes()]
    divisors = [max(1.0, float(count)) for count in aig.fanout_counts()]
    # Every cut leaf is below its node, so in topological order its arrival
    # and area flow are final when the node is evaluated.  ``area_flows``
    # mirrors ``best_match`` (0.0 for the constant, PIs and unmapped nodes).
    arrivals = [0.0] * aig.num_nodes
    area_flows = [0.0] * aig.num_nodes
    best_match: Dict[int, _Match] = {}
    priced: Dict[Tuple[Tuple[int, ...], int], Optional[PricedCut]] = {}
    gate_matches: List[GateMatch] = []
    # Per cut function: (gate delay, leaf of each pin, pin inverter delays,
    # output negated, base area, match), or None when no gate matches.
    shapes: Dict[Tuple[int, int], Optional[tuple]] = {}
    remapped: Dict[int, Tuple[List[int], List[PricedCut]]] = {}
    candidates: Dict[int, List[PricedCut]] = {}

    def price(leaves: Tuple[int, ...], truth: int) -> Optional[PricedCut]:
        key = (leaves, truth)
        cut = priced.get(key, _UNPRICED)
        if cut is not _UNPRICED:
            return cut
        function = (len(leaves), truth)
        shape = shapes.get(function, _UNPRICED)
        if shape is _UNPRICED:
            matched = library.match(truth, len(leaves)) if leaves else None
            if matched is None:
                shape = None
            else:
                gate = matched.gate
                pin_delays = tuple(inv_delay if negated else 0.0 for negated in matched.pin_negated)
                base = gate.area + inv_area * matched.num_inverters
                shape = (gate.delay, matched.leaf_of_pin, pin_delays, matched.output_negated, base, matched)
            shapes[function] = shape
        if shape is None:
            cut = None
        else:
            gate_delay, leaf_of_pin, pin_delays, output_negated, base, matched = shape
            cut = (gate_delay, leaf_of_pin, pin_delays, output_negated, base, leaves, len(gate_matches))
            gate_matches.append(matched)
        priced[key] = cut
        return cut

    def member_cuts(member: int) -> Tuple[List[int], List[PricedCut]]:
        """The matched cuts of ``member`` with leaves renamed to
        representatives, collisions dropped, and each one's largest leaf."""
        found = remapped.get(member)
        if found is None:
            found = ([], [])
            for cut in cuts.get(member, []):
                leaves = cut.leaves
                renamed = [repr_of(leaf) for leaf in leaves]
                ordered = tuple(sorted(set(renamed)))
                if len(ordered) != len(leaves):
                    continue  # leaf collision after remapping changes the function
                if ordered == leaves:
                    priced_cut = price(leaves, cut.truth)
                else:
                    # Remap leaves to representatives, permuting the truth table.
                    moved = _remap_cut(cut, dict(zip(leaves, renamed)))
                    priced_cut = price(moved.leaves, moved.truth)
                if priced_cut is not None:
                    found[0].append(ordered[-1] if ordered else -1)
                    found[1].append(priced_cut)
            remapped[member] = found
        return found

    def candidate_cuts(var: int) -> List[PricedCut]:
        cands = []
        for cut in cuts[var]:
            leaves = cut.leaves
            if leaves != (var,):
                priced_cut = price(leaves, cut.truth)
                if priced_cut is not None:
                    cands.append(priced_cut)
        others = [m for m in choices.class_members(var) if m != var] if choices is not None else ()
        if others:
            seen = {priced_cut[6] for priced_cut in cands}
            for member in others:
                for top, priced_cut in zip(*member_cuts(member)):
                    # Keep the cover graph topologically ordered: a choice
                    # cut may only read representatives defined before this
                    # node, otherwise covering could become cyclic.
                    if top < var and priced_cut[6] not in seen:
                        seen.add(priced_cut[6])
                        cands.append(priced_cut)
        return cands

    def evaluate(var: int, relax_to: Optional[float] = None) -> Optional[_Match]:
        """Best match for ``var``; if ``relax_to`` is given, minimise area flow
        among matches meeting that arrival requirement."""
        cands = candidates.get(var)
        if cands is None:
            cands = candidates[var] = candidate_cuts(var)
        best = None
        best_arrival = best_flow = 0.0
        limit = None if relax_to is None else relax_to + 1e-9
        for cut in cands:
            gate_delay, leaf_of_pin, pin_delays, output_negated, flow, leaves, _ = cut
            worst = _NO_ARRIVAL
            for leaf_idx, pin_delay in zip(leaf_of_pin, pin_delays):
                pin_arrival = arrivals[leaves[leaf_idx]] + pin_delay
                if pin_arrival > worst:
                    worst = pin_arrival
            arrival = gate_delay + worst
            if output_negated:
                arrival += inv_delay
            if limit is None:
                # Delay first: the area flow only matters on an arrival tie.
                if best is not None and arrival > best_arrival:
                    continue
                for leaf in leaves:
                    flow += area_flows[leaf] / divisors[leaf]
                if best is None or arrival < best_arrival or flow < best_flow:
                    best, best_arrival, best_flow = cut, arrival, flow
            else:
                if arrival > limit:
                    continue
                for leaf in leaves:
                    flow += area_flows[leaf] / divisors[leaf]
                if best is None or flow < best_flow or (flow == best_flow and arrival < best_arrival):
                    best, best_arrival, best_flow = cut, arrival, flow
        if best is None:
            return None
        return _Match(leaves=best[5], match=gate_matches[best[6]], arrival=best_arrival, area_flow=best_flow)

    # Pass 1: delay-oriented matching.
    for var in and_vars:
        match = evaluate(var)
        if match is None:
            raise RuntimeError(f"no library match found for node {var}")
        best_match[var] = match
        arrivals[var] = match.arrival
        area_flows[var] = match.area_flow

    # Pass 2: area recovery on off-critical nodes.
    if area_recovery:
        required = _compute_required(aig, and_vars, arrivals, best_match, inv)
        for var in reversed(and_vars):
            req = required.get(var)
            if req is None:
                continue
            relaxed = evaluate(var, relax_to=req)
            if relaxed is not None and relaxed.area_flow < best_match[var].area_flow - 1e-9:
                best_match[var] = relaxed
                arrivals[var] = relaxed.arrival
                area_flows[var] = relaxed.area_flow

    # Pass 3: cover from the primary outputs.
    netlist = Netlist(name=aig.name, library=library)
    netlist.primary_inputs = [aig.node(v).name or f"pi{v}" for v in aig.pis]
    net_of: Dict[int, str] = {v: (aig.node(v).name or f"pi{v}") for v in aig.pis}
    net_of[0] = "const0"
    inverted_net: Dict[int, str] = {}
    visited: set = set()
    order: List[int] = []

    po_vars = [lit_var(lit) for lit, _ in aig.pos]
    # Iterative selection to avoid deep recursion on large circuits.
    sel_stack: List[Tuple[int, bool]] = [(repr_of(v), False) for v in po_vars]
    visited_iter: set = set()
    while sel_stack:
        var, expanded = sel_stack.pop()
        if var == 0 or aig.node(var).is_pi:
            continue
        if expanded:
            if var not in visited:
                visited.add(var)
                order.append(var)
            continue
        if var in visited or var in visited_iter:
            continue
        visited_iter.add(var)
        sel_stack.append((var, True))
        for leaf in best_match[var].leaves:
            sel_stack.append((repr_of(leaf), False))

    def negated(var: int) -> str:
        """Net carrying the complement of variable ``var`` (one shared inverter)."""
        if var not in inverted_net:
            net = f"n{var}_inv"
            netlist.add_gate(inv, net, [net_of[var]])
            inverted_net[var] = net
        return inverted_net[var]

    # Constants referenced anywhere get a constant net.
    if any(lit_var(lit) == 0 for lit, _ in aig.pos) or 0 in {
        repr_of(leaf) for v in order for leaf in best_match[v].leaves
    }:
        netlist.constants["const0"] = 0

    for var in order:
        chosen = best_match[var]
        gate_match = chosen.match
        input_nets: List[str] = []
        for pin, leaf_idx in enumerate(gate_match.leaf_of_pin):
            leaf = repr_of(chosen.leaves[leaf_idx])
            if leaf == 0 and "const0" not in netlist.constants:
                netlist.constants["const0"] = 0
            net = net_of[leaf]
            if gate_match.pin_negated[pin]:
                net = negated(leaf)
            input_nets.append(net)
        out_net = f"n{var}"
        if gate_match.output_negated:
            raw_net = f"n{var}_raw"
            netlist.add_gate(gate_match.gate, raw_net, input_nets)
            netlist.add_gate(inv, out_net, [raw_net])
        else:
            netlist.add_gate(gate_match.gate, out_net, input_nets)
        net_of[var] = out_net

    for i, (lit, name) in enumerate(aig.pos):
        var = repr_of(lit_var(lit))
        out_name = name or f"po{i}"
        if var == 0:
            netlist.constants[out_name] = 1 if lit_is_compl(lit) else 0
            netlist.primary_outputs.append(out_name)
            continue
        driver = net_of[var]
        if lit_is_compl(lit):
            driver = negated(var)
        # Tie the PO name to the driving net with a buffer-free alias: we simply
        # record the driving net as the output net name in the netlist.
        netlist.primary_outputs.append(driver)

    area = netlist.area
    delay = netlist.delay
    levels = _netlist_levels(netlist)
    runtime = time.perf_counter() - start
    return MappingResult(
        netlist=netlist,
        area=area,
        delay=delay,
        levels=levels,
        runtime=runtime,
        num_gates=netlist.num_gates,
        nodes_evaluated=len(candidates),
        cuts_priced=len(priced),
    )


def _compute_required(
    aig: Aig, and_vars: List[int], arrivals: List[float], best_match: Dict[int, _Match], inv: Gate
) -> Dict[int, float]:
    """Required times given the current matches (POs required at the worst arrival)."""
    po_vars = [lit_var(lit) for lit, _ in aig.pos]
    if not po_vars:
        return {}
    target = max(arrivals[v] for v in po_vars)
    required: Dict[int, float] = {v: target for v in po_vars}
    for var in reversed(and_vars):
        if var not in required or var not in best_match:
            continue
        match = best_match[var]
        gate_match = match.match
        req_here = required[var] - gate_match.gate.delay - (inv.delay if gate_match.output_negated else 0.0)
        for leaf in match.leaves:
            if leaf == 0 or aig.node(leaf).is_pi:
                continue
            required[leaf] = min(required.get(leaf, req_here), req_here)
    return required


def _netlist_levels(netlist: Netlist) -> int:
    """Logic depth of the mapped netlist in gate levels."""
    levels: Dict[str, int] = {net: 0 for net in netlist.primary_inputs}
    for net in netlist.constants:
        levels[net] = 0
    for inst in netlist.gates:
        levels[inst.output] = 1 + max((levels.get(net, 0) for net in inst.inputs), default=0)
    if not netlist.primary_outputs:
        return 0
    return max(levels.get(net, 0) for net in netlist.primary_outputs)


def _remap_cut(cut: Cut, mapping: Dict[int, int]) -> Optional[Cut]:
    """Rename cut leaves according to ``mapping``, permuting the truth table."""
    renamed = [mapping[leaf] for leaf in cut.leaves]
    if len(set(renamed)) != len(renamed):
        return None
    # Input position j of the new truth table reads the old input order[j].
    order = tuple(sorted(range(len(renamed)), key=renamed.__getitem__))
    return Cut(leaves=tuple(renamed[i] for i in order), truth=permute(cut.truth, order))
