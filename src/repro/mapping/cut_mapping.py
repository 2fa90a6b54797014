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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.mapping.choices import ChoiceClasses
from repro.mapping.library import Gate, GateMatch, Library, default_library
from repro.mapping.netlist import Netlist
from repro.opt.cuts import Cut, enumerate_cuts
from repro.opt.truth import permute


@dataclass
class _Match:
    cut: Cut
    match: GateMatch
    arrival: float
    area_flow: float


@dataclass
class MappingResult:
    """Outcome of technology mapping."""

    netlist: Netlist
    area: float
    delay: float
    levels: int
    runtime: float
    num_gates: int

    def as_dict(self) -> Dict[str, float]:
        """QoR and runtime as a plain dict."""
        return {
            "area": self.area,
            "delay": self.delay,
            "levels": self.levels,
            "runtime": self.runtime,
            "num_gates": self.num_gates,
        }


def _matches_for_cut(cut: Cut, library: Library) -> Optional[GateMatch]:
    if cut.size == 0:
        return None
    return library.match(cut.truth, cut.size)


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
    """
    start = time.perf_counter()
    if library is None:
        library = default_library()
    if k is None:
        k = min(4, library.max_gate_inputs())
    cuts = enumerate_cuts(aig, k=k, cut_limit=cut_limit)
    inv = library.inverter

    def repr_of(var: int) -> int:
        return choices.representative(var) if choices is not None else var

    arrivals: Dict[int, float] = {0: 0.0}
    est_refs: Dict[int, float] = {}
    best_match: Dict[int, _Match] = {}
    fanouts = aig.fanout_counts()
    for var in aig.pis:
        arrivals[var] = 0.0

    def candidate_cuts(var: int) -> List[Cut]:
        cands = list(cuts[var])
        if choices is not None:
            for member in choices.class_members(var):
                if member == var:
                    continue
                for cut in cuts.get(member, []):
                    remapped = tuple(sorted({repr_of(leaf) for leaf in cut.leaves}))
                    if len(remapped) != len(cut.leaves):
                        continue  # leaf collision after remapping changes the function
                    if any(leaf >= var for leaf in remapped):
                        # Keep the cover graph topologically ordered: a choice
                        # cut may only read representatives defined before this
                        # node, otherwise covering could become cyclic.
                        continue
                    if remapped == cut.leaves:
                        cands.append(cut)
                    else:
                        # Remap leaves to representatives, permuting the truth table.
                        perm_cut = _remap_cut(cut, {leaf: repr_of(leaf) for leaf in cut.leaves})
                        if perm_cut is not None:
                            cands.append(perm_cut)
        return cands

    def evaluate(var: int, relax_to: Optional[float] = None) -> Optional[_Match]:
        """Best match for ``var``; if ``relax_to`` is given, minimise area flow
        among matches meeting that arrival requirement."""
        best: Optional[_Match] = None
        for cut in candidate_cuts(var):
            if cut.size < 1 or cut.leaves == (var,):
                continue
            if any(leaf not in arrivals for leaf in cut.leaves):
                continue
            matched = _matches_for_cut(cut, library)
            if matched is None:
                continue
            gate = matched.gate
            pin_arrivals = []
            for pin, leaf_idx in enumerate(matched.leaf_of_pin):
                leaf = cut.leaves[leaf_idx]
                pin_arrival = arrivals[leaf] + (inv.delay if matched.pin_negated[pin] else 0.0)
                pin_arrivals.append(pin_arrival)
            arrival = gate.delay + (max(pin_arrivals) if pin_arrivals else 0.0)
            if matched.output_negated:
                arrival += inv.delay
            flow = gate.area + inv.area * matched.num_inverters
            for leaf in cut.leaves:
                leaf_refs = max(1.0, float(fanouts[leaf] if leaf < len(fanouts) else 1))
                flow += _leaf_area_flow(leaf, best_match, aig) / leaf_refs
            match = _Match(cut=cut, match=matched, arrival=arrival, area_flow=flow)
            if relax_to is None:
                key = (match.arrival, match.area_flow)
                best_key = (best.arrival, best.area_flow) if best else None
            else:
                if match.arrival > relax_to + 1e-9:
                    continue
                key = (match.area_flow, match.arrival)
                best_key = (best.area_flow, best.arrival) if best else None
            if best is None or key < best_key:
                best = match
        return best

    # Pass 1: delay-oriented matching.
    for node in aig.and_nodes():
        match = evaluate(node.var)
        if match is None:
            raise RuntimeError(f"no library match found for node {node.var}")
        best_match[node.var] = match
        arrivals[node.var] = match.arrival

    # Pass 2: area recovery on off-critical nodes.
    if area_recovery:
        required = _compute_required(aig, arrivals, best_match, inv)
        for node in reversed(list(aig.and_nodes())):
            req = required.get(node.var)
            if req is None:
                continue
            relaxed = evaluate(node.var, relax_to=req)
            if relaxed is not None and relaxed.area_flow < best_match[node.var].area_flow - 1e-9:
                best_match[node.var] = relaxed
                arrivals[node.var] = relaxed.arrival

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
        for leaf in best_match[var].cut.leaves:
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
        repr_of(leaf) for v in order for leaf in best_match[v].cut.leaves
    }:
        netlist.constants["const0"] = 0

    for var in order:
        chosen = best_match[var]
        gate_match = chosen.match
        input_nets: List[str] = []
        for pin, leaf_idx in enumerate(gate_match.leaf_of_pin):
            leaf = repr_of(chosen.cut.leaves[leaf_idx])
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
        netlist=netlist, area=area, delay=delay, levels=levels, runtime=runtime, num_gates=netlist.num_gates
    )


def _leaf_area_flow(leaf: int, best_match: Dict[int, _Match], aig: Aig) -> float:
    if leaf == 0 or aig.node(leaf).is_pi:
        return 0.0
    match = best_match.get(leaf)
    return match.area_flow if match is not None else 0.0


def _compute_required(
    aig: Aig, arrivals: Dict[int, float], best_match: Dict[int, _Match], inv: Gate
) -> Dict[int, float]:
    """Required times given the current matches (POs required at the worst arrival)."""
    po_vars = [lit_var(lit) for lit, _ in aig.pos]
    if not po_vars:
        return {}
    target = max(arrivals.get(v, 0.0) for v in po_vars)
    required: Dict[int, float] = {v: target for v in po_vars}
    for node in reversed(list(aig.and_nodes())):
        var = node.var
        if var not in required or var not in best_match:
            continue
        match = best_match[var]
        gate_match = match.match
        req_here = required[var] - gate_match.gate.delay - (inv.delay if gate_match.output_negated else 0.0)
        for leaf in match.cut.leaves:
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
