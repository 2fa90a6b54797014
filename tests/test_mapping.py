"""Tests of the standard-cell library and the cut-based technology mapper.

``oracle_map_aig`` below is the mapper ``map_aig`` replaced: it rebuilt every
node's candidate cuts, remapped choice cuts and matched the library on each
evaluation.  ``map_aig`` prices each distinct cut once per call and must
give the same netlist, area, delay and levels (or the same error).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig, aig_from_functions, lit_is_compl, lit_not, lit_var
from repro.aig.simulate import exhaustive_truth_tables
from repro.benchgen import epfl
from repro.mapping.choices import ChoiceClasses
from repro.mapping.cut_mapping import MappingResult, _netlist_levels, _remap_cut, map_aig
from repro.mapping.library import Gate, GateMatch, Library, asap7_like_library, default_library
from repro.mapping.netlist import Netlist
from repro.opt.cuts import Cut, enumerate_cuts
from repro.opt.dch import compute_choices


class TestLibrary:
    def test_library_has_basic_cells(self, library):
        names = {g.name for g in library.gates}
        assert {"INVx1", "NAND2x1", "NOR2x1", "XOR2x1"} <= names

    def test_inverter_lookup(self, library):
        assert library.inverter.num_inputs == 1
        assert library.inverter.truth == 0b01

    def test_match_exact_and(self, library):
        match = library.match(0b1000, 2)
        assert match is not None
        assert match.num_inverters == 0
        assert match.gate.truth == 0b1000 or match.gate.name == "AND2x2"

    def test_match_with_input_negation(self, library):
        # a & !b has no direct cell; the match must use inverters or a phase-aware cell.
        match = library.match(0b0010, 2)
        assert match is not None
        # Verify the match actually implements the function.
        assert _match_truth(match, 2) == 0b0010

    def test_match_all_two_input_functions(self, library):
        for truth in range(16):
            match = library.match(truth, 2)
            if truth in (0b0000, 0b1111, 0b1010, 0b0101, 0b1100, 0b0011):
                # Constants and single-variable projections are handled outside
                # gate matching (by wiring / constants), so they may be absent.
                continue
            assert match is not None, f"no match for 2-input function {truth:04b}"
            assert _match_truth(match, 2) == truth

    def test_match_preference_fewer_inverters(self, library):
        match = library.match(0b1000, 2)  # plain AND
        assert match.num_inverters == 0

    def test_default_library_is_cached(self):
        assert default_library() is default_library()

    def test_gate_by_name(self, library):
        assert library.gate_by_name("NAND2x1").num_inputs == 2
        with pytest.raises(KeyError):
            library.gate_by_name("NOPE")

    def test_npn_class_property(self):
        gate = default_library().gate_by_name("NAND2x1")
        assert gate.npn_class == default_library().gate_by_name("AND2x2").npn_class


def _match_truth(match, num_inputs: int) -> int:
    """Recompute the function a GateMatch implements over the cut leaves."""
    truth = 0
    for minterm in range(1 << num_inputs):
        gate_minterm = 0
        for pin, leaf in enumerate(match.leaf_of_pin):
            bit = (minterm >> leaf) & 1
            if match.pin_negated[pin]:
                bit ^= 1
            gate_minterm |= bit << pin
        value = (match.gate.truth >> gate_minterm) & 1
        if match.output_negated:
            value ^= 1
        truth |= value << minterm
    return truth


class TestNetlist:
    def test_area_is_sum_of_gate_areas(self, library):
        netlist = Netlist(name="t", library=library)
        netlist.primary_inputs = ["a", "b"]
        nand = library.gate_by_name("NAND2x1")
        netlist.add_gate(nand, "n1", ["a", "b"])
        netlist.add_gate(library.inverter, "n2", ["n1"])
        netlist.primary_outputs = ["n2"]
        assert netlist.area == pytest.approx(nand.area + library.inverter.area)
        assert netlist.delay == pytest.approx(nand.delay + library.inverter.delay)
        assert netlist.num_gates == 2

    def test_wrong_pin_count_rejected(self, library):
        netlist = Netlist(name="t", library=library)
        netlist.primary_inputs = ["a"]
        with pytest.raises(ValueError):
            netlist.add_gate(library.gate_by_name("NAND2x1"), "n1", ["a"])

    def test_cycle_detection(self, library):
        netlist = Netlist(name="t", library=library)
        netlist.primary_inputs = []
        nand = library.gate_by_name("NAND2x1")
        netlist.add_gate(nand, "x", ["y", "y"])
        netlist.add_gate(nand, "y", ["x", "x"])
        netlist.primary_outputs = ["x"]
        with pytest.raises(ValueError):
            netlist.delay

    def test_verilog_output_mentions_gates(self, library, small_mem_ctrl):
        result = map_aig(small_mem_ctrl, library)
        text = result.netlist.to_verilog()
        assert "module" in text and "endmodule" in text
        assert any(g.gate.name in text for g in result.netlist.gates)

    def test_gate_histogram(self, library, small_mem_ctrl):
        result = map_aig(small_mem_ctrl, library)
        hist = result.netlist.gate_histogram()
        assert sum(hist.values()) == result.num_gates


class TestMapping:
    @pytest.mark.parametrize("circuit", ["adder", "sqrt", "mem_ctrl", "arbiter"])
    def test_mapping_produces_gates(self, library, circuit):
        aig = epfl.build(circuit, preset="test")
        result = map_aig(aig, library)
        assert result.num_gates > 0
        assert result.area > 0
        assert result.delay > 0

    def test_mapped_netlist_is_functionally_correct(self, library):
        # Map a small circuit and re-simulate the netlist gate by gate.
        aig = epfl.build("sqrt", preset="test")
        result = map_aig(aig, library)
        assert _netlist_matches_aig(result.netlist, aig)

    def test_xor_uses_xor_cell(self, library):
        aig = aig_from_functions(2, lambda a, pis: a.add_xor(pis[0], pis[1]))
        result = map_aig(aig, library)
        assert any(g.gate.name.startswith(("XOR", "XNOR")) for g in result.netlist.gates)

    def test_constant_output(self, library):
        aig = Aig()
        aig.add_pi("a")
        aig.add_po(1, "t")
        result = map_aig(aig, library)
        assert result.netlist.constants

    def test_complemented_po_gets_inverter(self, library):
        aig = aig_from_functions(2, lambda a, pis: lit_not(a.add_and(pis[0], pis[1])))
        result = map_aig(aig, library)
        assert _netlist_matches_aig(result.netlist, aig)

    def test_area_recovery_does_not_hurt_delay(self, library, small_sqrt):
        with_recovery = map_aig(small_sqrt, library, area_recovery=True)
        without = map_aig(small_sqrt, library, area_recovery=False)
        assert with_recovery.delay <= without.delay + 1e-6
        assert with_recovery.area <= without.area + 1e-6

    def test_mapping_with_choices_not_worse(self, library, small_sqrt):
        plain = map_aig(small_sqrt, library)
        choice = compute_choices(small_sqrt, max_pairs=100, conflict_budget=200)
        chosen = map_aig(choice.aig, library, choices=choice.classes)
        assert chosen.delay <= plain.delay + 1e-6

    def test_choice_mapping_functionally_correct(self, library, small_sqrt):
        choice = compute_choices(small_sqrt, max_pairs=100, conflict_budget=200)
        result = map_aig(choice.aig, library, choices=choice.classes)
        assert _netlist_matches_aig(result.netlist, small_sqrt)

    def test_empty_choices_equivalent_to_plain(self, library, small_mem_ctrl):
        plain = map_aig(small_mem_ctrl, library)
        with_empty = map_aig(small_mem_ctrl, library, choices=ChoiceClasses())
        assert plain.area == pytest.approx(with_empty.area)
        assert plain.delay == pytest.approx(with_empty.delay)


def _netlist_matches_aig(netlist: Netlist, aig: Aig, max_inputs: int = 16) -> bool:
    """Exhaustively compare a mapped netlist against the source AIG."""
    if aig.num_pis > max_inputs:
        raise ValueError("circuit too large for exhaustive netlist check")
    truth_aig = exhaustive_truth_tables(aig)
    width = 1 << aig.num_pis

    # Evaluate the netlist for every input minterm (bit-parallel over nets).
    values = {}
    for i, net in enumerate(netlist.primary_inputs):
        word = 0
        for minterm in range(width):
            if (minterm >> i) & 1:
                word |= 1 << minterm
        values[net] = word
    mask = (1 << width) - 1
    for net, const in netlist.constants.items():
        values[net] = mask if const else 0
    for inst in netlist.gates:
        out = 0
        for minterm in range(width):
            gate_minterm = 0
            for pin, net in enumerate(inst.inputs):
                if (values[net] >> minterm) & 1:
                    gate_minterm |= 1 << pin
            if (inst.gate.truth >> gate_minterm) & 1:
                out |= 1 << minterm
        values[inst.output] = out
    truth_netlist = [values[net] for net in netlist.primary_outputs]
    return truth_netlist == truth_aig


# --------------------------------------------------------------------------
# Oracle: the mapper ``map_aig`` replaced, which re-derived every candidate.


@dataclass
class _OracleMatch:
    cut: Cut
    match: GateMatch
    arrival: float
    area_flow: float


def oracle_map_aig(
    aig: Aig,
    library: Optional[Library] = None,
    k: Optional[int] = None,
    cut_limit: int = 8,
    choices: Optional[ChoiceClasses] = None,
    area_recovery: bool = True,
) -> MappingResult:
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
    best_match: Dict[int, _OracleMatch] = {}
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
                        continue
                    if any(leaf >= var for leaf in remapped):
                        continue
                    if remapped == cut.leaves:
                        cands.append(cut)
                    else:
                        perm_cut = _remap_cut(cut, {leaf: repr_of(leaf) for leaf in cut.leaves})
                        if perm_cut is not None:
                            cands.append(perm_cut)
        return cands

    def evaluate(var: int, relax_to: Optional[float] = None) -> Optional[_OracleMatch]:
        best: Optional[_OracleMatch] = None
        for cut in candidate_cuts(var):
            if cut.size < 1 or cut.leaves == (var,):
                continue
            if any(leaf not in arrivals for leaf in cut.leaves):
                continue
            matched = library.match(cut.truth, cut.size)
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
                flow += _oracle_leaf_area_flow(leaf, best_match, aig) / leaf_refs
            match = _OracleMatch(cut=cut, match=matched, arrival=arrival, area_flow=flow)
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

    for node in aig.and_nodes():
        match = evaluate(node.var)
        if match is None:
            raise RuntimeError(f"no library match found for node {node.var}")
        best_match[node.var] = match
        arrivals[node.var] = match.arrival

    if area_recovery:
        required = _oracle_compute_required(aig, arrivals, best_match, inv)
        for node in reversed(list(aig.and_nodes())):
            req = required.get(node.var)
            if req is None:
                continue
            relaxed = evaluate(node.var, relax_to=req)
            if relaxed is not None and relaxed.area_flow < best_match[node.var].area_flow - 1e-9:
                best_match[node.var] = relaxed
                arrivals[node.var] = relaxed.arrival

    netlist = Netlist(name=aig.name, library=library)
    netlist.primary_inputs = [aig.node(v).name or f"pi{v}" for v in aig.pis]
    net_of: Dict[int, str] = {v: (aig.node(v).name or f"pi{v}") for v in aig.pis}
    net_of[0] = "const0"
    inverted_net: Dict[int, str] = {}
    visited: set = set()
    order: List[int] = []
    po_vars = [lit_var(lit) for lit, _ in aig.pos]
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
        if var not in inverted_net:
            net = f"n{var}_inv"
            netlist.add_gate(inv, net, [net_of[var]])
            inverted_net[var] = net
        return inverted_net[var]

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
        po_net = net_of[var]
        if lit_is_compl(lit):
            po_net = negated(var)
        netlist.primary_outputs.append(po_net)
    return MappingResult(
        netlist=netlist,
        area=netlist.area,
        delay=netlist.delay,
        levels=_netlist_levels(netlist),
        runtime=time.perf_counter() - start,
        num_gates=netlist.num_gates,
    )


def _oracle_leaf_area_flow(leaf: int, best_match: Dict[int, _OracleMatch], aig: Aig) -> float:
    if leaf == 0 or aig.node(leaf).is_pi:
        return 0.0
    match = best_match.get(leaf)
    return match.area_flow if match is not None else 0.0


def _oracle_compute_required(
    aig: Aig, arrivals: Dict[int, float], best_match: Dict[int, _OracleMatch], inv: Gate
) -> Dict[int, float]:
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


def _mapped(mapper, aig: Aig, **kwargs):
    """A mapping's netlist and QoR, or the error it raised."""
    try:
        result = mapper(aig, **kwargs)
    except RuntimeError as exc:
        return ("error", str(exc))
    return (result.netlist, result.area, result.delay, result.levels, result.num_gates)


@lru_cache(maxsize=None)
def _preset_choices(circuit: str):
    """A test-preset circuit with the choice classes the ``map`` pass computes."""
    aig = epfl.build(circuit, preset="test")
    return aig, compute_choices(aig, max_pairs=400, conflict_budget=300)


class TestMapOracle:
    @pytest.mark.parametrize("circuit", epfl.available_circuits())
    def test_preset_circuits_match_oracle(self, circuit):
        aig, choice = _preset_choices(circuit)
        for subject, classes in ((aig, None), (choice.aig, choice.classes)):
            for recovery in (True, False):
                kwargs = dict(choices=classes, area_recovery=recovery)
                assert _mapped(map_aig, subject, **kwargs) == _mapped(oracle_map_aig, subject, **kwargs)

    @pytest.mark.parametrize("circuit", ["sqrt", "log2"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("cut_limit", [1, 8])
    def test_cut_parameters_match_oracle(self, circuit, k, cut_limit):
        _, choice = _preset_choices(circuit)
        kwargs = dict(choices=choice.classes, k=k, cut_limit=cut_limit)
        assert _mapped(map_aig, choice.aig, **kwargs) == _mapped(oracle_map_aig, choice.aig, **kwargs)

    def test_counts_describe_the_work(self):
        aig, choice = _preset_choices("sqrt")
        plain = map_aig(aig)
        assert plain.nodes_evaluated == aig.num_ands
        assert 0 < plain.cuts_priced
        chosen = map_aig(choice.aig, choices=choice.classes)
        assert chosen.nodes_evaluated == choice.aig.num_ands
        assert chosen.cuts_priced > plain.cuts_priced


def _random_aig(rng: random.Random, num_pis: int, num_ands: int) -> Aig:
    aig = Aig(name="random")
    lits = [aig.add_pi() for _ in range(num_pis)]
    for _ in range(num_ands):
        a, b = rng.sample(lits, 2)
        lit = aig.add_and(a ^ rng.getrandbits(1), b ^ rng.getrandbits(1))
        if lit_var(lit) and lit not in lits:
            lits.append(lit)
    for lit in rng.sample(lits, min(len(lits), rng.randint(1, 4))):
        aig.add_po(lit ^ rng.getrandbits(1))
    return aig


def _hand_made_classes(rng: random.Random, aig: Aig) -> ChoiceClasses:
    """Random classes over PIs and ANDs; the smallest member represents its class."""
    pool = list(aig.pis) + [node.var for node in aig.and_nodes()]
    rng.shuffle(pool)
    classes = ChoiceClasses()
    while len(pool) >= 2 and rng.random() < 0.8:
        size = min(len(pool), rng.randint(2, 4))
        members, pool = sorted(pool[:size]), pool[size:]
        classes.members[members[0]] = members
        for var in members:
            classes.repr_of[var] = members[0]
    return classes


def _choice_cut_cases(aig: Aig, classes: ChoiceClasses, k: int) -> Tuple[int, int]:
    """(member cuts whose remapped leaves collide, remapped cuts reading a
    leaf at or above the node) over every node's other class members."""
    cuts = enumerate_cuts(aig, k=k)
    collisions = above = 0
    for var in classes.repr_of:
        for member in classes.class_members(var):
            if member == var:
                continue
            for cut in cuts[member]:
                remapped = {classes.representative(leaf) for leaf in cut.leaves}
                if len(remapped) != len(cut.leaves):
                    collisions += 1
                elif max(remapped, default=-1) >= var:
                    above += 1
    return collisions, above


class TestMapOracleRandom:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 4), st.sampled_from([1, 3, 8]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_hand_made_classes_match_oracle(self, seed, k, cut_limit):
        rng = random.Random(seed)
        aig = _random_aig(rng, rng.randint(2, 6), rng.randint(1, 40))
        classes = _hand_made_classes(rng, aig)
        for recovery in (True, False):
            kwargs = dict(choices=classes, k=k, cut_limit=cut_limit, area_recovery=recovery)
            assert _mapped(map_aig, aig, **kwargs) == _mapped(oracle_map_aig, aig, **kwargs)

    def test_generator_reaches_collisions_and_late_leaves(self):
        # The hand-made classes exercise both filters of choice cuts.
        totals = [0, 0]
        for seed in range(20):
            rng = random.Random(seed)
            aig = _random_aig(rng, rng.randint(2, 6), rng.randint(1, 40))
            classes = _hand_made_classes(rng, aig)
            for i, count in enumerate(_choice_cut_cases(aig, classes, k=4)):
                totals[i] += count
            assert _mapped(map_aig, aig, choices=classes) == _mapped(oracle_map_aig, aig, choices=classes)
        assert totals[0] > 0 and totals[1] > 0
