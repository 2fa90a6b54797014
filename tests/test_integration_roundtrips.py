"""Cross-module integration tests: format round-trips and invariants on the whole suite."""

from __future__ import annotations

import pytest

from repro.aig.io_eqn import read_eqn, write_eqn
from repro.aig.simulate import random_simulate
from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.serialize import egraph_from_dsl, egraph_to_dsl
from repro.extraction.cost import OperatorCost
from repro.extraction.greedy import greedy_extract


def same_function(a, b, words: int = 3, seed: int = 77) -> bool:
    return random_simulate(a, words, seed=seed) == random_simulate(b, words, seed=seed)


ALL_CIRCUITS = epfl.available_circuits()


@pytest.mark.parametrize("name", ALL_CIRCUITS)
def test_generators_are_strash_clean(name):
    """Every generated circuit is already structurally hashed and garbage-free."""
    aig = epfl.build(name, preset="test")
    cleaned = aig.cleanup()
    assert cleaned.num_ands == aig.num_ands
    assert same_function(aig, cleaned)


@pytest.mark.parametrize("name", ["adder", "sqrt", "mem_ctrl", "arbiter", "sin"])
def test_equation_roundtrip_on_suite(name):
    """AIG -> equation text -> AIG preserves the function for suite circuits."""
    aig = epfl.build(name, preset="test")
    back = read_eqn(write_eqn(aig))
    assert back.num_pis == aig.num_pis
    assert back.num_pos == aig.num_pos
    assert same_function(aig, back)


@pytest.mark.parametrize("name", ["sqrt", "mem_ctrl"])
def test_dsl_serialization_preserves_circuit_egraph(name):
    """The Fig. 7 intermediate DSL round-trips a converted circuit e-graph."""
    aig = epfl.build(name, preset="test")
    circuit = aig_to_egraph(aig)
    text = egraph_to_dsl(circuit.egraph)
    back, id_map = egraph_from_dsl(text)
    assert back.num_classes == circuit.egraph.num_classes
    # Every original class id maps to a live class in the reconstruction.
    for cid in circuit.egraph.class_ids():
        assert id_map[cid] in back.class_ids()


def test_operator_cost_extraction_matches_structure():
    """A cost function that penalises OR nodes steers extraction away from them."""
    aig = epfl.build("mem_ctrl", preset="test")
    circuit = aig_to_egraph(aig)
    from repro.egraph.rules import boolean_rules
    from repro.engine import EngineLimits, saturate_engine

    saturate_engine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=2, max_nodes=10_000),
        scheduler="simple",
        dedup_matches=False,
    )
    avoid_or = OperatorCost(weights={"OR": 10.0, "AND": 1.0, "NOT": 0.1, "VAR": 0.0, "CONST0": 0.0, "CONST1": 0.0})
    prefer_or = OperatorCost(weights={"OR": 0.5, "AND": 1.0, "NOT": 0.1, "VAR": 0.0, "CONST0": 0.0, "CONST1": 0.0})
    ex_avoid = greedy_extract(circuit.egraph, avoid_or)
    ex_prefer = greedy_extract(circuit.egraph, prefer_or)

    def count_or(extraction):
        return sum(
            1
            for cid in _reachable(circuit, extraction)
            if extraction[cid].op == "OR"
        )

    assert count_or(ex_avoid) <= count_or(ex_prefer)
    # Both are still functionally correct.
    assert same_function(aig, extraction_to_aig(circuit, ex_avoid))
    assert same_function(aig, extraction_to_aig(circuit, ex_prefer))


def _reachable(circuit, extraction):
    egraph = circuit.egraph
    seen = set()
    stack = [egraph.find(r) for r in circuit.output_classes]
    while stack:
        cid = egraph.find(stack.pop())
        if cid in seen:
            continue
        seen.add(cid)
        stack.extend(egraph.find(c) for c in extraction[cid].children)
    return seen


@pytest.mark.parametrize("name", ["sqrt", "arbiter"])
def test_mapped_netlist_verilog_is_self_consistent(name, library):
    """The emitted Verilog mentions every gate instance and every PI."""
    from repro.mapping.cut_mapping import map_aig

    aig = epfl.build(name, preset="test")
    result = map_aig(aig, library)
    text = result.netlist.to_verilog()
    assert text.count("endmodule") == 1
    for pi in result.netlist.primary_inputs:
        assert pi in text
    assert len([ln for ln in text.splitlines() if " g" in ln and "(" in ln]) == result.num_gates
