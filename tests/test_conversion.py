"""Tests of circuit <-> e-graph conversion (DAG-to-DAG and S-expression paths)."""

from __future__ import annotations

import pytest

from repro.aig.graph import Aig, aig_from_functions, lit_not
from repro.aig.simulate import exhaustive_truth_tables, random_simulate
from repro.benchgen import arithmetic, epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import egraph_to_aig, extraction_to_aig
from repro.conversion.sexpr import (
    ConversionBudgetExceeded,
    aig_to_sexpr,
    sexpr_to_aig,
    sexpr_to_egraph,
)
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, saturate_engine
from repro.extraction.cost import NodeCountCost
from repro.extraction.greedy import greedy_extract


def same_function(a, b, words: int = 4, seed: int = 31) -> bool:
    return random_simulate(a, words, seed=seed) == random_simulate(b, words, seed=seed)


class TestDagToEgraph:
    def test_one_class_per_variable(self, small_adder):
        circuit = aig_to_egraph(small_adder)
        # Constant + PIs + AND nodes (NOT wrappers add more classes).
        assert circuit.egraph.num_classes >= small_adder.num_nodes

    def test_shared_nodes_not_duplicated(self):
        # A diamond: f = (a&b) & ((a&b) & c); the shared a&b must map to one class.
        def diamond(aig, pis):
            ab = aig.add_and(pis[0], pis[1])
            return aig.add_and(ab, aig.add_and(ab, pis[2]))

        aig = aig_from_functions(3, diamond)
        circuit = aig_to_egraph(aig)
        and_nodes = sum(
            1 for _, node in circuit.egraph.enodes() if node.op == "AND"
        )
        assert and_nodes == aig.num_ands

    def test_output_metadata_preserved(self, small_adder):
        circuit = aig_to_egraph(small_adder)
        assert len(circuit.output_classes) == small_adder.num_pos
        assert len(circuit.input_names) == small_adder.num_pis

    def test_roundtrip_functionally_equivalent(self, small_sqrt):
        circuit = aig_to_egraph(small_sqrt)
        back = egraph_to_aig(circuit, name="back")
        assert same_function(small_sqrt, back)

    def test_roundtrip_with_complemented_outputs(self):
        aig = aig_from_functions(2, lambda a, pis: lit_not(a.add_and(pis[0], pis[1])))
        circuit = aig_to_egraph(aig)
        back = egraph_to_aig(circuit)
        assert exhaustive_truth_tables(back) == exhaustive_truth_tables(aig)

    def test_roundtrip_after_saturation(self, small_mem_ctrl):
        circuit = aig_to_egraph(small_mem_ctrl)
        saturate_engine(
            circuit.egraph,
            boolean_rules(),
            EngineLimits(max_iterations=2, max_nodes=20_000),
            scheduler="simple",
            dedup_matches=False,
        )
        back = egraph_to_aig(circuit)
        assert same_function(small_mem_ctrl, back)

    def test_constant_output(self):
        aig = Aig()
        aig.add_pi("a")
        aig.add_po(1, "const_true")
        circuit = aig_to_egraph(aig)
        back = egraph_to_aig(circuit)
        assert exhaustive_truth_tables(back)[0] == 0b11


class TestExtractionToAig:
    def test_missing_choice_raises(self, small_adder):
        circuit = aig_to_egraph(small_adder)
        with pytest.raises(KeyError):
            extraction_to_aig(circuit, {})

    def test_greedy_extraction_rebuilds_equivalent_circuit(self, small_adder):
        circuit = aig_to_egraph(small_adder)
        extraction = greedy_extract(circuit.egraph, NodeCountCost())
        back = extraction_to_aig(circuit, extraction)
        assert same_function(small_adder, back)


class TestSexprPath:
    def test_sexpr_roundtrip_small(self):
        aig = arithmetic.multiplier(2)
        for out_idx in range(aig.num_pos):
            text = aig_to_sexpr(aig, output_index=out_idx)
            back = sexpr_to_aig(text, input_names=[aig.node(v).name for v in aig.pis])
            single = Aig(name="single")
            # Compare against an AIG with only this output.
            pis = [single.add_pi(aig.node(v).name) for v in aig.pis]
            assert back.num_pis == aig.num_pis
            full = exhaustive_truth_tables(aig)[out_idx]
            got = exhaustive_truth_tables(back)[0]
            assert got == full

    def test_sexpr_duplicates_shared_nodes(self):
        def diamond(aig, pis):
            ab = aig.add_and(pis[0], pis[1])
            return aig.add_and(ab, aig.add_and(ab, pis[2]))

        aig = aig_from_functions(3, diamond)
        text = aig_to_sexpr(aig)
        # The shared AND appears twice in the flattened expression.
        assert text.count("(AND") > aig.num_ands

    def test_sexpr_size_budget_enforced(self):
        aig = arithmetic.multiplier(4)
        with pytest.raises(ConversionBudgetExceeded) as excinfo:
            aig_to_sexpr(aig, output_index=aig.num_pos - 2, size_limit=100)
        assert excinfo.value.reason == "memout"

    def test_sexpr_time_budget_enforced(self):
        aig = arithmetic.multiplier(6)
        with pytest.raises(ConversionBudgetExceeded):
            aig_to_sexpr(aig, output_index=aig.num_pos - 2, time_limit=0.0)

    def test_sexpr_to_egraph(self):
        eg, root = sexpr_to_egraph("(AND a (NOT (OR b CONST0)))")
        assert eg.num_classes >= 5
        assert root == eg.find(root)

    def test_exponential_growth_vs_linear_dsl(self):
        """The key Table III contrast: S-expression size blows up, the DSL does not."""
        from repro.egraph.serialize import egraph_to_dsl

        aig = arithmetic.multiplier(3)
        circuit = aig_to_egraph(aig)
        dsl_size = len(egraph_to_dsl(circuit.egraph))
        sexpr_size = sum(
            len(aig_to_sexpr(aig, output_index=i, size_limit=10_000_000)) for i in range(aig.num_pos)
        )
        assert sexpr_size > dsl_size
