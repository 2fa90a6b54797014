"""Tests of the extraction algorithms: greedy, random (the ``extract(random)``
pass), and the Algorithm 1 neighbour generator (the portfolio engine has its
own suite)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.io_aiger import aag_to_string
from repro.aig.simulate import random_simulate
from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.egraph import EGraph
from repro.egraph.language import AND, NOT, OR
from repro.egraph.rules import boolean_rules
from repro.engine.engine import EngineLimits, saturate_engine
from repro.extraction.cost import DepthCost, NodeCountCost, OperatorCost, extraction_cost
from repro.extraction.engine import ChainSpec, FrozenProblem, init_chain
from repro.extraction.greedy import greedy_extract
from repro.extraction.sa import generate_neighbor
from repro.pipeline import Pipeline
from repro.pipeline import passes
from repro.pipeline.context import FlowContext


@pytest.fixture(scope="module")
def saturated_circuit():
    """A saturated e-graph of a small circuit, shared across extraction tests."""
    aig = epfl.build("sqrt", preset="test")
    circuit = aig_to_egraph(aig)
    saturate_engine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=2, max_nodes=15_000),
        scheduler="simple",
        dedup_matches=False,
    )
    return aig, circuit


def extraction_size(egraph, extraction, roots):
    """(number of extracted classes, number of AND/OR operators) reachable
    from ``roots``; a ``KeyError`` if the extraction misses a reachable class."""
    reachable = set()
    stack = [egraph.find(r) for r in roots]
    ops = 0
    while stack:
        cid = egraph.find(stack.pop())
        if cid in reachable:
            continue
        reachable.add(cid)
        enode = extraction[cid]
        if enode.op in (AND, OR):
            ops += 1
        stack.extend(egraph.find(c) for c in enode.children)
    return len(reachable), ops


def random_pass(aig, circuit, seed):
    """Run ``extract(random, seed=seed)`` on ``circuit``; returns the flow
    context it leaves."""
    ctx = FlowContext.for_aig(aig, circuit=circuit)
    passes.resolve_pass("extract").run(ctx, {"method": "random", "seed": seed})
    return ctx


@pytest.fixture(scope="module", params=["adder", "sqrt", "hyp", "sin"])
def pipeline_saturated(request):
    """A test-preset circuit and its e-graph after ``st; dag2eg;
    saturate(iters=2)``, the flow ``extract`` runs in."""
    aig = epfl.build(request.param, preset="test")
    return aig, Pipeline.from_script("st; dag2eg; saturate(iters=2)").run(aig).circuit


def _distributive_egraph():
    """An e-graph where (a*b)+(a*c) == a*(b+c): extraction should prefer the factored form."""
    eg = EGraph()
    a, b, c = eg.var("a"), eg.var("b"), eg.var("c")
    expanded = eg.add_term(OR, [eg.add_term(AND, [a, b]), eg.add_term(AND, [a, c])])
    factored = eg.add_term(AND, [a, eg.add_term(OR, [b, c])])
    eg.union(expanded, factored)
    eg.rebuild()
    return eg, expanded


class TestCostFunctions:
    def test_node_count_cost_values(self):
        cost = NodeCountCost()
        from repro.egraph.egraph import ENode

        assert cost.node_cost(ENode(op=AND, children=(0, 1))) == 1.0
        assert cost.node_cost(ENode(op=NOT, children=(0,))) == 0.0

    def test_sum_vs_depth_aggregation(self):
        from repro.egraph.egraph import ENode

        enode = ENode(op=AND, children=(0, 1))
        assert NodeCountCost().aggregate(enode, [2.0, 3.0]) == 6.0
        assert DepthCost().aggregate(enode, [2.0, 3.0]) == 4.0

    def test_operator_cost_defaults(self):
        from repro.egraph.egraph import ENode

        cost = OperatorCost(weights={AND: 2.0}, default=5.0)
        assert cost.node_cost(ENode(op=AND, children=(0, 1))) == 2.0
        assert cost.node_cost(ENode(op=OR, children=(0, 1))) == 5.0

    def test_extraction_cost_counts_dag_nodes_once(self):
        eg, root = _distributive_egraph()
        extraction = greedy_extract(eg, NodeCountCost())
        total = extraction_cost(eg, extraction, NodeCountCost(), roots=[root])
        # Factored form: one AND + one OR = 2 operators.
        assert total == 2.0


class TestGreedyExtraction:
    def test_covers_all_acyclic_classes(self, saturated_circuit):
        _, circuit = saturated_circuit
        extraction = greedy_extract(circuit.egraph, NodeCountCost())
        for root in circuit.output_classes:
            assert circuit.egraph.find(root) in extraction

    def test_prefers_factored_form(self):
        eg, root = _distributive_egraph()
        extraction = greedy_extract(eg, NodeCountCost())
        chosen = extraction[eg.find(root)]
        assert chosen.op == AND  # a * (b + c), not the 3-operator expansion

    def test_extraction_is_functionally_correct(self, saturated_circuit):
        aig, circuit = saturated_circuit
        extraction = greedy_extract(circuit.egraph, NodeCountCost())
        back = extraction_to_aig(circuit, extraction)
        assert random_simulate(aig, 4, seed=7) == random_simulate(back, 4, seed=7)

    def test_extraction_size_helper(self, saturated_circuit):
        _, circuit = saturated_circuit
        extraction = greedy_extract(circuit.egraph, NodeCountCost())
        classes, ops = extraction_size(circuit.egraph, extraction, circuit.output_classes)
        assert classes > 0
        assert 0 < ops <= classes


class TestRandomExtraction:
    """``extract(random)`` draws on the frozen snapshot, as a random-start
    portfolio chain does."""

    def test_valid_and_deterministic_per_seed(self, saturated_circuit):
        aig, circuit = saturated_circuit
        first = random_pass(aig, circuit, seed=5)
        again = random_pass(aig, circuit, seed=5)
        assert aag_to_string(first.aig) == aag_to_string(again.aig)
        assert first.aig.num_pos == aig.num_pos
        assert random_simulate(aig, 4, seed=7) == random_simulate(first.aig, 4, seed=7)

    def test_different_seeds_differ(self, saturated_circuit):
        aig, circuit = saturated_circuit
        one = random_pass(aig, circuit, seed=1)
        two = random_pass(aig, circuit, seed=2)
        assert aag_to_string(one.aig) != aag_to_string(two.aig)

    def test_random_extraction_functionally_correct(self, saturated_circuit):
        aig, circuit = saturated_circuit
        ctx = random_pass(aig, circuit, seed=3)
        passes.resolve_pass("cec").run(ctx, {})
        assert ctx.equivalence.status == "equivalent"

    @pytest.mark.parametrize("seed", [1, 7])
    def test_pass_draws_a_random_start_chains_choice(self, pipeline_saturated, seed, monkeypatch):
        """The contract: ``extract(random, seed=s)`` converts the snapshot's
        ``random_choice(Random(s))``, which is the initial choice of a
        random-start chain seeded ``s``, and the result is CEC-equivalent."""
        aig, circuit = pipeline_saturated
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, DepthCost())
        choice = problem.random_choice(random.Random(seed))
        assert init_chain(problem, ChainSpec(initial="random"), seed).choice == choice
        converted, convert = [], passes.extraction_to_aig

        def spy(circuit, extraction, **kwargs):
            converted.append(extraction)
            return convert(circuit, extraction, **kwargs)

        monkeypatch.setattr(passes, "extraction_to_aig", spy)
        ctx = random_pass(aig, circuit, seed)
        assert converted == [problem.extraction_from_choice(choice)]
        passes.resolve_pass("cec").run(ctx, {})
        assert ctx.equivalence.status == "equivalent"


class TestNeighborGeneration:
    def test_neighbor_is_valid_extraction(self, saturated_circuit):
        aig, circuit = saturated_circuit
        base = greedy_extract(circuit.egraph, NodeCountCost())
        neighbor = generate_neighbor(circuit.egraph, base, NodeCountCost(), p_random=0.2, rng=random.Random(1))
        back = extraction_to_aig(circuit, neighbor)
        assert random_simulate(aig, 4, seed=7) == random_simulate(back, 4, seed=7)

    def test_zero_randomness_matches_greedy_depth(self, saturated_circuit):
        # With a depth cost the per-class optimum is sharing-independent, so
        # the worklist of Algorithm 1 (p_random = 0) must converge to the same
        # depth as the greedy fixpoint extractor.
        _, circuit = saturated_circuit
        cost = DepthCost()
        base = greedy_extract(circuit.egraph, cost)
        neighbor = generate_neighbor(circuit.egraph, base, cost, p_random=0.0, rng=random.Random(0))
        base_cost = extraction_cost(circuit.egraph, base, cost, circuit.output_classes)
        neighbor_cost = extraction_cost(circuit.egraph, neighbor, cost, circuit.output_classes)
        assert neighbor_cost <= base_cost + 1e-9

    def test_pruned_and_unpruned_agree_without_randomness(self):
        eg, root = _distributive_egraph()
        cost = NodeCountCost()
        base = greedy_extract(eg, cost)
        pruned = generate_neighbor(eg, base, cost, p_random=0.0, rng=random.Random(0), pruned=True)
        unpruned = generate_neighbor(eg, base, cost, p_random=0.0, rng=random.Random(0), pruned=False)
        assert extraction_cost(eg, pruned, cost, [root]) == extraction_cost(eg, unpruned, cost, [root])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_neighbor_always_complete_for_roots(self, seed):
        eg, root = _distributive_egraph()
        base = greedy_extract(eg, NodeCountCost())
        neighbor = generate_neighbor(eg, base, NodeCountCost(), p_random=0.5, rng=random.Random(seed))
        # Every class reachable from the root must still have a choice.
        stack = [eg.find(root)]
        seen = set()
        while stack:
            cid = eg.find(stack.pop())
            if cid in seen:
                continue
            seen.add(cid)
            assert cid in neighbor
            stack.extend(neighbor[cid].children)
