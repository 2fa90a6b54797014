"""Tests of the extraction engine: frozen problem, delta-cost parity,
portfolio determinism, migration, telemetry, and the extraction bench."""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
import signal
from pathlib import Path

import pytest

from repro.aig.simulate import random_simulate
from repro.benchgen import control, epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.language import AND, NOT, OR, VAR
from repro.egraph.egraph import EGraph
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import DepthCost, NodeCountCost, OperatorCost, extraction_cost
from repro.extraction.engine import (
    ChainSpec,
    DeltaCostEvaluator,
    ExtractionProfile,
    FrozenProblem,
    PortfolioConfig,
    ProblemStats,
    chain_seed,
    choice_cost,
    init_chain,
    make_evaluator,
    portfolio_extract,
    run_round,
)
from repro.extraction.engine.bench import check_regressions, render_bench, run_extraction_bench
from repro.extraction.engine.chains import _rebuild
from repro.extraction.greedy import greedy_extract
from repro.obs.trace import tracing

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def saturated_circuit():
    """A saturated e-graph of a small circuit, shared across engine tests."""
    aig = epfl.build("sqrt", preset="test")
    circuit = aig_to_egraph(aig)
    SaturationEngine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=2, max_nodes=10_000, time_limit=20.0),
    ).run()
    return aig, circuit


def _random_saturated(seed: int):
    """A randomized circuit (varying seed) saturated into a choice-rich e-graph."""
    aig = control.random_control(num_inputs=10, num_outputs=6, terms_per_output=4, seed=seed)
    circuit = aig_to_egraph(aig)
    SaturationEngine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=10.0),
    ).run()
    return aig, circuit


def _extraction_digest(extraction) -> str:
    """A stable digest of an e-node extraction (class id, op, children, payload)."""
    rows = sorted((cid, n.op, list(n.children), n.payload) for cid, n in extraction.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: The chain counters the golden trajectory pins; accepted/rejected totals
#: and the initial and best costs follow from the curves.
TRAJECTORY_FIELDS = (
    "best_curve",
    "accept_curve",
    "reject_curve",
    "moves",
    "uphill",
    "restarts",
    "evals",
    "classes_touched",
    "migrations_received",
)


def portfolio_trajectory(circuit) -> dict:
    """Every chain's trajectory of the default four-chain portfolio, per cost.

    The payload of ``tests/fixtures/portfolio_trajectory.json``: the fixture
    was written by this function on the rebuild-from-scratch rounds (fixpoint
    ``random_choice``, per-round parent multimap, all-class flip candidates),
    so any change to a random draw, flip, cost or cone size shows up here.
    Rewrite it (``json.dumps(payload, indent=1, sort_keys=True)``) only for
    a change that is meant to move trajectories.
    """
    payload = {}
    for cost in (DepthCost(), NodeCountCost()):
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=cost,
            config=PortfolioConfig(move_budget=1024, migrate_every=32, seed=7, workers=0),
            seed_solution=circuit.original_extraction(),
        )
        payload[cost.mode] = {
            "chains": [
                {name: getattr(chain, name) for name in TRAJECTORY_FIELDS}
                for chain in result.profile.chains
            ],
            "migrations": [event.to_dict() for event in result.profile.migrations],
            "cost": result.cost,
            "extraction": _extraction_digest(result.extraction),
        }
    return payload


# -- oracles: the rebuild-from-scratch algorithms the engine replaced ---------


def fixpoint_random_choice(problem, rng, fallback=None):
    """Pass-by-pass fixpoint ``random_choice``: every pass tests every
    remaining class's every node (the oracle for the event-driven one)."""
    chosen = {}
    remaining = set(problem.nodes)
    progress = True
    while remaining and progress:
        progress = False
        for cid in sorted(remaining):
            candidates = [
                i
                for i, kids in enumerate(problem.children[cid])
                if all(ch in chosen for ch in kids)
            ]
            if not candidates:
                continue
            chosen[cid] = candidates[rng.randrange(len(candidates))]
            remaining.discard(cid)
            progress = True
    if fallback:
        for cid in remaining:
            if cid in fallback:
                chosen[cid] = fallback[cid]
    return chosen


def oracle_toposort(problem, choice):
    """Depth-first toposort with a ``(cid, expanded)`` stack entry per visit
    and no depths (the oracle for ``FrozenProblem.toposort``'s placement)."""
    order = {}
    on_stack = set()
    counter = 0
    for start in sorted(choice):
        if start in order:
            continue
        stack = [(start, False)]
        while stack:
            cid, expanded = stack.pop()
            if expanded:
                on_stack.discard(cid)
                order[cid] = counter
                counter += 1
                continue
            if cid in order:
                continue
            if cid in on_stack:
                raise ValueError(f"cyclic extraction through e-class {cid}")
            on_stack.add(cid)
            stack.append((cid, True))
            for ch in problem.children[cid][choice[cid]]:
                if ch not in order:
                    if ch not in choice:
                        raise ValueError(f"choice is missing e-class {ch} (child of class {cid})")
                    stack.append((ch, False))
    return order


def oracle_flip_candidates(problem, order, classes=None):
    """Cycle-safe candidates through a per-node ``all(...)`` generator (the
    oracle for ``FrozenProblem.flip_candidates``)."""
    safe = {}
    for cid in order if classes is None else classes:
        position = order[cid]
        safe[cid] = [
            i
            for i, kids in enumerate(problem.children[cid])
            if all(ch in order and order[ch] < position for ch in kids)
        ]
    return safe


def oracle_depths(problem, choice, order):
    """Depth-evaluator set-up as a second walk over the topological order,
    through ``max()`` (the oracle for the depths ``toposort`` computes as it
    places); returns the depths and the cost."""
    depths = {}
    for cid in order:
        child_depths = [depths[ch] for ch in problem.children[cid][choice[cid]]]
        depths[cid] = problem.node_costs[cid][choice[cid]] + (max(child_depths) if child_depths else 0.0)
    return depths, max((depths[r] for r in problem.roots), default=0.0)


def oracle_rebuild(problem, choice):
    """A round's rebuild from the oracles: order, the safe lists of the
    reachable multi-node classes, the flippable classes, and (depth cost
    only) depths and cost."""
    order = oracle_toposort(problem, choice)
    reachable = set()
    stack = list(problem.roots)
    while stack:
        cid = stack.pop()
        if cid not in reachable:
            reachable.add(cid)
            stack.extend(problem.children[cid][choice[cid]])
    classes = [cid for cid in sorted(reachable) if len(problem.children[cid]) > 1]
    safe = oracle_flip_candidates(problem, order, classes)
    flippable = [cid for cid in classes if len(safe[cid]) > 1]
    depths = None if problem.mode == "sum" else oracle_depths(problem, choice, order)
    return order, safe, flippable, depths


class ParentMultimapEvaluator(DeltaCostEvaluator):
    """The delta evaluator whose ``depth`` mode sets up from the oracle walks
    and builds and edits its own extraction-parent multimap (the oracle for
    set-up from ``toposort``'s depths and for propagation through
    ``FrozenProblem.users``); ``sum`` mode is inherited unchanged."""

    def __init__(self, problem, choice):
        order = oracle_toposort(problem, choice)
        depths = None if problem.mode == "sum" else oracle_depths(problem, choice, order)[0]
        super().__init__(problem, choice, order=order, depths=depths)
        self._parents = {cid: {} for cid in order}
        for cid in order:
            for ch in problem.children[cid][choice[cid]]:
                counts = self._parents[ch]
                counts[cid] = counts.get(cid, 0) + 1

    def _flip_depth(self, cid, node_idx):
        old_idx = self.choice[cid]
        for ch in self.problem.children[cid][old_idx]:
            counts = self._parents[ch]
            counts[cid] -= 1
            if not counts[cid]:
                del counts[cid]
        for ch in self.problem.children[cid][node_idx]:
            counts = self._parents[ch]
            counts[cid] = counts.get(cid, 0) + 1
        self.choice[cid] = node_idx
        order = self._order
        heap = [(order[cid], cid)]
        queued = {cid}
        while heap:
            _, current = heapq.heappop(heap)
            queued.discard(current)
            kids = self.problem.children[current][self.choice[current]]
            child_depths = [self._depth[ch] for ch in kids]
            new_depth = self.problem.node_costs[current][self.choice[current]] + (
                max(child_depths) if child_depths else 0.0
            )
            self.touched += 1
            if new_depth == self._depth[current]:
                continue
            self._depth[current] = new_depth
            for parent in self._parents[current]:
                if parent not in queued:
                    queued.add(parent)
                    heapq.heappush(heap, (order[parent], parent))
        self.cost = max((self._depth[r] for r in self.problem.roots), default=0.0)
        return self.cost


def fixpoint_greedy_extract(egraph, cost=None):
    """Object-graph greedy fixpoint: ascending-id passes over every class's
    every e-node, re-canonicalizing children through ``find``, until a pass
    changes nothing or one pass per class plus one ran (the oracle for
    ``greedy_extract``)."""
    if cost is None:
        cost = NodeCountCost()
    classes = {cid: egraph.nodes_of(cid) for cid in egraph.class_ids()}
    best_cost = {}
    best_node = {}
    max_rounds = len(classes) + 1
    changed = True
    rounds = 0
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        for cid, nodes in classes.items():
            for enode in nodes:
                children = [egraph.find(c) for c in enode.children]
                if any(c not in best_cost for c in children):
                    continue
                total = cost.aggregate(enode, (best_cost[c] for c in children))
                if total < best_cost.get(cid, math.inf) - 1e-12:
                    best_cost[cid] = total
                    best_node[cid] = enode
                    changed = True
    return best_node


def fixpoint_greedy_choice(problem):
    """All-class greedy fixpoint on the snapshot: every pass re-prices every
    class's every node (the oracle for the event-driven ``greedy_choice``)."""
    best_cost = {}
    choice = {}
    ordered = sorted(problem.nodes)
    changed = True
    while changed:
        changed = False
        for cid in ordered:
            costs = problem.node_costs[cid]
            kids = problem.children[cid]
            for i in range(len(costs)):
                child_costs = []
                ok = True
                for ch in kids[i]:
                    if ch not in best_cost:
                        ok = False
                        break
                    child_costs.append(best_cost[ch])
                if not ok:
                    continue
                if problem.mode == "sum":
                    total = costs[i] + sum(child_costs)
                else:
                    total = costs[i] + (max(child_costs) if child_costs else 0.0)
                if total < best_cost.get(cid, float("inf")) - 1e-12:
                    best_cost[cid] = total
                    choice[cid] = i
                    changed = True
    return choice


def walk_build(egraph, roots, cost=None):
    """Object-walk snapshot: every class's canonical e-nodes, deduplicated as
    ``ENode`` values (the oracle for the row-reading ``build``)."""
    cost = cost or NodeCountCost()
    nodes, children, node_costs = {}, {}, {}
    find = egraph.find
    for cid in egraph.class_ids():
        seen = set()
        class_nodes, class_children, class_costs = [], [], []
        for canonical in egraph.nodes_of(cid):
            if canonical in seen:
                continue
            seen.add(canonical)
            class_nodes.append(canonical)
            class_children.append(tuple(find(c) for c in canonical.children))
            class_costs.append(cost.node_cost(canonical))
        nodes[cid] = class_nodes
        children[cid] = class_children
        node_costs[cid] = class_costs
    return FrozenProblem(
        nodes=nodes,
        children=children,
        node_costs=node_costs,
        roots=[find(r) for r in roots],
        mode=cost.mode,
    )


@pytest.fixture(scope="module", params=["sqrt", 1, 2, 3])
def oracle_circuit(request, saturated_circuit):
    """The shared ``sqrt`` e-graph and three randomized ones."""
    if request.param == "sqrt":
        return saturated_circuit[1]
    return _random_saturated(request.param)[1]


#: The rebuild oracles' costs: both guiding costs plus a depth cost with
#: integer and signed-zero weights, where a leaf's ``cost + 0.0`` matters.
REBUILD_ORACLE_COSTS = {
    "nodes": NodeCountCost,
    "depth": DepthCost,
    "depth_int": lambda: OperatorCost(weights={AND: 1, OR: 2, NOT: -0.0, VAR: 0}, mode="depth"),
}


class TestRebuildOracles:
    """Production rebuild structures against the algorithms they replaced."""

    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    def test_random_choice_matches_fixpoint(self, oracle_circuit, cost_cls):
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost_cls())
        greedy = problem.greedy_choice()
        for rng_seed in range(5):
            for fallback in (greedy, None):
                rng, oracle_rng = random.Random(rng_seed), random.Random(rng_seed)
                got = problem.random_choice(rng, fallback=fallback)
                expected = fixpoint_random_choice(problem, oracle_rng, fallback=fallback)
                assert list(got.items()) == list(expected.items())
                assert rng.getstate() == oracle_rng.getstate()

    def test_fallback_order_matches_fixpoint(self):
        # Self-looped classes never become realizable, so they come from the
        # fallback, in the fixpoint's set-iteration order (ids chosen so that
        # order is not ascending).
        leaf, loops = 2, [100, 3, 36, 68, 7, 1000, 35]
        children = {leaf: [()], 0: [(leaf,), (leaf, leaf)], 1: [(0,), (leaf,)]}
        children.update({cid: [(cid,), (cid, leaf)] for cid in loops})
        problem = FrozenProblem(
            nodes={cid: [None] * len(kids) for cid, kids in children.items()},
            children=children,
            node_costs={cid: [1.0] * len(kids) for cid, kids in children.items()},
            roots=[1],
        )
        fallback = {cid: 1 for cid in loops}
        for rng_seed in range(5):
            got = problem.random_choice(random.Random(rng_seed), fallback=fallback)
            expected = fixpoint_random_choice(problem, random.Random(rng_seed), fallback=fallback)
            assert list(got.items()) == list(expected.items())
        assert [cid for cid in got if cid in loops] != sorted(loops)

    @pytest.mark.parametrize("cost_name", sorted(REBUILD_ORACLE_COSTS))
    def test_rebuild_matches_oracle_walks(self, oracle_circuit, cost_name):
        """The one-walk rebuild against the three walks it replaced: on each
        random choice as drawn, and again after 200 safe flips.  Depths are
        compared by ``repr``, which tells ``0`` from ``0.0`` and ``-0.0``."""
        cost = REBUILD_ORACLE_COSTS[cost_name]()
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost)
        greedy = problem.greedy_choice()
        for rng_seed in range(5):
            rng = random.Random(rng_seed)
            choice = problem.random_choice(rng, fallback=greedy)
            for flipped in (False, True):
                if flipped:
                    all_safe = oracle_flip_candidates(problem, oracle_toposort(problem, choice))
                    movable = [cid for cid in sorted(all_safe) if len(all_safe[cid]) > 1]
                    for _ in range(200):
                        cid = movable[rng.randrange(len(movable))]
                        choice[cid] = all_safe[cid][rng.randrange(len(all_safe[cid]))]
                order, safe, flippable, depths = oracle_rebuild(problem, choice)
                got_order, got_depths = problem.toposort(choice)
                assert list(got_order.items()) == list(order.items())
                full = problem.flip_candidates(got_order)
                assert list(full.items()) == list(oracle_flip_candidates(problem, order).items())
                got_safe, got_flippable, evaluator = _rebuild(problem, choice, "delta")
                assert list(got_safe.items()) == list(safe.items())
                assert got_flippable == flippable
                if depths is None:
                    assert got_depths is None
                    assert evaluator.cost == choice_cost(problem, choice)
                else:
                    expected = [(cid, repr(d)) for cid, d in depths[0].items()]
                    assert [(cid, repr(d)) for cid, d in got_depths.items()] == expected
                    assert list(evaluator._order.items()) == list(order.items())
                    assert [(cid, repr(d)) for cid, d in evaluator._depth.items()] == expected
                    assert repr(evaluator.cost) == repr(depths[1])
                    assert evaluator.cost == choice_cost(problem, choice)

    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    def test_problem_stats_match_oracle_walks(self, oracle_circuit, cost_cls):
        cost = cost_cls()
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost)
        safe = oracle_flip_candidates(problem, oracle_toposort(problem, problem.greedy_choice()))
        result = portfolio_extract(
            oracle_circuit.egraph,
            oracle_circuit.output_classes,
            cost=cost,
            config=PortfolioConfig(chains=1, move_budget=0, workers=0),
        )
        assert result.profile.problem == ProblemStats.of(problem, safe).to_dict()

    def test_walk_errors_match_oracle(self, oracle_circuit):
        """Cyclic choices and choices missing a child raise the oracle's
        ``ValueError`` message; every other choice gets the oracle's order."""
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, DepthCost())
        greedy = problem.greedy_choice()

        def closes_cycle(choice, cid, i):
            stack, seen = list(problem.children[cid][i]), set()
            while stack:
                ch = stack.pop()
                if ch == cid:
                    return True
                if ch not in seen:
                    seen.add(ch)
                    stack.extend(problem.children[ch][choice[ch]])
            return False

        outcomes = set()
        for rng_seed in range(12):
            rng = random.Random(rng_seed)
            choice = problem.random_choice(rng, fallback=greedy)
            safe = oracle_flip_candidates(problem, oracle_toposort(problem, choice))
            # Flips outside the safe lists: some close a cycle, some do not.
            unsafe = [
                (cid, i)
                for cid in sorted(safe)
                for i in range(len(problem.children[cid]))
                if i not in safe[cid]
            ]
            rng.shuffle(unsafe)
            if rng_seed % 3 == 0:
                for cid, i in unsafe[: rng_seed % 4]:
                    choice[cid] = i
            elif rng_seed % 3 == 1:
                cid, i = next((cid, i) for cid, i in unsafe if closes_cycle(choice, cid, i))
                choice[cid] = i
            else:
                kids = [ch for cid in sorted(choice) for ch in problem.children[cid][choice[cid]]]
                del choice[kids[rng.randrange(len(kids))]]
            try:
                expected = list(oracle_toposort(problem, choice).items())
            except ValueError as error:
                expected = str(error)
            try:
                got = list(problem.toposort(choice)[0].items())
            except ValueError as error:
                got = str(error)
            assert got == expected
            outcomes.add(expected.split()[0] if isinstance(expected, str) else "ordered")
        assert outcomes == {"ordered", "cyclic", "choice"}

    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    def test_flips_match_parent_multimap_evaluator(self, oracle_circuit, cost_cls):
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost_cls())
        greedy = problem.greedy_choice()
        for rng_seed in range(5):
            rng = random.Random(rng_seed)
            choice = problem.random_choice(rng, fallback=greedy)
            order, depths = problem.toposort(choice)
            assert list(order) == sorted(order, key=order.get)
            safe = problem.flip_candidates(order)
            flippable = [cid for cid in sorted(safe) if len(safe[cid]) > 1]
            delta = make_evaluator("delta", problem, choice, order=order, depths=depths)
            oracle = ParentMultimapEvaluator(problem, choice)
            assert delta.cost == oracle.cost
            for _ in range(200):
                cid = flippable[rng.randrange(len(flippable))]
                pick = safe[cid][rng.randrange(len(safe[cid]))]
                assert delta.flip(cid, pick) == oracle.flip(cid, pick)
                assert (delta.cost, delta.touched) == (oracle.cost, oracle.touched)

    def test_scoped_flip_candidates_match_all_classes(self, oracle_circuit):
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes)
        order, _ = problem.toposort(problem.random_choice(random.Random(0), problem.greedy_choice()))
        everything = problem.flip_candidates(order)
        assert list(everything) == list(order)
        some = sorted(order)[::3]
        assert problem.flip_candidates(order, classes=some) == {cid: everything[cid] for cid in some}


#: The greedy oracles' costs: both guiding costs plus the two operator
#: weightings of ``test_operator_cost_extraction_matches_structure``.
GREEDY_ORACLE_COSTS = {
    "nodes": NodeCountCost,
    "depth": DepthCost,
    "avoid_or": lambda: OperatorCost(
        weights={"OR": 10.0, "AND": 1.0, "NOT": 0.1, "VAR": 0.0, "CONST0": 0.0, "CONST1": 0.0}
    ),
    "prefer_or": lambda: OperatorCost(
        weights={"OR": 0.5, "AND": 1.0, "NOT": 0.1, "VAR": 0.0, "CONST0": 0.0, "CONST1": 0.0}
    ),
}


@pytest.fixture(scope="module", params=["sqrt", 1, 2, 3])
def engine_circuit(request):
    """The ``oracle_circuit`` circuits saturated under the same limits by a
    :class:`SaturationEngine` run."""
    if request.param == "sqrt":
        aig = epfl.build("sqrt", preset="test")
        limits = EngineLimits(max_iterations=2, max_nodes=10_000, time_limit=20.0)
    else:
        aig = control.random_control(num_inputs=10, num_outputs=6, terms_per_output=4, seed=request.param)
        limits = EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=10.0)
    circuit = aig_to_egraph(aig)
    SaturationEngine(circuit.egraph, boolean_rules(), limits).run()
    return circuit


class TestGreedyOracles:
    """The snapshot greedy path against the algorithms it replaced, choice
    for choice and in insertion order."""

    @pytest.mark.parametrize("cost_name", sorted(GREEDY_ORACLE_COSTS))
    def test_build_matches_object_walk(self, oracle_circuit, cost_name):
        cost = GREEDY_ORACLE_COSTS[cost_name]()
        roots = oracle_circuit.output_classes
        built = FrozenProblem.build(oracle_circuit.egraph, roots, cost)
        walked = walk_build(oracle_circuit.egraph, roots, cost)
        for name in ("nodes", "children", "node_costs"):
            assert list(getattr(built, name).items()) == list(getattr(walked, name).items())
        assert built.roots == walked.roots

    @pytest.mark.parametrize("cost_name", sorted(GREEDY_ORACLE_COSTS))
    def test_greedy_choice_matches_fixpoint(self, oracle_circuit, cost_name):
        problem = FrozenProblem.build(
            oracle_circuit.egraph, oracle_circuit.output_classes, GREEDY_ORACLE_COSTS[cost_name]()
        )
        assert list(problem.greedy_choice().items()) == list(fixpoint_greedy_choice(problem).items())

    @pytest.mark.parametrize("cost_name", sorted(GREEDY_ORACLE_COSTS))
    def test_greedy_extract_matches_object_fixpoint(self, engine_circuit, cost_name):
        circuit = engine_circuit
        cost = GREEDY_ORACLE_COSTS[cost_name]()
        uf = circuit.egraph.union_find
        expected = [
            (cid, enode.canonicalize(uf))
            for cid, enode in fixpoint_greedy_extract(circuit.egraph, cost).items()
        ]
        assert list(greedy_extract(circuit.egraph, cost).items()) == expected


class TestNegativeCosts:
    """A negative, NaN or infinite node cost is rejected when the snapshot is
    built: the greedy fixpoint only terminates, with a complete acyclic
    choice, for finite costs >= 0."""

    @staticmethod
    def _double_negation():
        eg = EGraph()
        x = eg.var("a")
        nnx = eg.add_term(NOT, [eg.add_term(NOT, [x])])
        eg.union(x, nnx)
        eg.rebuild()
        return eg, [eg.find(x)]

    def test_every_entry_point_raises_promptly(self):
        eg, roots = self._double_negation()
        cost = OperatorCost(weights={VAR: 0.0, NOT: -1.0})
        message = "negative node cost -1.0 for operator NOT"

        def hang(signum, frame):
            raise TimeoutError("extraction spun on a negative cost instead of raising")

        # Without the check the greedy fixpoint spins forever on this e-graph:
        # fail the test instead of hanging it.
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match=message):
                greedy_extract(eg, cost)
            with pytest.raises(ValueError, match=message):
                FrozenProblem.build(eg, roots, cost)
            with pytest.raises(ValueError, match=message):
                portfolio_extract(
                    eg, roots, cost=cost, config=PortfolioConfig(chains=1, move_budget=4, workers=0)
                )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_zero_costs_are_accepted(self):
        eg, roots = self._double_negation()
        extraction = greedy_extract(eg, OperatorCost(weights={VAR: 0.0, NOT: 0.0}))
        assert extraction[roots[0]].op == VAR

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["sum", "depth"])
    def test_non_finite_costs_are_rejected(self, weight, mode):
        # A NaN or infinite cost never wins a comparison, so the greedy
        # solve used to leave the outputs unchosen instead of raising.
        circuit = aig_to_egraph(epfl.build("adder", preset="test"))
        cost = OperatorCost(weights={AND: weight, NOT: 0.0, VAR: 0.0, OR: 1.0}, mode=mode)
        message = f"non-finite node cost {weight} for operator AND"
        with pytest.raises(ValueError, match=message):
            greedy_extract(circuit.egraph, cost)
        with pytest.raises(ValueError, match=message):
            portfolio_extract(
                circuit.egraph,
                circuit.output_classes,
                cost=cost,
                config=PortfolioConfig(chains=1, move_budget=4, workers=0),
            )


class TestGoldenTrajectory:
    def test_portfolio_trajectory_matches_fixture(self, saturated_circuit):
        """Every draw, flip, cost and cone size of a restart-firing
        portfolio run, pinned across commits (see ``portfolio_trajectory``)."""
        expected = json.loads((FIXTURES / "portfolio_trajectory.json").read_text())
        for run in expected.values():
            assert any(chain["restarts"] for chain in run["chains"])
        assert portfolio_trajectory(saturated_circuit[1]) == expected


class TestRebuildSpans:
    def test_rounds_split_into_rebuild_and_moves(self, saturated_circuit):
        _, circuit = saturated_circuit
        specs = (ChainSpec(kind="restart", initial="random", restart_after=4),)
        config = PortfolioConfig(chains=1, move_budget=64, migrate_every=16, workers=0, chain_specs=specs)
        with tracing() as tracer:
            result = portfolio_extract(circuit.egraph, circuit.output_classes, config=config)
        chain = result.profile.chains[0]
        assert chain.restarts > 0
        rounds = [r for r in tracer.records if r.name == "chain round"]
        rebuilds = [r for r in tracer.records if r.name == "chain rebuild"]
        assert len(rounds) == 4
        assert len(rebuilds) == len(rounds) + chain.restarts
        round_ids = {r.span_id for r in rounds}
        assert all(r.parent_id in round_ids and r.category == "extraction.rebuild" for r in rebuilds)


class TestFrozenProblem:
    def test_candidates_and_roundtrip(self, saturated_circuit):
        _, circuit = saturated_circuit
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, NodeCountCost())
        assert problem.num_classes == circuit.egraph.num_classes
        assert problem.num_nodes <= circuit.egraph.num_nodes
        extraction = greedy_extract(circuit.egraph, NodeCountCost())
        choice = problem.choice_from_extraction(extraction)
        back = problem.extraction_from_choice(choice)
        assert back == {cid: extraction[cid] for cid in choice}

    def test_greedy_choice_matches_greedy_extract_cost(self, saturated_circuit):
        _, circuit = saturated_circuit
        for cost in (NodeCountCost(), DepthCost()):
            problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
            choice = problem.greedy_choice()
            frozen_cost = choice_cost(problem, choice)
            legacy = greedy_extract(circuit.egraph, cost)
            legacy_cost = extraction_cost(circuit.egraph, legacy, cost, circuit.output_classes)
            assert frozen_cost == pytest.approx(legacy_cost)

    def test_choice_cost_matches_extraction_cost(self, saturated_circuit):
        _, circuit = saturated_circuit
        for cost in (NodeCountCost(), DepthCost()):
            problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
            choice = problem.random_choice(random.Random(3), fallback=problem.greedy_choice())
            extraction = problem.extraction_from_choice(choice)
            assert choice_cost(problem, choice) == pytest.approx(
                extraction_cost(circuit.egraph, extraction, cost, circuit.output_classes)
            )

    def test_toposort_rejects_cycles(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        x = eg.add_term(AND, [a, b])
        y = eg.add_term(OR, [x, a])
        eg.union(x, y)
        eg.rebuild()
        problem = FrozenProblem.build(eg, [eg.find(x)], NodeCountCost())
        root = eg.find(x)
        # Choose the OR node, whose child is the class itself after the union.
        cyclic_idx = next(
            i for i, kids in enumerate(problem.children[root]) if root in kids
        )
        choice = problem.greedy_choice()
        choice[root] = cyclic_idx
        with pytest.raises(ValueError, match="cyclic") as expected:
            oracle_toposort(problem, choice)
        with pytest.raises(ValueError, match="cyclic") as got:
            problem.toposort(choice)
        assert str(got.value) == str(expected.value)
        # Choosing the AND node but dropping its child ``a`` from the choice.
        and_idx = next(i for i, node in enumerate(problem.nodes[root]) if node.op == AND)
        choice[root] = and_idx
        del choice[eg.find(a)]
        with pytest.raises(ValueError, match="missing") as expected:
            oracle_toposort(problem, choice)
        with pytest.raises(ValueError, match="missing") as got:
            problem.toposort(choice)
        assert str(got.value) == str(expected.value)

    def test_flip_candidates_are_order_respecting(self, saturated_circuit):
        _, circuit = saturated_circuit
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, DepthCost())
        choice = problem.greedy_choice()
        order, _ = problem.toposort(choice)
        safe = problem.flip_candidates(order)
        for cid, indices in safe.items():
            assert choice[cid] in indices  # the current choice is always safe
            for i in indices:
                assert all(order[ch] < order[cid] for ch in problem.children[cid][i])


class TestDeltaFullParity:
    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    @pytest.mark.parametrize("circuit_seed", [1, 2, 3])
    def test_identical_trajectories_on_random_circuits(self, cost_cls, circuit_seed):
        """The tentpole parity contract: the delta-cost engine, the
        full-sweep reference, and the portfolio with one chain return the
        identical cost and extraction for identical seeds."""
        _, circuit = _random_saturated(circuit_seed)
        results = {}
        for evaluator in ("delta", "full"):
            results[evaluator] = portfolio_extract(
                circuit.egraph,
                circuit.output_classes,
                cost=cost_cls(),
                config=PortfolioConfig(
                    chains=1, move_budget=96, migrate_every=24, seed=11, evaluator=evaluator, workers=0
                ),
                seed_solution=circuit.original_extraction(),
            )
        assert results["delta"].cost == results["full"].cost
        assert results["delta"].extraction == results["full"].extraction
        delta_curve = results["delta"].profile.chains[0].best_curve
        full_curve = results["full"].profile.chains[0].best_curve
        assert delta_curve == full_curve

    def test_flip_values_agree_move_by_move(self, saturated_circuit):
        _, circuit = saturated_circuit
        for cost in (NodeCountCost(), DepthCost()):
            problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
            choice = problem.greedy_choice()
            order, depths = problem.toposort(choice)
            safe = problem.flip_candidates(order)
            flippable = [cid for cid in sorted(safe) if len(safe[cid]) > 1]
            delta = make_evaluator("delta", problem, choice, order=order, depths=depths)
            full = make_evaluator("full", problem, choice)
            assert delta.cost == full.cost
            rng = random.Random(5)
            for _ in range(60):
                cid = flippable[rng.randrange(len(flippable))]
                pick = safe[cid][rng.randrange(len(safe[cid]))]
                assert delta.flip(cid, pick) == full.flip(cid, pick)

    def test_delta_is_cheaper_than_full(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=1, move_budget=32, migrate_every=8, workers=0),
        )
        # A delta move touches a cone, not the whole class set.
        assert 0 < result.profile.mean_cone() < circuit.egraph.num_classes / 4


class TestPortfolio:
    def test_extraction_is_functionally_correct(self, saturated_circuit):
        aig, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=3, move_budget=48, migrate_every=8, workers=0),
            seed_solution=circuit.original_extraction(),
        )
        back = extraction_to_aig(circuit, result.extraction)
        assert random_simulate(aig, 4, seed=7) == random_simulate(back, 4, seed=7)
        assert result.cost == pytest.approx(
            extraction_cost(circuit.egraph, result.extraction, DepthCost(), circuit.output_classes)
        )

    def test_never_worse_than_initial(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(chains=2, move_budget=32, migrate_every=8, workers=0),
        )
        assert result.cost <= result.profile.initial_cost + 1e-9

    def test_inline_and_process_pool_agree(self, saturated_circuit):
        """Cross-process determinism: the pool is throughput, not semantics."""
        _, circuit = saturated_circuit
        outcomes = []
        for workers in (0, 2):
            result = portfolio_extract(
                circuit.egraph,
                circuit.output_classes,
                cost=DepthCost(),
                config=PortfolioConfig(
                    chains=2, move_budget=24, migrate_every=8, seed=13, workers=workers
                ),
            )
            outcomes.append((result.cost, result.extraction))
        assert outcomes[0] == outcomes[1]

    def test_deterministic_per_seed(self, saturated_circuit):
        _, circuit = saturated_circuit
        runs = [
            portfolio_extract(
                circuit.egraph,
                circuit.output_classes,
                cost=NodeCountCost(),
                config=PortfolioConfig(chains=2, move_budget=24, migrate_every=8, seed=9, workers=0),
            )
            for _ in range(2)
        ]
        assert runs[0].cost == runs[1].cost
        assert runs[0].extraction == runs[1].extraction

    def test_chain_seeds_are_distinct(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(chains=3, move_budget=24, migrate_every=8, seed=5, workers=0),
        )
        seeds = [chain.seed for chain in result.profile.chains]
        assert seeds == [chain_seed(5, i) for i in range(3)]
        assert len(set(seeds)) == 3

    def test_chain_seed_derivation(self):
        assert chain_seed(7, 0) == 7
        assert chain_seed(7, 1) != chain_seed(7, 0)
        assert len({chain_seed(7, i) for i in range(16)}) == 16

    def test_migration_events_recorded(self, saturated_circuit):
        _, circuit = saturated_circuit
        # A hot random-start chain next to a greedy-start chain: the laggard
        # adopts the leader's solution at a migration barrier.
        specs = (
            ChainSpec(kind="sa", initial="greedy", temperature=0.1, cooling=0.9),
            ChainSpec(kind="sa", initial="random", temperature=64.0, cooling=1.0),
        )
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(
                chains=2, move_budget=64, migrate_every=8, seed=3, workers=0, chain_specs=specs
            ),
        )
        assert result.profile.migrations
        event = result.profile.migrations[0]
        assert event.target_chain != event.source_chain
        received = result.profile.chains[event.target_chain].migrations_received
        assert received >= 1

    def test_final_selector_rescored(self, saturated_circuit):
        _, circuit = saturated_circuit
        calls = []

        def selector(extraction):
            calls.append(1)
            return float(len(extraction))

        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(chains=2, move_budget=16, migrate_every=8, workers=0),
            final_selector=selector,
        )
        assert len(calls) == 2
        assert result.profile.selector == "external"
        assert result.chain_costs == sorted(result.chain_costs)

    def test_single_chain_runs_and_matches_manual_rounds(self, saturated_circuit):
        """chains=1 is exactly the single-chain engine: the portfolio adds
        nothing but the round structure."""
        _, circuit = saturated_circuit
        cost = DepthCost()
        config = PortfolioConfig(chains=1, move_budget=24, migrate_every=8, seed=21, workers=0)
        result = portfolio_extract(circuit.egraph, circuit.output_classes, cost=cost, config=config)
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
        state = init_chain(
            problem, config.spec_for(0), chain_seed(21, 0), evaluator="delta",
            greedy=problem.greedy_choice(),
        )
        for _ in range(3):
            state = run_round(problem, state, 8)
        assert state.best_cost == result.cost
        assert problem.extraction_from_choice(state.best_choice) == result.extraction


class TestConfigValidation:
    def test_rejects_non_progressing_rounds(self):
        with pytest.raises(ValueError, match="migrate_every"):
            PortfolioConfig(migrate_every=0)
        with pytest.raises(ValueError, match="move_budget"):
            PortfolioConfig(move_budget=-1)
        with pytest.raises(ValueError, match="chain"):
            PortfolioConfig(chains=0)
        with pytest.raises(ValueError, match="evaluator"):
            PortfolioConfig(evaluator="magic")

    def test_rejects_empty_chain_specs(self):
        # An empty spec list used to pass here and divide by zero in spec_for.
        with pytest.raises(ValueError, match="chain_specs"):
            PortfolioConfig(chain_specs=())
        with pytest.raises(ValueError, match="chain_specs"):
            PortfolioConfig(chains=2, chain_specs=[])


class TestTelemetry:
    def test_profile_roundtrip_and_json(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=2, move_budget=16, migrate_every=8, workers=0),
        )
        payload = result.profile.to_dict()
        text = json.dumps(payload)  # must be plain JSON
        back = ExtractionProfile.from_dict(json.loads(text))
        assert back.best_cost == result.profile.best_cost
        assert back.num_chains == result.profile.num_chains
        assert [c.to_dict() for c in back.chains] == [c.to_dict() for c in result.profile.chains]
        assert len(back.chains[0].accept_curve) == len(back.chains[0].reject_curve)

    def test_chain_curves_cover_rounds(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=1, move_budget=24, migrate_every=8, workers=0),
        )
        chain = result.profile.chains[0]
        assert len(chain.best_curve) == 1 + 3  # initial + one entry per round
        assert chain.best_curve[-1] == chain.best_cost
        assert sum(chain.accept_curve) + sum(chain.reject_curve) == chain.moves


class TestExtractionBench:
    def test_fast_bench_payload(self):
        payload = run_extraction_bench(
            circuits=["adder"],
            fast=True,
            move_budget=12,
            chains=2,
            saturate_iters=2,
            max_nodes=2_000,
            check_cec=True,
        )
        entry = payload["circuits"]["adder"]
        assert set(entry["runs"]) == {"delta", "portfolio"}
        for run in entry["runs"].values():
            assert run["wall_time"] > 0
            assert run["extraction_cec"] == "equivalent"
        assert set(entry["speedup"]) == {"portfolio"}
        assert "geomean_speedup" in payload["summary"]
        assert "adder" in render_bench(payload)

    def test_check_regressions_gate(self):
        payload = {
            "circuits": {
                "adder": {"runs": {"portfolio": {"wall_time": 10.0, "extraction_cec": "equivalent"}}}
            }
        }
        reference = {
            "circuits": {
                "adder": {"runs": {"portfolio": {"wall_time": 1.0, "extraction_cec": "equivalent"}}}
            }
        }
        assert check_regressions(payload, reference, max_ratio=2.0)
        assert not check_regressions(payload, reference, max_ratio=20.0)
