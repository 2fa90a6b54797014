"""Tests of the extraction engine: frozen problem, delta-cost parity,
portfolio determinism, migration, telemetry, and the extraction bench.

The dense (class-numbered) problem is checked against the dict-keyed
kernels it replaced, kept here as oracles over the problem viewed by
e-class id (``DictProblem``)."""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random
import signal
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.simulate import random_simulate
from repro.benchgen import control, epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.language import AND, NOT, OR, VAR
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import DepthCost, NodeCountCost, OperatorCost, extraction_cost
from repro.extraction.engine import (
    DEFAULT_CHAIN_SPECS,
    ChainProfile,
    ChainSpec,
    ChainState,
    DeltaCostEvaluator,
    FrozenProblem,
    PortfolioConfig,
    ProblemStats,
    chain_seed,
    choice_cost,
    init_chain,
    portfolio_extract,
    run_round,
)
from repro.pipeline.bench import EXTRACTION, check_regressions, render_bench, run_bench
from repro.extraction.engine.telemetry import MigrationEvent
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
            config=PortfolioConfig(move_budget=1024, migrate_every=32, seed=7),
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


# -- oracles: the dict-keyed kernels the dense layout replaced ----------------
#
# The production problem numbers its classes and works on lists; every
# oracle below works on ``DictProblem``, the problem viewed by e-class id
# (the layout the engine had before numbering), and returns dicts keyed by
# e-class id.  ``by_id`` views a dense result the same way for comparison.


@dataclass
class DictProblem:
    """A frozen problem keyed by e-class id, children as e-class ids: the
    layout the dense problem replaced (classes in ascending id order)."""

    nodes: Dict[int, list]
    children: Dict[int, list]
    node_costs: Dict[int, list]
    roots: list
    mode: str = "sum"

    @classmethod
    def view(cls, problem):
        """``problem`` (dense) viewed by e-class id."""
        ids = problem.class_ids
        return cls(
            nodes={ids[c]: list(nodes) for c, nodes in enumerate(problem.nodes)},
            children={
                ids[c]: [tuple(ids[ch] for ch in kids) for kids in class_children]
                for c, class_children in enumerate(problem.children)
            },
            node_costs={ids[c]: list(costs) for c, costs in enumerate(problem.node_costs)},
            roots=[ids[r] for r in problem.roots],
            mode=problem.mode,
        )

    @property
    def num_classes(self):
        return len(self.nodes)

    def users(self):
        """The reverse index as the dict-keyed problem built it: one
        ``(parent, node index)`` pair per node and distinct child."""
        users = {cid: [] for cid in self.nodes}
        for cid, class_children in self.children.items():
            for i, kids in enumerate(class_children):
                for ch in set(kids):
                    users[ch].append((cid, i))
        return users

    def choice_from_extraction(self, extraction):
        choice = {}
        for cid, enode in extraction.items():
            if cid in self.nodes and enode in self.nodes[cid]:
                choice[cid] = self.nodes[cid].index(enode)
        return choice

    def extraction_from_choice(self, choice):
        return {cid: self.nodes[cid][idx] for cid, idx in sorted(choice.items())}


def by_id(problem, values, present=lambda value: value is not None):
    """A per-class-number list viewed as ``{e-class id: value}`` over the
    entries ``present`` accepts, in ascending id order."""
    return {problem.class_ids[c]: value for c, value in enumerate(values) if present(value)}


def choice_by_id(problem, choice):
    """A dense choice viewed by e-class id (unchosen classes left out)."""
    return by_id(problem, choice, lambda idx: idx >= 0)


def dense_choice(problem, choice):
    """A choice keyed by e-class id as a dense list."""
    dense = [-1] * problem.num_classes
    for c, cid in enumerate(problem.class_ids):
        if cid in choice:
            dense[c] = choice[cid]
    return dense


def dense_toposort_by_id(problem, choice):
    """``problem.toposort`` viewed by e-class id: positions (in position
    order) and depths (``None`` on a sum cost) of the placed classes."""
    position, depths = problem.toposort(choice)
    n = problem.num_classes
    placed = sorted((p, c) for c, p in enumerate(position) if p < n)
    order = {problem.class_ids[c]: p for p, c in placed}
    if depths is None:
        return order, None
    return order, {problem.class_ids[c]: depths[c] for _, c in placed}


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


def oracle_choice_cost(problem, choice):
    """From-scratch cost of a dict choice: ``sum`` adds the reachable
    classes' costs in the iteration order of their id set, ``depth`` is a
    memoised longest path (the oracle for ``choice_cost``)."""
    if problem.mode == "sum":
        reachable = set()
        stack = list(problem.roots)
        while stack:
            cid = stack.pop()
            if cid in reachable:
                continue
            reachable.add(cid)
            stack.extend(problem.children[cid][choice[cid]])
        return sum(problem.node_costs[cid][choice[cid]] for cid in reachable)
    memo = {}
    for root in problem.roots:
        stack = [(root, False)]
        while stack:
            cid, expanded = stack.pop()
            if cid in memo:
                continue
            kids = problem.children[cid][choice[cid]]
            if not expanded:
                stack.append((cid, True))
                stack.extend((ch, False) for ch in kids if ch not in memo)
                continue
            child_depths = [memo[ch] for ch in kids]
            memo[cid] = problem.node_costs[cid][choice[cid]] + (max(child_depths) if child_depths else 0.0)
    return max((memo[r] for r in problem.roots), default=0.0)


class ParentMultimapEvaluator:
    """The dict-keyed delta evaluator: ``sum`` mode keeps reference counts in
    a dict, ``depth`` mode sets up from the oracle walks and builds and
    edits its own extraction-parent multimap (the oracle for the dense
    ``DeltaCostEvaluator``, its set-up from ``toposort``'s depths and its
    propagation through ``FrozenProblem.users``)."""

    def __init__(self, problem, choice):
        self.problem = problem
        self.choice = dict(choice)
        self.cost = 0.0
        self.evals = 0
        self.touched = 0
        if problem.mode == "sum":
            self._refs = {}
            stack = []
            for root in problem.roots:
                self._refs[root] = self._refs.get(root, 0) + 1
                if self._refs[root] == 1:
                    stack.append(root)
            while stack:
                cid = stack.pop()
                self.cost += problem.node_costs[cid][self.choice[cid]]
                for ch in problem.children[cid][self.choice[cid]]:
                    self._refs[ch] = self._refs.get(ch, 0) + 1
                    if self._refs[ch] == 1:
                        stack.append(ch)
            return
        self._order = oracle_toposort(problem, self.choice)
        self._depth, self.cost = oracle_depths(problem, self.choice, self._order)
        self._parents = {cid: {} for cid in self._order}
        for cid in self._order:
            for ch in problem.children[cid][self.choice[cid]]:
                counts = self._parents[ch]
                counts[cid] = counts.get(cid, 0) + 1

    def _cascade(self, cids, step):
        stack = list(cids)
        while stack:
            cid = stack.pop()
            self._refs[cid] = self._refs.get(cid, 0) + step
            if self._refs[cid] == (1 if step > 0 else 0):
                self.touched += 1
                self.cost += step * self.problem.node_costs[cid][self.choice[cid]]
                stack.extend(self.problem.children[cid][self.choice[cid]])

    def flip(self, cid, node_idx):
        self.evals += 1
        problem, choice = self.problem, self.choice
        old_idx = choice[cid]
        if problem.mode == "sum":
            if self._refs.get(cid, 0) == 0:
                choice[cid] = node_idx
                return self.cost
            self.cost += problem.node_costs[cid][node_idx] - problem.node_costs[cid][old_idx]
            choice[cid] = node_idx
            self.touched += 1
            self._cascade(problem.children[cid][node_idx], 1)
            self._cascade(problem.children[cid][old_idx], -1)
            return self.cost
        for ch in problem.children[cid][old_idx]:
            counts = self._parents[ch]
            counts[cid] -= 1
            if not counts[cid]:
                del counts[cid]
        for ch in problem.children[cid][node_idx]:
            counts = self._parents[ch]
            counts[cid] = counts.get(cid, 0) + 1
        choice[cid] = node_idx
        order = self._order
        heap = [(order[cid], cid)]
        queued = {cid}
        while heap:
            _, current = heapq.heappop(heap)
            queued.discard(current)
            kids = problem.children[current][choice[current]]
            child_depths = [self._depth[ch] for ch in kids]
            new_depth = problem.node_costs[current][choice[current]] + (
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
        self.cost = max((self._depth[r] for r in problem.roots), default=0.0)
        return self.cost


class OracleFullEvaluator(ParentMultimapEvaluator):
    """The full-sweep reference, dict-keyed: every flip re-derives the cost
    from scratch.  The delta evaluator must match it flip for flip under
    integral weights; it is the only full-sweep evaluator in the repo."""

    def __init__(self, problem, choice):
        self.problem = problem
        self.choice = dict(choice)
        self.cost = oracle_choice_cost(problem, self.choice)
        self.evals = 0
        self.touched = 0

    def flip(self, cid, node_idx):
        self.choice[cid] = node_idx
        self.cost = oracle_choice_cost(self.problem, self.choice)
        self.evals += 1
        self.touched += self.problem.num_classes
        return self.cost


def oracle_init_chain(problem, spec, seed, chain_id, seed_choice, greedy):
    """``init_chain`` on dict choices."""
    rng = random.Random(seed)
    if spec.initial == "random":
        choice = fixpoint_random_choice(problem, rng, fallback=greedy)
    elif spec.initial == "seed" and seed_choice:
        choice = {**greedy, **seed_choice}
        try:
            oracle_toposort(problem, choice)
        except ValueError:
            choice = dict(greedy)
    else:
        choice = dict(greedy)
    cost = oracle_choice_cost(problem, choice)
    profile = ChainProfile(
        chain_id=chain_id, kind=spec.kind, seed=seed,
        initial_cost=cost, best_cost=cost, final_cost=cost, best_curve=[cost],
    )
    return ChainState(
        spec=spec, seed=seed, choice=choice, current_cost=cost,
        best_choice=dict(choice), best_cost=cost, temperature=spec.temperature,
        rng_state=rng.getstate(), profile=profile,
    )


def _oracle_round_structures(problem, choice, evaluator):
    _, safe, flippable, _ = oracle_rebuild(problem, choice)
    return safe, flippable, evaluator(problem, choice)


def oracle_run_round(problem, state, moves, evaluator_cls=ParentMultimapEvaluator):
    """``run_round`` on dict choices, rebuilt from the oracle walks, pricing
    flips with an ``evaluator_cls``."""
    spec = state.spec
    rng = random.Random()
    rng.setstate(state.rng_state)
    safe, flippable, evaluator = _oracle_round_structures(problem, state.choice, evaluator_cls)
    current = evaluator.cost
    best_choice, best_cost = state.best_choice, state.best_cost
    temperature, since_improvement = state.temperature, state.since_improvement
    accepted = rejected = uphill = restarts = executed = 0
    for _ in range(moves if flippable else 0):
        executed += 1
        cid = flippable[rng.randrange(len(flippable))]
        old_idx = evaluator.choice[cid]
        alternatives = safe[cid]
        pick = alternatives[rng.randrange(len(alternatives) - 1)]
        if pick == old_idx:
            pick = alternatives[-1]
        new_cost = evaluator.flip(cid, pick)
        delta = new_cost - current
        take = delta <= 0
        if not take and spec.kind != "greedy" and temperature > 0:
            take = rng.random() < math.exp(-delta / temperature)
            if take:
                uphill += 1
        if take:
            current = new_cost
            accepted += 1
            if current < best_cost:
                best_cost = current
                best_choice = dict(evaluator.choice)
                since_improvement = 0
            else:
                since_improvement += 1
        else:
            evaluator.flip(cid, old_idx)
            rejected += 1
            since_improvement += 1
        if spec.kind != "greedy":
            temperature *= spec.cooling
        if spec.kind == "restart" and since_improvement >= spec.restart_after:
            restarts += 1
            since_improvement = 0
            temperature = spec.temperature
            evals, touched = evaluator.evals, evaluator.touched
            fresh = fixpoint_random_choice(problem, rng, fallback=best_choice)
            safe, flippable, evaluator = _oracle_round_structures(problem, fresh, evaluator_cls)
            evaluator.evals, evaluator.touched = evals, touched
            current = evaluator.cost
            if current < best_cost:
                best_cost = current
                best_choice = dict(fresh)
            if not flippable:
                break
    profile = state.profile
    profile = replace(
        profile,
        best_cost=best_cost,
        final_cost=current,
        moves=profile.moves + executed,
        accepted=profile.accepted + accepted,
        rejected=profile.rejected + rejected,
        uphill=profile.uphill + uphill,
        restarts=profile.restarts + restarts,
        evals=profile.evals + evaluator.evals,
        classes_touched=profile.classes_touched + evaluator.touched,
        best_curve=profile.best_curve + [best_cost],
        accept_curve=profile.accept_curve + [accepted],
        reject_curve=profile.reject_curve + [rejected],
    )
    return replace(
        state,
        choice=dict(evaluator.choice),
        current_cost=current,
        best_choice=best_choice,
        best_cost=best_cost,
        temperature=temperature,
        rng_state=rng.getstate(),
        since_improvement=since_improvement,
        profile=profile,
    )


def oracle_adopt_solution(state, choice, cost):
    """``adopt_solution`` on dict choices."""
    profile = replace(state.profile, migrations_received=state.profile.migrations_received + 1)
    best_choice, best_cost = state.best_choice, state.best_cost
    if cost < best_cost:
        best_choice, best_cost = dict(choice), cost
    return replace(
        state, choice=dict(choice), current_cost=cost, best_choice=best_choice,
        best_cost=best_cost, since_improvement=0, profile=profile,
    )


def oracle_portfolio(problem, config, seed_choice=None, evaluator_cls=ParentMultimapEvaluator):
    """The portfolio loop on dict choices (no pool, no spans): chain
    start-up, rounds, restarts and migrations, pricing flips with an
    ``evaluator_cls``.  Returns the final chain states and the migration
    events."""
    greedy = fixpoint_greedy_choice(problem)
    states = [
        oracle_init_chain(
            problem, config.spec_for(i), chain_seed(config.seed, i), i, seed_choice, greedy,
        )
        for i in range(config.chains)
    ]
    remaining = config.budgets()
    migrations = []
    round_index = 0
    while any(remaining):
        batch = [(i, min(config.migrate_every, remaining[i])) for i in range(config.chains) if remaining[i] > 0]
        for i, moves in batch:
            states[i] = oracle_run_round(problem, states[i], moves, evaluator_cls)
            remaining[i] -= moves
        round_index += 1
        if config.chains > 1:
            best_i = min(range(config.chains), key=lambda i: (states[i].best_cost, i))
            best = states[best_i]
            for i, state in enumerate(states):
                if i != best_i and state.current_cost > best.best_cost and remaining[i] > 0:
                    states[i] = oracle_adopt_solution(state, best.best_choice, best.best_cost)
                    migrations.append(MigrationEvent(round_index, best_i, i, best.best_cost))
    return states, migrations


#: The ``ChainProfile`` fields a portfolio run must reproduce exactly
#: (everything but wall-clock time).
PROFILE_FIELDS = TRAJECTORY_FIELDS + (
    "chain_id", "kind", "seed", "initial_cost", "best_cost", "final_cost",
    "accepted", "rejected",
)


def assert_portfolio_matches_oracle(
    problem, result, config, seed_solution=None, evaluator_cls=ParentMultimapEvaluator
):
    """``result`` (a production portfolio run on ``problem``'s e-graph)
    against the dict-keyed portfolio on ``problem`` viewed by class id,
    pricing flips with an ``evaluator_cls``: every chain counter and curve
    (floats by ``repr``), the migrations, every chain's best extraction and
    the winner.  Against the full sweep, which re-derives every class on
    every flip, ``classes_touched`` is not compared."""
    view = DictProblem.view(problem)
    seed_choice = view.choice_from_extraction(seed_solution) if seed_solution else None
    states, migrations = oracle_portfolio(view, config, seed_choice, evaluator_cls)
    fields = PROFILE_FIELDS
    if evaluator_cls is OracleFullEvaluator:
        fields = tuple(name for name in PROFILE_FIELDS if name != "classes_touched")
    got = [[repr(getattr(chain, name)) for name in fields] for chain in result.profile.chains]
    expected = [[repr(getattr(s.profile, name)) for name in fields] for s in states]
    assert got == expected
    assert [m.to_dict() for m in result.profile.migrations] == [m.to_dict() for m in migrations]
    ranked = sorted(range(config.chains), key=lambda i: (states[i].best_cost, i))
    assert result.chain_extractions == [view.extraction_from_choice(states[i].best_choice) for i in ranked]
    assert [repr(c) for c in result.chain_costs] == [repr(states[i].best_cost) for i in ranked]
    assert result.extraction == result.chain_extractions[0]


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
    ``ENode`` values, keyed by e-class id (the oracle for the row-reading,
    numbering ``build``)."""
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
    return DictProblem(
        nodes=nodes,
        children=children,
        node_costs=node_costs,
        roots=[find(r) for r in roots],
        mode=cost.mode,
    )


def dense_problem(children, node_costs, roots, mode="sum"):
    """A dense problem from per-class child lists keyed by e-class id (any
    key order; classes are numbered in ascending id order, as ``build``
    numbers them)."""
    ids = sorted(children)
    number = {cid: c for c, cid in enumerate(ids)}
    return FrozenProblem(
        class_ids=ids,
        nodes=[[ENode(OR, kids) for kids in children[cid]] for cid in ids],
        children=[[tuple(number[ch] for ch in kids) for kids in children[cid]] for cid in ids],
        node_costs=[list(node_costs[cid]) for cid in ids],
        roots=[number[r] for r in roots],
        mode=mode,
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

#: The weightings under which the delta evaluator matches the full sweep
#: flip for flip (``docs/parity.md``): integer node costs.
INTEGRAL_COSTS = ("nodes", "depth")

#: The dense-vs-dict costs: the rebuild oracles' costs, integer and
#: signed-zero sum weights, and non-integral weights in both modes (where a
#: sum's float depends on the order its terms are added in).
DENSE_ORACLE_COSTS = {
    **REBUILD_ORACLE_COSTS,
    "sum_int": lambda: OperatorCost(weights={AND: 1, OR: 3, NOT: 0, VAR: 0}, mode="sum"),
    "sum_neg_zero": lambda: OperatorCost(weights={AND: 1.0, OR: 1.0, NOT: -0.0, VAR: -0.0}, mode="sum"),
    "sum_frac": lambda: OperatorCost(weights={AND: 0.1, OR: 0.7, NOT: 0.2, VAR: 0.3}, mode="sum"),
    "depth_frac": lambda: OperatorCost(weights={AND: 0.1, OR: 0.7, NOT: 0.2, VAR: 0.3}, mode="depth"),
}


class TestRebuildOracles:
    """Production rebuild structures against the algorithms they replaced."""

    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    def test_random_choice_matches_fixpoint(self, oracle_circuit, cost_cls):
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost_cls())
        view = DictProblem.view(problem)
        greedy = problem.greedy_choice()
        for rng_seed in range(5):
            for fallback in (greedy, None):
                rng, oracle_rng = random.Random(rng_seed), random.Random(rng_seed)
                got = problem.random_choice(rng, fallback=fallback)
                oracle_fallback = choice_by_id(problem, fallback) if fallback else None
                expected = fixpoint_random_choice(view, oracle_rng, fallback=oracle_fallback)
                assert choice_by_id(problem, got) == expected
                assert rng.getstate() == oracle_rng.getstate()

    def test_fallback_order_matches_fixpoint(self):
        # Self-looped classes never become realizable, so they come from the
        # fallback; the fallback fills only those, never a class the draws
        # chose (ids given out of order, numbered ascending).
        leaf, loops = 2, [100, 3, 36, 68, 7, 1000, 35]
        children = {leaf: [()], 0: [(leaf,), (leaf, leaf)], 1: [(0,), (leaf,)]}
        children.update({cid: [(cid,), (cid, leaf)] for cid in loops})
        problem = dense_problem(children, {cid: [1.0] * len(kids) for cid, kids in children.items()}, [1])
        assert problem.class_ids == sorted(children)
        view = DictProblem.view(problem)
        fallback = {cid: 1 for cid in [*loops, leaf, 0, 1]}
        for rng_seed in range(5):
            got = problem.random_choice(random.Random(rng_seed), fallback=dense_choice(problem, fallback))
            expected = fixpoint_random_choice(view, random.Random(rng_seed), fallback=fallback)
            assert choice_by_id(problem, got) == expected
            assert [choice_by_id(problem, got)[cid] for cid in loops] == [1] * len(loops)
            assert choice_by_id(problem, got)[leaf] == 0

    @pytest.mark.parametrize("cost_name", sorted(REBUILD_ORACLE_COSTS))
    def test_rebuild_matches_oracle_walks(self, oracle_circuit, cost_name):
        """The one-walk rebuild against the three walks it replaced: on each
        random choice as drawn, and again after 200 safe flips.  Depths are
        compared by ``repr``, which tells ``0`` from ``0.0`` and ``-0.0``."""
        cost = REBUILD_ORACLE_COSTS[cost_name]()
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost)
        view = DictProblem.view(problem)
        greedy = problem.greedy_choice()
        ids = problem.class_ids
        for rng_seed in range(5):
            rng = random.Random(rng_seed)
            choice = problem.random_choice(rng, fallback=greedy)
            for flipped in (False, True):
                if flipped:
                    all_safe = oracle_flip_candidates(view, oracle_toposort(view, choice_by_id(problem, choice)))
                    movable = [cid for cid in sorted(all_safe) if len(all_safe[cid]) > 1]
                    for _ in range(200):
                        cid = movable[rng.randrange(len(movable))]
                        choice[problem.class_number(cid)] = all_safe[cid][rng.randrange(len(all_safe[cid]))]
                order, safe, flippable, depths = oracle_rebuild(view, choice_by_id(problem, choice))
                got_order, got_depths = dense_toposort_by_id(problem, choice)
                assert list(got_order.items()) == list(order.items())
                position, _ = problem.toposort(choice)
                full = problem.flip_candidates(position)
                assert by_id(problem, full) == oracle_flip_candidates(view, order)
                got_safe, got_flippable, evaluator = _rebuild(problem, choice)
                assert by_id(problem, got_safe) == safe
                assert [ids[c] for c in got_flippable] == flippable
                if depths is None:
                    assert got_depths is None
                    assert evaluator.cost == choice_cost(problem, choice)
                else:
                    expected = [(cid, repr(d)) for cid, d in depths[0].items()]
                    assert [(cid, repr(d)) for cid, d in got_depths.items()] == expected
                    assert evaluator._position == position
                    live = {ids[c]: evaluator._depth[c] for c in range(problem.num_classes) if position[c] < len(ids)}
                    assert sorted((cid, repr(d)) for cid, d in live.items()) == sorted(expected)
                    assert repr(evaluator.cost) == repr(depths[1])
                    assert evaluator.cost == choice_cost(problem, choice)

    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    def test_problem_stats_match_oracle_walks(self, oracle_circuit, cost_cls):
        cost = cost_cls()
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost)
        view = DictProblem.view(problem)
        safe = oracle_flip_candidates(view, oracle_toposort(view, fixpoint_greedy_choice(view)))
        result = portfolio_extract(
            oracle_circuit.egraph,
            oracle_circuit.output_classes,
            cost=cost,
            config=PortfolioConfig(chains=1, move_budget=0),
        )
        assert result.profile.problem == {
            "classes": len(view.nodes),
            "nodes": sum(len(nodes) for nodes in view.nodes.values()),
            "flippable_classes": sum(1 for indices in safe.values() if len(indices) > 1),
            "roots": len(view.roots),
        }
        assert result.profile.problem == ProblemStats.of(problem, problem.flip_candidates(
            problem.toposort(problem.greedy_choice())[0])).to_dict()

    def test_walk_errors_match_oracle(self, oracle_circuit):
        """Cyclic choices and choices missing a child raise the oracle's
        ``ValueError`` message (naming e-class ids); every other choice gets
        the oracle's order."""
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, DepthCost())
        view = DictProblem.view(problem)
        greedy = choice_by_id(problem, problem.greedy_choice())

        def closes_cycle(choice, cid, i):
            stack, seen = list(view.children[cid][i]), set()
            while stack:
                ch = stack.pop()
                if ch == cid:
                    return True
                if ch not in seen:
                    seen.add(ch)
                    stack.extend(view.children[ch][choice[ch]])
            return False

        outcomes = set()
        for rng_seed in range(12):
            rng = random.Random(rng_seed)
            choice = fixpoint_random_choice(view, rng, fallback=greedy)
            safe = oracle_flip_candidates(view, oracle_toposort(view, choice))
            # Flips outside the safe lists: some close a cycle, some do not.
            unsafe = [
                (cid, i)
                for cid in sorted(safe)
                for i in range(len(view.children[cid]))
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
                kids = [ch for cid in sorted(choice) for ch in view.children[cid][choice[cid]]]
                del choice[kids[rng.randrange(len(kids))]]
            try:
                expected = list(oracle_toposort(view, choice).items())
            except ValueError as error:
                expected = str(error)
            try:
                got = list(dense_toposort_by_id(problem, dense_choice(problem, choice))[0].items())
            except ValueError as error:
                got = str(error)
            assert got == expected
            outcomes.add(expected.split()[0] if isinstance(expected, str) else "ordered")
        assert outcomes == {"ordered", "cyclic", "choice"}

    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    def test_flips_match_parent_multimap_evaluator(self, oracle_circuit, cost_cls):
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost_cls())
        view = DictProblem.view(problem)
        greedy = problem.greedy_choice()
        for rng_seed in range(5):
            rng = random.Random(rng_seed)
            choice = problem.random_choice(rng, fallback=greedy)
            position, depths = problem.toposort(choice)
            safe = problem.flip_candidates(position)
            flippable = [c for c, indices in enumerate(safe) if indices is not None and len(indices) > 1]
            delta = DeltaCostEvaluator(problem, choice, position=position, depths=depths)
            oracle = ParentMultimapEvaluator(view, choice_by_id(problem, choice))
            assert delta.cost == oracle.cost
            for _ in range(200):
                c = flippable[rng.randrange(len(flippable))]
                pick = safe[c][rng.randrange(len(safe[c]))]
                assert delta.flip(c, pick) == oracle.flip(problem.class_ids[c], pick)
                assert (delta.cost, delta.touched) == (oracle.cost, oracle.touched)
            assert choice_by_id(problem, delta.choice) == oracle.choice

    def test_scoped_flip_candidates_match_all_classes(self, oracle_circuit):
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes)
        position, _ = problem.toposort(problem.random_choice(random.Random(0), problem.greedy_choice()))
        everything = problem.flip_candidates(position)
        placed = [c for c in range(problem.num_classes) if position[c] < problem.num_classes]
        assert [c for c, indices in enumerate(everything) if indices is not None] == placed
        some = placed[::3]
        scoped = problem.flip_candidates(position, classes=some)
        assert scoped == [everything[c] if c in set(some) else None for c in range(problem.num_classes)]


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
    for choice."""

    @pytest.mark.parametrize("cost_name", sorted(GREEDY_ORACLE_COSTS))
    def test_build_matches_object_walk(self, oracle_circuit, cost_name):
        cost = GREEDY_ORACLE_COSTS[cost_name]()
        roots = oracle_circuit.output_classes
        built = FrozenProblem.build(oracle_circuit.egraph, roots, cost)
        walked = walk_build(oracle_circuit.egraph, roots, cost)
        assert built.class_ids == sorted(walked.nodes)
        view = DictProblem.view(built)
        for name in ("nodes", "children", "node_costs"):
            assert list(getattr(view, name).items()) == list(getattr(walked, name).items())
        assert view.roots == walked.roots
        # The reverse index keeps the dict-keyed problem's order, and the flat
        # counters line up with each class's nodes.
        ids = built.class_ids
        users = {ids[c]: [(ids[p], i) for p, i, _ in entries] for c, entries in enumerate(built.users)}
        assert users == walked.users()
        assert all(built.node_start[p] + i == flat for entries in built.users for p, i, flat in entries)
        assert [built.distinct_counts[built.node_start[c] : built.node_start[c + 1]] for c in range(len(ids))] == [
            [len(set(kids)) for kids in walked.children[cid]] for cid in ids
        ]
        assert [ids[c] for c in built.leaf_classes] == [
            cid for cid in ids if any(not kids for kids in walked.children[cid])
        ]

    @pytest.mark.parametrize("cost_name", sorted(GREEDY_ORACLE_COSTS))
    def test_greedy_choice_matches_fixpoint(self, oracle_circuit, cost_name):
        problem = FrozenProblem.build(
            oracle_circuit.egraph, oracle_circuit.output_classes, GREEDY_ORACLE_COSTS[cost_name]()
        )
        expected = fixpoint_greedy_choice(DictProblem.view(problem))
        assert choice_by_id(problem, problem.greedy_choice()) == expected

    @pytest.mark.parametrize("cost_name", sorted(GREEDY_ORACLE_COSTS))
    def test_greedy_extract_matches_object_fixpoint(self, engine_circuit, cost_name):
        """Every class gets the fixpoint's e-node; the extraction comes in
        ascending id order (the fixpoint's dict is in first-chosen order)."""
        circuit = engine_circuit
        cost = GREEDY_ORACLE_COSTS[cost_name]()
        uf = circuit.egraph.union_find
        expected = sorted(
            (cid, enode.canonicalize(uf))
            for cid, enode in fixpoint_greedy_extract(circuit.egraph, cost).items()
        )
        assert list(greedy_extract(circuit.egraph, cost).items()) == expected


# -- dense layout vs the dict-keyed kernels -----------------------------------


@st.composite
def egraph_programs(draw):
    """A small e-graph program: variables, AND/OR/NOT terms over earlier
    classes, unions between any two classes (which can close cycles), the
    roots, seed picks and a saturation depth."""
    num_vars = draw(st.integers(1, 5))
    index = st.integers(0, 10**6)
    terms = draw(st.lists(st.tuples(st.sampled_from([AND, OR, NOT]), index, index), min_size=4, max_size=40))
    unions = draw(st.lists(st.tuples(index, index), max_size=4))
    roots = draw(st.lists(index, min_size=1, max_size=3))
    seed_picks = draw(st.lists(st.tuples(index, index), max_size=6))
    iterations = draw(st.integers(0, 2))
    return num_vars, terms, unions, roots, seed_picks, iterations


def run_egraph_program(program):
    """Build a program's e-graph (the terms, their unions, then up to two
    saturation iterations of the Boolean rules); returns it, its root
    classes, and a seed extraction of arbitrary (possibly cycle-closing)
    picks."""
    num_vars, terms, unions, roots, seed_picks, iterations = program
    eg = EGraph()
    classes = [eg.var(f"x{i}") for i in range(num_vars)]
    for op, a, b in terms:
        kids = [classes[a % len(classes)]] if op == NOT else [classes[a % len(classes)], classes[b % len(classes)]]
        classes.append(eg.add_term(op, kids))
    for a, b in unions:
        eg.union(classes[a % len(classes)], classes[b % len(classes)])
    eg.rebuild()
    if iterations:
        SaturationEngine(eg, boolean_rules(), EngineLimits(max_iterations=iterations, max_nodes=400)).run()
    canonical = sorted({eg.find(c) for c in classes})
    seed = {}
    for a, b in seed_picks:
        cid = canonical[a % len(canonical)]
        nodes = eg.nodes_of(cid)
        seed[cid] = nodes[b % len(nodes)]
    return eg, [eg.find(classes[r % len(classes)]) for r in roots], seed


#: A portfolio on a small e-graph that fires restarts and migrations: the
#: default mix, a restart chain that re-seeds after 3 stale moves, and a
#: chain too hot to settle, which keeps falling behind the best.
SMALL_PORTFOLIO_SPECS = DEFAULT_CHAIN_SPECS + (
    ChainSpec(kind="restart", initial="random", temperature=2.0, cooling=0.9, restart_after=3),
    ChainSpec(kind="sa", initial="random", temperature=64.0, cooling=1.0),
)


def assert_kernels_match(problem, rng_seed):
    """Every dense kernel on ``problem`` against its dict-keyed oracle."""
    view = DictProblem.view(problem)
    ids = problem.class_ids
    greedy = problem.greedy_choice()
    assert choice_by_id(problem, greedy) == fixpoint_greedy_choice(view)
    rng, oracle_rng = random.Random(rng_seed), random.Random(rng_seed)
    for fallback in (None, greedy):
        choice = problem.random_choice(rng, fallback=fallback)
        oracle_fallback = choice_by_id(problem, fallback) if fallback else None
        assert choice_by_id(problem, choice) == fixpoint_random_choice(view, oracle_rng, oracle_fallback)
        assert rng.getstate() == oracle_rng.getstate()
    by_ids = choice_by_id(problem, choice)
    order, safe, flippable, depths = oracle_rebuild(view, by_ids)
    got_order, got_depths = dense_toposort_by_id(problem, choice)
    assert list(got_order.items()) == list(order.items())
    if depths is None:
        assert got_depths is None
    else:
        assert [(cid, repr(d)) for cid, d in got_depths.items()] == [(cid, repr(d)) for cid, d in depths[0].items()]
    got_safe, got_flippable, evaluator = _rebuild(problem, choice)
    assert by_id(problem, got_safe) == safe
    assert [ids[c] for c in got_flippable] == flippable
    assert repr(choice_cost(problem, choice)) == repr(oracle_choice_cost(view, by_ids))
    oracle = ParentMultimapEvaluator(view, by_ids)
    oracle_full = OracleFullEvaluator(view, by_ids)
    assert repr(evaluator.cost) == repr(oracle.cost)
    for _ in range(20 if got_flippable else 0):
        c = got_flippable[rng.randrange(len(got_flippable))]
        pick = got_safe[c][rng.randrange(len(got_safe[c]))]
        assert repr(evaluator.flip(c, pick)) == repr(oracle.flip(ids[c], pick))
        assert evaluator.touched == oracle.touched
        # ``choice_cost`` of the flipped choice equals the oracle's full sweep.
        assert repr(choice_cost(problem, evaluator.choice)) == repr(oracle_full.flip(ids[c], pick))


class TestDenseLayoutOracles:
    """The dense problem's kernels and whole portfolio runs against the
    dict-keyed kernels, on hypothesis e-graphs and the saturated fixtures,
    under depth, sum, integer, signed-zero and non-integral weights."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(program=egraph_programs(), rng_seed=st.integers(0, 2**16))
    def test_kernels_match_on_hypothesis_egraphs(self, program, rng_seed):
        eg, roots, _ = run_egraph_program(program)
        for make_cost in DENSE_ORACLE_COSTS.values():
            assert_kernels_match(FrozenProblem.build(eg, roots, make_cost()), rng_seed)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(program=egraph_programs(), seed=st.integers(0, 2**16))
    def test_portfolios_match_on_hypothesis_egraphs(self, program, seed):
        """Every weighting against the dict-keyed delta portfolio, and the
        integral ones against the full-sweep portfolio too."""
        eg, roots, seed_solution = run_egraph_program(program)
        for name, make_cost in DENSE_ORACLE_COSTS.items():
            cost = make_cost()
            config = PortfolioConfig(
                chains=6, move_budget=120, migrate_every=8, seed=seed,
                chain_specs=SMALL_PORTFOLIO_SPECS,
            )
            result = portfolio_extract(eg, roots, cost=cost, config=config, seed_solution=seed_solution)
            problem = FrozenProblem.build(eg, roots, cost)
            assert_portfolio_matches_oracle(problem, result, config, seed_solution)
            if name in INTEGRAL_COSTS:
                assert_portfolio_matches_oracle(problem, result, config, seed_solution, OracleFullEvaluator)

    @pytest.mark.parametrize("cost_name", sorted(DENSE_ORACLE_COSTS))
    def test_kernels_match_on_saturated_circuits(self, oracle_circuit, cost_name):
        cost = DENSE_ORACLE_COSTS[cost_name]()
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost)
        for rng_seed in range(3):
            assert_kernels_match(problem, rng_seed)

    @pytest.mark.parametrize("cost_name", sorted(DENSE_ORACLE_COSTS))
    def test_portfolio_matches_oracle_on_saturated_circuits(self, oracle_circuit, cost_name):
        """Start-up, 4 rounds, restarts and migrations of the default mix
        plus a fast-restarting chain."""
        cost = DENSE_ORACLE_COSTS[cost_name]()
        config = PortfolioConfig(
            chains=6, move_budget=192, migrate_every=8, seed=3, chain_specs=SMALL_PORTFOLIO_SPECS,
        )
        seed_solution = oracle_circuit.original_extraction()
        result = portfolio_extract(
            oracle_circuit.egraph, oracle_circuit.output_classes, cost=cost, config=config,
            seed_solution=seed_solution,
        )
        assert sum(chain.restarts for chain in result.profile.chains) > 0
        problem = FrozenProblem.build(oracle_circuit.egraph, oracle_circuit.output_classes, cost)
        assert_portfolio_matches_oracle(problem, result, config, seed_solution)

    def test_snapshot_and_rebuild_spans_count_the_walk(self, saturated_circuit):
        """``extract snapshot`` counts classes and nodes; each ``chain
        rebuild`` counts the classes its walk placed, the reachable ones and
        the flippable ones, as the oracle walks count them."""
        _, circuit = saturated_circuit
        specs = (ChainSpec(kind="restart", initial="random", restart_after=4),)
        config = PortfolioConfig(chains=1, move_budget=64, migrate_every=16, chain_specs=specs)
        with tracing() as tracer:
            portfolio_extract(circuit.egraph, circuit.output_classes, config=config)
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes)
        view = DictProblem.view(problem)
        (snap,) = [r for r in tracer.records if r.name == "extract snapshot"]
        assert snap.args == {"classes": problem.num_classes, "nodes": problem.num_nodes}
        # Replay the chain with the oracle kernels, counting every rebuild.
        counted = []

        def counting(problem, choice, evaluator_cls):
            order, safe, flippable, _ = oracle_rebuild(problem, choice)
            reachable, stack = set(), list(problem.roots)
            while stack:
                cid = stack.pop()
                if cid not in reachable:
                    reachable.add(cid)
                    stack.extend(problem.children[cid][choice[cid]])
            counted.append({"classes": len(order), "reachable": len(reachable), "flippable": len(flippable)})
            return safe, flippable, evaluator_cls(problem, choice)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules[__name__], "_oracle_round_structures", counting)
            oracle_portfolio(view, config)
        rebuilds = [r.args for r in tracer.records if r.name == "chain rebuild"]
        assert len(rebuilds) > 4 and rebuilds == counted
        assert all(args["reachable"] < args["classes"] for args in rebuilds)


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
                    eg, roots, cost=cost, config=PortfolioConfig(chains=1, move_budget=4)
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
                config=PortfolioConfig(chains=1, move_budget=4),
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
        config = PortfolioConfig(chains=1, move_budget=64, migrate_every=16, chain_specs=specs)
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
        assert -1 not in choice
        back = problem.extraction_from_choice(choice)
        assert list(back.items()) == sorted(extraction.items())
        # Classes outside the snapshot and e-nodes outside a class are skipped.
        stray = {max(problem.class_ids) + 1: extraction[problem.class_ids[0]]}
        stray[problem.class_ids[0]] = problem.nodes[1][0]
        assert problem.choice_from_extraction(stray) == [-1] * problem.num_classes

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
        view = DictProblem.view(problem)
        root = eg.find(x)
        r = problem.class_number(root)
        # Choose the OR node, whose child is the class itself after the union.
        cyclic_idx = next(i for i, kids in enumerate(problem.children[r]) if r in kids)
        choice = problem.greedy_choice()
        choice[r] = cyclic_idx
        with pytest.raises(ValueError, match="cyclic") as expected:
            oracle_toposort(view, choice_by_id(problem, choice))
        with pytest.raises(ValueError, match="cyclic") as got:
            problem.toposort(choice)
        assert str(got.value) == str(expected.value)
        # Choosing the AND node but dropping its child ``a`` from the choice.
        and_idx = next(i for i, node in enumerate(problem.nodes[r]) if node.op == AND)
        choice[r] = and_idx
        choice[problem.class_number(eg.find(a))] = -1
        with pytest.raises(ValueError, match="missing") as expected:
            oracle_toposort(view, choice_by_id(problem, choice))
        with pytest.raises(ValueError, match="missing") as got:
            problem.toposort(choice)
        assert str(got.value) == str(expected.value)

    def test_flip_candidates_are_order_respecting(self, saturated_circuit):
        _, circuit = saturated_circuit
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, DepthCost())
        choice = problem.greedy_choice()
        position, _ = problem.toposort(choice)
        safe = problem.flip_candidates(position)
        for cid, indices in enumerate(safe):
            if indices is None:
                assert choice[cid] < 0  # every chosen class is covered
                continue
            assert choice[cid] in indices  # the current choice is always safe
            for i in indices:
                assert all(position[ch] < position[cid] for ch in problem.children[cid][i])


class TestDeltaFullParity:
    """The delta evaluator against the full-sweep test oracle
    (``OracleFullEvaluator``) under integral weights."""

    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    @pytest.mark.parametrize("circuit_seed", [1, 2, 3])
    def test_identical_trajectories_on_random_circuits(self, cost_cls, circuit_seed):
        """A one-chain portfolio and the same chain priced by full sweeps
        return the identical cost, curves and extraction for identical
        seeds."""
        _, circuit = _random_saturated(circuit_seed)
        cost = cost_cls()
        config = PortfolioConfig(chains=1, move_budget=96, migrate_every=24, seed=11)
        seed_solution = circuit.original_extraction()
        result = portfolio_extract(
            circuit.egraph, circuit.output_classes, cost=cost, config=config, seed_solution=seed_solution,
        )
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
        assert_portfolio_matches_oracle(problem, result, config, seed_solution, OracleFullEvaluator)

    def test_flip_values_agree_move_by_move(self, saturated_circuit):
        _, circuit = saturated_circuit
        for cost in (NodeCountCost(), DepthCost()):
            problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
            choice = problem.greedy_choice()
            position, depths = problem.toposort(choice)
            safe = problem.flip_candidates(position)
            flippable = [cid for cid, indices in enumerate(safe) if indices is not None and len(indices) > 1]
            delta = DeltaCostEvaluator(problem, choice, position=position, depths=depths)
            full = OracleFullEvaluator(DictProblem.view(problem), choice_by_id(problem, choice))
            assert delta.cost == full.cost
            rng = random.Random(5)
            for _ in range(60):
                cid = flippable[rng.randrange(len(flippable))]
                pick = safe[cid][rng.randrange(len(safe[cid]))]
                assert delta.flip(cid, pick) == full.flip(problem.class_ids[cid], pick)

    def test_delta_is_cheaper_than_full(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=1, move_budget=32, migrate_every=8),
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
            config=PortfolioConfig(chains=3, move_budget=48, migrate_every=8),
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
            config=PortfolioConfig(chains=2, move_budget=32, migrate_every=8),
        )
        assert result.cost <= result.profile.initial_cost + 1e-9

    def test_default_config_starts_no_process(self, saturated_circuit, monkeypatch):
        """Chains run in the calling process, however many CPUs there are."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("portfolio_extract started a process pool")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", no_pool)
        _, circuit = saturated_circuit
        result = portfolio_extract(circuit.egraph, circuit.output_classes)
        assert result.profile.num_chains == PortfolioConfig().chains

    def test_deterministic_per_seed(self, saturated_circuit):
        _, circuit = saturated_circuit
        runs = [
            portfolio_extract(
                circuit.egraph,
                circuit.output_classes,
                cost=NodeCountCost(),
                config=PortfolioConfig(chains=2, move_budget=24, migrate_every=8, seed=9),
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
            config=PortfolioConfig(chains=3, move_budget=24, migrate_every=8, seed=5),
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
                chains=2, move_budget=64, migrate_every=8, seed=3, chain_specs=specs
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
            config=PortfolioConfig(chains=2, move_budget=16, migrate_every=8),
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
        config = PortfolioConfig(chains=1, move_budget=24, migrate_every=8, seed=21)
        result = portfolio_extract(circuit.egraph, circuit.output_classes, cost=cost, config=config)
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
        state = init_chain(problem, config.spec_for(0), chain_seed(21, 0), greedy=problem.greedy_choice())
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

    def test_rejects_empty_chain_specs(self):
        # An empty spec list used to pass here and divide by zero in spec_for.
        with pytest.raises(ValueError, match="chain_specs"):
            PortfolioConfig(chain_specs=())
        with pytest.raises(ValueError, match="chain_specs"):
            PortfolioConfig(chains=2, chain_specs=[])


class TestChainSpecValidation:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(restart_after=0), "restart_after"),
            (dict(restart_after=-3), "restart_after"),
            (dict(temperature=math.nan), "temperature"),
            (dict(temperature=math.inf), "temperature"),
            (dict(temperature=-1.0), "temperature"),
            (dict(cooling=math.nan), "cooling"),
            (dict(cooling=math.inf), "cooling"),
            (dict(cooling=0.0), "cooling"),
            (dict(cooling=-0.5), "cooling"),
            (dict(initial="gready"), "chain start"),
            (dict(kind="tabu"), "chain kind"),
        ],
    )
    def test_degenerate_specs_raise(self, bad, message):
        # restart_after=0 used to re-seed after every move (a full rebuild
        # per flip); NaN schedules and misspelt starts were accepted.
        with pytest.raises(ValueError, match=message):
            ChainSpec(**bad)

    def test_boundary_specs_stay_legal(self):
        ChainSpec(cooling=1.0, temperature=0.0, restart_after=1)
        for initial in ("greedy", "random", "seed"):
            ChainSpec(initial=initial)


class TestTelemetry:
    def test_profile_roundtrip_and_json(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=2, move_budget=16, migrate_every=8),
        )
        payload = result.profile.to_dict()
        assert json.loads(json.dumps(payload)) == payload  # must be plain JSON
        assert payload["best_cost"] == result.profile.best_cost
        assert payload["num_chains"] == len(payload["chains"]) == result.profile.num_chains
        assert payload["chains"] == [c.to_dict() for c in result.profile.chains]
        assert len(payload["chains"][0]["accept_curve"]) == len(payload["chains"][0]["reject_curve"])

    def test_chain_curves_cover_rounds(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=1, move_budget=24, migrate_every=8),
        )
        chain = result.profile.chains[0]
        assert len(chain.best_curve) == 1 + 3  # initial + one entry per round
        assert chain.best_curve[-1] == chain.best_cost
        assert sum(chain.accept_curve) + sum(chain.reject_curve) == chain.moves


class TestExtractionBench:
    def test_fast_bench_payload(self):
        payload = run_bench(EXTRACTION, circuits=["adder"], fast=True)
        entry = payload["circuits"]["adder"]
        assert set(entry["runs"]) == {"delta", "portfolio"}
        for run in entry["runs"].values():
            assert run["wall_time"] > 0
            assert run["extraction_cec"] == "equivalent"
        assert set(entry["speedup"]) == {"portfolio"}
        assert "geomean_speedup" in payload["summary"]
        assert "adder" in render_bench(EXTRACTION, payload)

    def test_count_check_flags_moved_counts(self):
        # A doctored copy of the checked-in reference: equal wall times, but
        # one count moved per field, so only the count check can catch them.
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "extraction_reference.json"
        reference = json.loads(path.read_text())
        payload = json.loads(json.dumps(reference))
        assert check_regressions(payload, reference, counts=EXTRACTION.counts) == []
        assert set(EXTRACTION.counts) <= set(reference["circuits"]["hyp"]["runs"]["portfolio"])
        run = payload["circuits"]["hyp"]["runs"]["portfolio"]
        run["accepted"] -= 1
        run["mean_cone"] += 0.5
        run["migrations"] += 1
        run["extraction_ands"] += 1
        failures = check_regressions(payload, reference, counts=EXTRACTION.counts)
        assert [failure.split(" ")[:2] for failure in failures] == [
            ["hyp/portfolio:", "accepted"],
            ["hyp/portfolio:", "mean_cone"],
            ["hyp/portfolio:", "migrations"],
            ["hyp/portfolio:", "extraction_ands"],
        ]
        assert check_regressions(payload, reference) == []

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
