"""Portfolio chains: the per-island move loops of the extraction engine.

A chain is one island of the portfolio — simulated annealing under a
per-chain schedule, a zero-temperature hill climber, or a random-restart
annealer.  Chains run in *rounds* of ``migrate_every`` moves: a round is a
pure function of ``(problem, ChainState, moves)``, which is what makes the
portfolio deterministic — the state carries the choice, the rng state, and
the telemetry counters, and every round rebuilds the evaluator (topological
order, flip candidates, cost caches) from the bare choice.  A rebuild walks
the chosen classes once: :meth:`FrozenProblem.toposort` places every class
and, for a depth cost, prices it as it goes, so the depth evaluator starts
from those depths; flip candidates are derived only for the reachable
multi-node classes a round can flip, and the sum evaluator counts
references over the reachable classes.  A restart's fresh random extraction
is event-driven over the problem's static ``users`` index.  Choices,
positions, safe lists and reachability are lists indexed by class number
(see ``problem.py``), so none of this looks up a dict.  Each rebuild runs
under a ``chain rebuild`` span that counts the classes its walk placed, the
reachable ones and the flippable ones, so a trace splits a round into
rebuild and moves and shows how much of the rebuild the moves can use.

Chain kinds:

* ``"sa"``      — Metropolis acceptance with geometric cooling
  (``T *= cooling`` per move);
* ``"greedy"``  — accept improving flips only (T = 0 hill climbing);
* ``"restart"`` — annealing that re-seeds from a fresh random extraction
  after ``restart_after`` moves without improvement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.extraction.engine.delta import DeltaCostEvaluator, choice_cost
from repro.extraction.engine.problem import Choice, FrozenProblem
from repro.extraction.engine.telemetry import ChainProfile
from repro.obs import trace as obs

CHAIN_KINDS = ("sa", "greedy", "restart")
CHAIN_STARTS = ("greedy", "random", "seed")


@dataclass(frozen=True)
class ChainSpec:
    """Static configuration of one chain (its slot in the portfolio)."""

    kind: str = "sa"
    initial: str = "greedy"  # "greedy" | "random" | "seed"
    temperature: float = 8.0
    cooling: float = 0.97
    restart_after: int = 48  # kind="restart": stale moves before re-seeding

    def __post_init__(self) -> None:
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"unknown chain kind {self.kind!r}; choose from {CHAIN_KINDS}")
        if self.initial not in CHAIN_STARTS:
            raise ValueError(f"unknown chain start {self.initial!r}; choose from {CHAIN_STARTS}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"chain temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.cooling < math.inf:
            raise ValueError(f"chain cooling must be finite and > 0, got {self.cooling}")
        if self.restart_after < 1:
            # 0 would re-seed after every move: a full rebuild per flip.
            raise ValueError(f"restart_after must be >= 1, got {self.restart_after}")


@dataclass
class ChainState:
    """Everything a chain carries between rounds."""

    spec: ChainSpec
    seed: int
    choice: Choice
    current_cost: float
    best_choice: Choice
    best_cost: float
    temperature: float
    rng_state: Tuple
    since_improvement: int = 0
    profile: ChainProfile = field(default_factory=lambda: ChainProfile(chain_id=0))


def init_chain(
    problem: FrozenProblem,
    spec: ChainSpec,
    seed: int,
    chain_id: int = 0,
    seed_choice: Optional[Choice] = None,
    greedy: Optional[Choice] = None,
) -> ChainState:
    """Build a chain's initial state from its spec and derived seed.

    ``greedy`` lets the caller share one greedy solve across chains.  A
    ``"seed"`` start overlays the supplied seed choice on the greedy base;
    if the overlay turns out cyclic (saturation can merge original classes),
    the chain falls back to the pure greedy solution.
    """
    rng = random.Random(seed)
    base = greedy if greedy is not None else problem.greedy_choice()
    if spec.initial == "random":
        choice = problem.random_choice(rng, fallback=base)
    elif spec.initial == "seed" and seed_choice:
        choice = [b if s < 0 else s for b, s in zip(base, seed_choice)]
        try:
            problem.toposort(choice)
        except ValueError:
            choice = base[:]
    else:
        choice = base[:]
    cost = choice_cost(problem, choice)
    profile = ChainProfile(
        chain_id=chain_id,
        kind=spec.kind,
        seed=seed,
        initial_cost=cost,
        best_cost=cost,
        final_cost=cost,
        best_curve=[cost],
    )
    return ChainState(
        spec=spec,
        seed=seed,
        choice=choice,
        current_cost=cost,
        best_choice=choice[:],
        best_cost=cost,
        temperature=spec.temperature,
        rng_state=rng.getstate(),
        profile=profile,
    )


def _rebuild(problem: FrozenProblem, choice: Choice, span=None):
    """Rebuild a chain's move structures from a bare choice.

    Returns the cycle-safe flip candidates (a list indexed by class
    number), the classes worth proposing flips on, and a fresh evaluator.
    Flippable classes have cycle-safe alternatives AND are reachable from
    the roots under the current choice — flipping an unreachable class
    cannot change the cost, so the budget concentrates on classes the
    objective can see.  Candidates are derived only for reachable classes
    with two or more nodes, the only ones a round can flip.  Recomputed per
    round (reachability drifts as flips land), deterministic (ascending
    class numbers).  ``span``, when given, gets the rebuild's counters:
    ``classes`` placed by the walk, ``reachable`` and ``flippable``.
    """
    position, depths = problem.toposort(choice)
    children = problem.children
    reached = [False] * len(children)
    movable = []  # reachable classes with two or more nodes
    stack = list(problem.roots)
    while stack:
        cid = stack.pop()
        if reached[cid]:
            continue
        reached[cid] = True
        class_children = children[cid]
        if len(class_children) > 1:
            movable.append(cid)
        stack.extend(class_children[choice[cid]])
    movable.sort()
    safe = problem.flip_candidates(position, classes=movable)
    flippable = [cid for cid in movable if len(safe[cid]) > 1]
    if span is not None:
        span.set("classes", len(children) - choice.count(-1))
        span.set("reachable", reached.count(True))
        span.set("flippable", len(flippable))
    return safe, flippable, DeltaCostEvaluator(problem, choice, position=position, depths=depths)


def run_round(problem: FrozenProblem, state: ChainState, moves: int) -> ChainState:
    """Advance one chain by ``moves`` flips; returns the updated state.

    Pure up to the state it returns: rebuilds the topological order, the
    cycle-safe flip candidates, and the cost evaluator from ``state.choice``,
    restores the rng, and never reads process-local state — so a round
    computes the identical result wherever it runs.  The round's span
    (``chain round``, tagged with chain id and kind) is both the profile's
    wall-clock source and — when a tracer is installed — the per-chain level
    of the trace tree; its ``chain rebuild`` children (category
    ``extraction.rebuild``) time the rebuild and every restart's re-seed, so
    the rest of the round is the moves.
    """
    round_span = obs.span(
        "chain round",
        category="extraction.chain",
        chain=state.profile.chain_id,
        kind=state.spec.kind,
    )
    with round_span:
        spec = state.spec
        rng = random.Random()
        rng.setstate(state.rng_state)

        with obs.span("chain rebuild", category="extraction.rebuild") as rebuild_span:
            safe, flippable, evaluator = _rebuild(problem, state.choice, rebuild_span)
        current = evaluator.cost

        best_choice = state.best_choice
        best_cost = state.best_cost
        temperature = state.temperature
        since_improvement = state.since_improvement
        profile = state.profile
        accepted = rejected = uphill = restarts = executed = 0

        for _ in range(moves if flippable else 0):
            executed += 1
            cid = flippable[rng.randrange(len(flippable))]
            old_idx = evaluator.choice[cid]
            alternatives = safe[cid]
            # Draw among the other cycle-safe candidates of the class.
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
                    best_choice = evaluator.choice[:]
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
                # Re-seed from a fresh random extraction: new order, new cones.
                restarts += 1
                since_improvement = 0
                temperature = spec.temperature
                evals, touched = evaluator.evals, evaluator.touched
                with obs.span("chain rebuild", category="extraction.rebuild") as rebuild_span:
                    fresh = problem.random_choice(rng, fallback=best_choice)
                    safe, flippable, evaluator = _rebuild(problem, fresh, rebuild_span)
                evaluator.evals, evaluator.touched = evals, touched
                current = evaluator.cost
                if current < best_cost:
                    best_cost = current
                    best_choice = fresh
                if not flippable:
                    break

        round_span.set("moves", executed)
        round_span.set("accepted", accepted)
        round_span.set("rejected", rejected)
        round_span.set("uphill", uphill)
        round_span.set("restarts", restarts)
        round_span.set("best_cost", best_cost)
    elapsed = round_span.duration
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
        wall_time=profile.wall_time + elapsed,
        best_curve=profile.best_curve + [best_cost],
        accept_curve=profile.accept_curve + [accepted],
        reject_curve=profile.reject_curve + [rejected],
    )
    return ChainState(
        spec=spec,
        seed=state.seed,
        choice=evaluator.choice,
        current_cost=current,
        best_choice=best_choice,
        best_cost=best_cost,
        temperature=temperature,
        rng_state=rng.getstate(),
        since_improvement=since_improvement,
        profile=profile,
    )


def adopt_solution(state: ChainState, choice: Choice, cost: float) -> ChainState:
    """Island migration: replace the chain's *current* solution.

    The chain keeps its rng, schedule, and its own best-so-far bookkeeping
    (the portfolio tracks the global best separately); the next round rebuilds
    order and evaluator state from the adopted choice.
    """
    profile = replace(state.profile, migrations_received=state.profile.migrations_received + 1)
    best_choice, best_cost = state.best_choice, state.best_cost
    if cost < best_cost:
        best_choice, best_cost = choice[:], cost
    return ChainState(
        spec=state.spec,
        seed=state.seed,
        choice=choice[:],
        current_cost=cost,
        best_choice=best_choice,
        best_cost=best_cost,
        temperature=state.temperature,
        rng_state=state.rng_state,
        since_improvement=0,
        profile=profile,
    )
