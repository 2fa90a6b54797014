"""The island-model extraction portfolio.

N chains (annealers at different schedules, a hill climber, a random-restart
annealer) explore the frozen extraction problem as islands; every
``migrate_every`` moves the islands synchronise and chains whose current
solution is worse than the global best adopt it (recorded as
:class:`~repro.extraction.engine.telemetry.MigrationEvent`).

Every round runs its chains one after another in the calling process, so the
result is a pure function of ``(e-graph, config, seed)``: rounds are
deterministic given a chain state, and migration happens at barriers.  That
also means ``chains=1`` is *exactly* the single-chain delta-SA run.  Process
parallelism lives one level up, over partition windows and campaign jobs.

Seeding: chain ``i`` draws seed :func:`chain_seed`\\ ``(seed, i)`` (chain 0
runs the base seed, later chains a fixed stride apart), so no two chains of
one portfolio replay the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.extraction.cost import CostFunction, NodeCountCost
from repro.extraction.engine.chains import ChainSpec, ChainState, adopt_solution, init_chain, run_round
from repro.extraction.engine.problem import ProblemStats, snapshot
from repro.extraction.engine.telemetry import ExtractionProfile, MigrationEvent
from repro.obs import trace as obs
from repro.obs.metrics import registry as obs_registry

#: Distinct-prime stride between per-chain seeds.  Documented contract: chain
#: ``i`` of a portfolio is seeded with ``chain_seed(base, i)``, so runs are
#: reproducible per (base seed, index) and chains never share a generator
#: state.
SEED_STRIDE = 1009


def chain_seed(base: int, index: int) -> int:
    """The seed of chain ``index`` under base seed ``base``."""
    return base + SEED_STRIDE * index


#: The default portfolio mix, cycled across chains: two annealing schedules
#: (a cool, near-greedy one from the greedy start and a hot one from a random
#: start), a pure hill climber, and a random-restart annealer.
DEFAULT_CHAIN_SPECS: Tuple[ChainSpec, ...] = (
    ChainSpec(kind="sa", initial="seed", temperature=4.0, cooling=0.95),
    ChainSpec(kind="sa", initial="random", temperature=16.0, cooling=0.98),
    ChainSpec(kind="greedy", initial="greedy"),
    ChainSpec(kind="restart", initial="random", temperature=8.0, cooling=0.97),
)


@dataclass
class PortfolioConfig:
    """Configuration of the island-model extraction portfolio."""

    chains: int = 4
    #: Total flips across all chains (the "equal move budget" knob benches
    #: compare engines under); split as evenly as possible between chains.
    move_budget: int = 256
    #: Flips a chain runs between migration barriers.
    migrate_every: int = 32
    seed: int = 7
    chain_specs: Sequence[ChainSpec] = DEFAULT_CHAIN_SPECS

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValueError("portfolio needs at least one chain")
        if self.move_budget < 0:
            raise ValueError("move_budget must be >= 0")
        if self.migrate_every < 1:
            raise ValueError("migrate_every must be >= 1 (rounds must make progress)")
        if not self.chain_specs:
            raise ValueError("chain_specs must hold at least one chain spec")

    def spec_for(self, index: int) -> ChainSpec:
        """The spec of chain ``index``: ``chain_specs`` cycled across chains."""
        return self.chain_specs[index % len(self.chain_specs)]

    def budgets(self) -> List[int]:
        """Per-chain move budgets: even split, remainder to the first chains."""
        base, extra = divmod(self.move_budget, self.chains)
        return [base + (1 if i < extra else 0) for i in range(self.chains)]


@dataclass
class PortfolioResult:
    """Outcome of one portfolio extraction."""

    extraction: Dict[int, ENode]
    cost: float
    profile: ExtractionProfile
    #: Every chain's best extraction, best-first (after optional rescoring).
    chain_extractions: List[Dict[int, ENode]] = field(default_factory=list)
    chain_costs: List[float] = field(default_factory=list)


# -- the portfolio loop -------------------------------------------------------


def portfolio_extract(
    egraph: EGraph,
    roots: Sequence[int],
    cost: Optional[CostFunction] = None,
    config: Optional[PortfolioConfig] = None,
    seed_solution: Optional[Dict[int, ENode]] = None,
    final_selector: Optional[Callable[[Dict[int, ENode]], float]] = None,
) -> PortfolioResult:
    """Run the island portfolio on a frozen e-graph.

    ``final_selector`` optionally re-scores every chain's best extraction
    with a more expensive metric (e.g. full technology mapping) and then
    decides the winner — the paper's "map all parallel-generated solutions
    and keep the best QoR" step, paid once per chain instead of once per
    move.  Without it the structural guiding cost decides.
    """
    config = config or PortfolioConfig()
    cost = cost or NodeCountCost()

    portfolio_span = obs.span(
        "extract portfolio",
        category="extraction",
        chains=config.chains,
        move_budget=config.move_budget,
    )
    with portfolio_span:
        problem = snapshot(egraph, roots, cost)
        with obs.span("extract greedy", category="extraction.setup"):
            greedy = problem.greedy_choice()
        stats = ProblemStats.of(problem, problem.flip_candidates(problem.toposort(greedy)[0]))
        seed_choice = problem.choice_from_extraction(seed_solution) if seed_solution else None

        states: List[ChainState] = []
        for i in range(config.chains):
            spec = config.spec_for(i)
            states.append(
                init_chain(
                    problem,
                    spec,
                    chain_seed(config.seed, i),
                    chain_id=i,
                    seed_choice=seed_choice,
                    greedy=greedy,
                )
            )

        remaining = config.budgets()
        migrations: List[MigrationEvent] = []
        round_index = 0
        while any(remaining):
            with obs.span("portfolio round", category="extraction.round", round=round_index):
                for i in range(config.chains):
                    moves = min(config.migrate_every, remaining[i])
                    if moves:
                        states[i] = run_round(problem, states[i], moves)
                        remaining[i] -= moves
                round_index += 1
                if config.chains > 1:
                    best_i = min(range(config.chains), key=lambda i: (states[i].best_cost, i))
                    best = states[best_i]
                    for i, state in enumerate(states):
                        if i != best_i and state.current_cost > best.best_cost and remaining[i] > 0:
                            states[i] = adopt_solution(state, best.best_choice, best.best_cost)
                            migrations.append(
                                MigrationEvent(
                                    round=round_index,
                                    source_chain=best_i,
                                    target_chain=i,
                                    cost=best.best_cost,
                                )
                            )
                            obs.instant(
                                "migration",
                                category="extraction.migration",
                                round=round_index,
                                source_chain=best_i,
                                target_chain=i,
                                cost=best.best_cost,
                            )
        portfolio_span.set("rounds", round_index)
        portfolio_span.set("migrations", len(migrations))

        chain_extractions = [problem.extraction_from_choice(s.best_choice) for s in states]
        chain_costs = [s.best_cost for s in states]
        if final_selector is not None:
            chain_costs = [final_selector(extraction) for extraction in chain_extractions]
        ranked = sorted(range(config.chains), key=lambda i: (chain_costs[i], i))
        best_chain = ranked[0]

    profile = ExtractionProfile(
        chains=[s.profile for s in states],
        migrations=migrations,
        move_budget=config.move_budget,
        migrate_every=config.migrate_every,
        best_cost=chain_costs[best_chain],
        best_chain=best_chain,
        wall_time=portfolio_span.duration,
        problem=stats.to_dict(),
        selector="external" if final_selector is not None else None,
    )
    metrics = obs_registry()
    metrics.counter("extraction_runs_total", "portfolio extraction runs").inc()
    metrics.counter("extraction_moves_total", "flips executed across runs").inc(
        sum(chain.moves for chain in profile.chains)
    )
    metrics.counter("extraction_migrations_total", "island migrations across runs").inc(
        len(migrations)
    )
    metrics.gauge("extraction_best_cost", "best cost of the last portfolio run").set(
        profile.best_cost
    )
    return PortfolioResult(
        extraction=chain_extractions[best_chain],
        cost=chain_costs[best_chain],
        profile=profile,
        chain_extractions=[chain_extractions[i] for i in ranked],
        chain_costs=[chain_costs[i] for i in ranked],
    )
