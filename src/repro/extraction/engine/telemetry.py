"""Extraction telemetry: per-chain and portfolio-level statistics of a run.

:class:`ExtractionProfile` is the extraction engine's companion to the
saturation engine's ``SaturationProfile``: it records what every chain of the
portfolio did (accept/reject curves per migration round, uphill moves,
priced flips, cone sizes, wall-clock) plus the migration events of the
island model.  Everything serializes to plain JSON via ``to_dict`` — flow
results embed these records under ``"extraction"`` next to
``"saturation"``, and ``BENCH_extraction.json`` carries them verbatim.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass
class ChainProfile:
    """Cumulative statistics of one portfolio chain."""

    chain_id: int
    kind: str = "sa"
    seed: int = 0
    initial_cost: float = 0.0
    best_cost: float = 0.0
    final_cost: float = 0.0
    moves: int = 0
    accepted: int = 0
    rejected: int = 0
    uphill: int = 0
    restarts: int = 0
    migrations_received: int = 0
    evals: int = 0  # priced flips
    classes_touched: int = 0  # classes re-derived across all flips (cone sizes)
    wall_time: float = 0.0
    #: Best cost after every migration round (index 0 = initial cost).
    best_curve: List[float] = field(default_factory=list)
    #: Accepted / rejected moves per migration round (the accept/reject curves).
    accept_curve: List[int] = field(default_factory=list)
    reject_curve: List[int] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative gain of the best cost over the initial cost (0 when the
        initial cost is 0)."""
        if self.initial_cost == 0:
            return 0.0
        return (self.initial_cost - self.best_cost) / self.initial_cost

    @property
    def mean_cone(self) -> float:
        """Average classes re-derived per priced flip — the measured payoff
        of delta evaluation (a full re-derivation pays every class, every flip)."""
        return self.classes_touched / self.evals if self.evals else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Every field as a plain JSON-ready dict."""
        return asdict(self)


@dataclass
class MigrationEvent:
    """One island-model migration: a chain adopted the global best solution."""

    round: int
    source_chain: int
    target_chain: int
    cost: float

    def to_dict(self) -> Dict[str, object]:
        """Every field as a plain JSON-ready dict."""
        return asdict(self)


@dataclass
class ExtractionProfile:
    """Overall result of one extraction-engine run."""

    chains: List[ChainProfile] = field(default_factory=list)
    migrations: List[MigrationEvent] = field(default_factory=list)
    move_budget: int = 0
    migrate_every: int = 0
    best_cost: float = 0.0
    best_chain: int = 0
    wall_time: float = 0.0
    #: Frozen-problem summary (classes / nodes / flippable classes / roots).
    problem: Dict[str, int] = field(default_factory=dict)
    #: Set when the caller rescored chain results with an external selector
    #: (e.g. full technology mapping) before picking the winner.
    selector: Optional[str] = None

    @property
    def num_chains(self) -> int:
        """Number of chains the portfolio ran."""
        return len(self.chains)

    @property
    def total_moves(self) -> int:
        """Flips executed across all chains."""
        return sum(chain.moves for chain in self.chains)

    @property
    def total_accepted(self) -> int:
        """Accepted flips across all chains."""
        return sum(chain.accepted for chain in self.chains)

    @property
    def total_evals(self) -> int:
        """Priced flips across all chains."""
        return sum(chain.evals for chain in self.chains)

    @property
    def initial_cost(self) -> float:
        """The best starting cost over the chains (0 without chains)."""
        if not self.chains:
            return 0.0
        return min(chain.initial_cost for chain in self.chains)

    @property
    def improvement(self) -> float:
        """Relative gain of the best cost over :attr:`initial_cost`."""
        initial = self.initial_cost
        if initial == 0:
            return 0.0
        return (initial - self.best_cost) / initial

    def mean_cone(self) -> float:
        """Average classes re-derived per priced flip over all chains."""
        evals = self.total_evals
        touched = sum(chain.classes_touched for chain in self.chains)
        return touched / evals if evals else 0.0

    def to_dict(self) -> Dict[str, object]:
        """The profile and its derived totals as a plain JSON-ready dict."""
        return {
            "move_budget": self.move_budget,
            "migrate_every": self.migrate_every,
            "best_cost": self.best_cost,
            "best_chain": self.best_chain,
            "initial_cost": self.initial_cost,
            "wall_time": self.wall_time,
            "num_chains": self.num_chains,
            "total_moves": self.total_moves,
            "total_accepted": self.total_accepted,
            "total_evals": self.total_evals,
            "mean_cone": self.mean_cone(),
            "selector": self.selector,
            "problem": dict(self.problem),
            "chains": [chain.to_dict() for chain in self.chains],
            "migrations": [event.to_dict() for event in self.migrations],
        }
