"""The scalable extraction engine: the flow's one SA extractor.

A frozen, index-based extraction problem (:mod:`problem`) that also draws
the greedy and random extractions, delta-cost evaluation that prices an SA
move by the ancestor cone of the flipped class (:mod:`delta`), an
island-model parallel portfolio of annealing / hill-climbing /
random-restart chains with periodic best-solution migration
(:mod:`portfolio`) and per-chain telemetry (:mod:`telemetry`).
``emorphic extract-bench`` benches it through the ``extract`` pass
(:mod:`repro.pipeline.bench`).
"""

from repro.extraction.engine.chains import CHAIN_KINDS, ChainSpec, ChainState, init_chain, run_round
from repro.extraction.engine.delta import DeltaCostEvaluator, choice_cost
from repro.extraction.engine.portfolio import (
    DEFAULT_CHAIN_SPECS,
    SEED_STRIDE,
    PortfolioConfig,
    PortfolioResult,
    chain_seed,
    portfolio_extract,
)
from repro.extraction.engine.problem import FrozenProblem, ProblemStats
from repro.extraction.engine.telemetry import ChainProfile, ExtractionProfile, MigrationEvent

__all__ = [
    "FrozenProblem",
    "ProblemStats",
    "choice_cost",
    "DeltaCostEvaluator",
    "ChainSpec",
    "ChainState",
    "CHAIN_KINDS",
    "init_chain",
    "run_round",
    "PortfolioConfig",
    "PortfolioResult",
    "portfolio_extract",
    "chain_seed",
    "SEED_STRIDE",
    "DEFAULT_CHAIN_SPECS",
    "ExtractionProfile",
    "ChainProfile",
    "MigrationEvent",
]
