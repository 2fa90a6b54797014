"""E-graph extraction: greedy, the Algorithm 1 neighbour generator, and the
island-model portfolio extraction engine (:mod:`repro.extraction.engine`),
whose frozen problem also draws random extractions."""

from repro.extraction.cost import CostFunction, DepthCost, NodeCountCost, OperatorCost
from repro.extraction.engine import (
    ChainSpec,
    ExtractionProfile,
    FrozenProblem,
    PortfolioConfig,
    PortfolioResult,
    chain_seed,
    portfolio_extract,
)
from repro.extraction.greedy import greedy_extract
from repro.extraction.sa import generate_neighbor

__all__ = [
    "CostFunction",
    "NodeCountCost",
    "DepthCost",
    "OperatorCost",
    "greedy_extract",
    "generate_neighbor",
    "FrozenProblem",
    "ChainSpec",
    "PortfolioConfig",
    "PortfolioResult",
    "portfolio_extract",
    "chain_seed",
    "ExtractionProfile",
]
