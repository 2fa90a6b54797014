"""E-graph extraction: greedy, random, the Algorithm 1 neighbour generator,
and the island-parallel extraction engine (:mod:`repro.extraction.engine`)."""

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
from repro.extraction.greedy import extraction_size, greedy_extract
from repro.extraction.random_extract import random_extract
from repro.extraction.sa import generate_neighbor

__all__ = [
    "CostFunction",
    "NodeCountCost",
    "DepthCost",
    "OperatorCost",
    "greedy_extract",
    "extraction_size",
    "random_extract",
    "generate_neighbor",
    "FrozenProblem",
    "ChainSpec",
    "PortfolioConfig",
    "PortfolioResult",
    "portfolio_extract",
    "chain_seed",
    "ExtractionProfile",
]
