"""The E-morphic flow: baseline optimization + e-graph resynthesis before mapping.

Pipeline (Fig. 5 of the paper):

1. technology-independent optimization (the same SOP-balancing rounds as the
   baseline, minus its mapping round);
2. direct DAG-to-DAG conversion of the optimized AIG into an e-graph;
3. a small number of equality-saturation iterations to grow structural
   choices;
4. island-model simulated-annealing extraction, with either the mapping
   cost model (quality-prioritized) or the learned HOGA-like model
   (runtime-prioritized) evaluating each chain's best candidate;
5. the best extracted structure goes through the final ``(st; dch; map)``
   round; the result is equivalence-checked against the input.

The flow is a named pipeline: :func:`emorphic_pipeline` renders the Fig. 5
sequence as registry passes, and :func:`run_emorphic_flow` runs it into the
one flow result type, :class:`~repro.pipeline.PipelineResult`, whose
``runtime_breakdown()`` folds the per-pass wall-clock into the Fig. 9
components by pass name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Optional

from repro.aig.graph import Aig
from repro.flows.baseline import BaselineConfig, sop_steps
from repro.mapping.library import Library

if TYPE_CHECKING:  # pragma: no cover - for type checkers only
    from repro.costmodel.hoga import HogaModel  # numpy: loaded only by flows that use the model
    from repro.pipeline import Pipeline, PipelineResult  # import cycle guard


#: Moves between the portfolio chains' best-solution migrations.
MIGRATE_EVERY = 8


@dataclass
class EmorphicConfig:
    """Configuration of the E-morphic flow (paper defaults from Section IV-A)."""

    # Technology-independent optimization (shared with the baseline).
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    # Equality saturation (the backoff scheduler with match deduplication).
    rewrite_iterations: int = 5
    max_egraph_nodes: int = 40_000
    rewrite_time_limit: float = 30.0
    # Extraction (the island portfolio: chains guided by the structural cost,
    # the QoR model re-scores each chain's best).
    num_threads: int = 4  # portfolio chains
    sa_iterations: int = 4
    moves_per_iteration: int = 4
    seed: int = 7  # base seed of the chains (chain i runs chain_seed(seed, i))
    extraction_cost: str = "depth"  # structural cost guiding the chains
    # Cost model.
    use_ml_model: bool = False
    ml_model: Optional[HogaModel] = None
    # Verification (the final CEC at the ``cec`` pass defaults).
    verify: bool = True

    @classmethod
    def fast(cls) -> "EmorphicConfig":
        """The campaign profile: the paper's structure with capped e-graph
        size, fewer SA moves, no choices and no final CEC — what the
        benchmark harness and ``emorphic batch``/``sweep`` default to so
        whole-suite campaigns finish in minutes of pure Python.
        """
        config = cls(
            rewrite_iterations=4,
            max_egraph_nodes=12_000,
            rewrite_time_limit=10.0,
            num_threads=2,
            sa_iterations=3,
            moves_per_iteration=2,
            verify=False,
        )
        config.baseline = BaselineConfig(use_choices=False)
        return config

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the dict a sweep's grid points override).

        ``ml_model`` is deliberately excluded: a trained model instance is not
        part of a job's identity.  A run with ``use_ml_model=True`` and no
        model trains the default one once per process (the ``extract`` pass
        does, through ``costmodel.train.default_ml_model``).
        """
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("baseline", "ml_model")
        }
        data["baseline"] = self.baseline.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EmorphicConfig":
        """Rebuild a config from its ``to_dict`` payload; an unknown field
        name raises ``ValueError``."""
        data = dict(data)
        baseline = data.pop("baseline", None)
        known = {f.name for f in fields(cls)} - {"baseline", "ml_model"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown EmorphicConfig fields: {sorted(unknown)}")
        config = cls(**data)
        if baseline is not None:
            config.baseline = BaselineConfig.from_dict(baseline)
        return config


def emorphic_pipeline(config: Optional[EmorphicConfig] = None) -> "Pipeline":
    """The canonical Fig. 5 sequence as a first-class pipeline."""
    from repro.pipeline import Pipeline

    config = config or EmorphicConfig()
    steps = sop_steps() + [("strash", {}), ("premap", {}), ("dag2eg", {})]
    steps.append(
        (
            "saturate",
            {
                "iters": config.rewrite_iterations,
                "max_nodes": config.max_egraph_nodes,
                "time_limit": config.rewrite_time_limit,
            },
        )
    )
    steps.append(
        (
            "extract",
            {
                "method": "sa",
                # The runtime-prioritized (ML) mode runs two extra chains.
                "threads": config.num_threads + (2 if config.use_ml_model else 0),
                "migrate_every": MIGRATE_EVERY,
                "iters": config.sa_iterations,
                "moves": config.moves_per_iteration,
                "seed": config.seed,
                # Passed through as-is: the pass rejects an unknown cost.
                "cost": config.extraction_cost,
                "use_ml": config.use_ml_model,
            },
        )
    )
    steps.append(("map", {"use_choices": config.baseline.use_choices}))
    if config.verify:
        steps.append(("cec", {}))
    return Pipeline(steps)


def run_emorphic_flow(
    aig: Aig,
    config: Optional[EmorphicConfig] = None,
    library: Optional[Library] = None,
) -> "PipelineResult":
    """Run the full E-morphic flow on ``aig``."""
    config = config or EmorphicConfig()
    return emorphic_pipeline(config).run_flow(aig, library=library, ml_model=config.ml_model)
