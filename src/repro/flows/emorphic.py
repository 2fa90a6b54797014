"""The E-morphic flow: baseline optimization + e-graph resynthesis before mapping.

Pipeline (Fig. 5 of the paper):

1. technology-independent optimization (the same SOP-balancing rounds as the
   baseline, minus the final mapping round);
2. direct DAG-to-DAG conversion of the optimized AIG into an e-graph;
3. a small number of equality-saturation iterations to grow structural
   choices;
4. island-parallel simulated-annealing extraction, with either the mapping
   cost model (quality-prioritized) or the learned HOGA-like model
   (runtime-prioritized) evaluating each chain's best candidate;
5. the best extracted structure goes through the final ``(st; dch; map)``
   round; the result is equivalence-checked against the input.

The flow is a thin canonical pipeline over :mod:`repro.pipeline`:
:func:`emorphic_pipeline` renders the Fig. 5 sequence as registry passes with
the Fig. 9 phase tags, and ``runtime_breakdown()`` is derived from the
per-pass wall-clock ledger instead of hand-rolled phase bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.aig.graph import Aig
from repro.aig.levels import logic_depth
from repro.engine.telemetry import SaturationProfile
from repro.flows.baseline import BaselineConfig, BaselineResult, run_baseline_flow  # noqa: F401 (re-export)
from repro.mapping.cut_mapping import MappingResult
from repro.mapping.library import Library
from repro.verify.cec import CecResult

if TYPE_CHECKING:  # pragma: no cover - for type checkers only
    from repro.costmodel.hoga import HogaModel  # numpy: loaded only by flows that use the model
    from repro.pipeline import Pipeline  # import cycle guard


#: ``EmorphicConfig`` fields that no longer exist.  The e-matching knobs went
#: when the batched matcher became the only one; every old value selected a
#: matcher with identical results, so dropping them changes no flow.  The
#: extraction-engine switch and the three knobs that only shaped the legacy
#: SA loop went when the portfolio became the only extractor.
RETIRED_FIELDS = frozenset(
    {
        "use_op_index",
        "matcher",
        "extraction_engine",
        "p_random",
        "initial_temperature",
        "pruned",
    }
)


@dataclass
class EmorphicConfig:
    """Configuration of the E-morphic flow (paper defaults from Section IV-A)."""

    # Technology-independent optimization (shared with the baseline).
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    # Equality saturation.
    rewrite_iterations: int = 5
    max_egraph_nodes: int = 40_000
    rewrite_time_limit: float = 30.0
    #: Engine knobs: "backoff" bans over-matching rules for exponentially
    #: growing windows; "simple" searches every rule every iteration.
    scheduler: str = "backoff"
    dedup_matches: bool = True
    # Extraction (the island portfolio: chains guided by the structural cost,
    # the QoR model re-scores each chain's best).
    num_threads: int = 4  # portfolio chains
    migrate_every: int = 8  # moves between best-solution migrations
    sa_iterations: int = 4
    moves_per_iteration: int = 4
    seed: int = 7  # base seed of the chains (chain i runs chain_seed(seed, i))
    extraction_cost: str = "depth"  # structural cost guiding the chains
    # Cost model.
    use_ml_model: bool = False
    ml_model: Optional[HogaModel] = None
    # Verification.
    verify: bool = True
    verify_sim_words: int = 8
    verify_conflict_budget: Optional[int] = 20_000

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
        """JSON-serializable form (used for job hashing and the result store).

        ``ml_model`` is deliberately excluded: a trained model instance is not
        part of a job's identity.  Workers that receive ``use_ml_model=True``
        with no model train the default one (``costmodel.train.default_ml_model``).
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
        """Rebuild a config from its ``to_dict`` payload.

        Retired fields (:data:`RETIRED_FIELDS`) are accepted and dropped, so
        result-store entries and ledger records written before their removal
        still load.
        """
        data = {k: v for k, v in data.items() if k not in RETIRED_FIELDS}
        baseline = data.pop("baseline", None)
        known = {f.name for f in fields(cls)} - {"baseline", "ml_model"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown EmorphicConfig fields: {sorted(unknown)}")
        config = cls(**data)
        if baseline is not None:
            config.baseline = BaselineConfig.from_dict(baseline)
        return config


@dataclass
class EmorphicResult:
    """QoR and runtime breakdown of the E-morphic flow."""

    aig: Aig
    mapping: MappingResult
    area: float
    delay: float
    levels: int
    runtime: float
    phase_runtimes: Dict[str, float] = field(default_factory=dict)
    rewrite_report: Optional[SaturationProfile] = None
    num_candidates: int = 0
    baseline_delay_before_resynthesis: float = 0.0
    equivalence: Optional[CecResult] = None
    pass_runtimes: List[Tuple[str, float]] = field(default_factory=list)
    #: Extraction-engine telemetry of the portfolio run.
    extraction_profile: Optional[object] = None
    #: Rule-level QoR attribution when a provenance recorder was installed.
    attribution: Optional[object] = None
    #: Flow-level resource telemetry when a resource sampler was installed;
    #: absent from ``to_dict`` otherwise (sampler-off payloads stay
    #: byte-identical to earlier builds).
    resource: Optional[Dict[str, object]] = None

    def runtime_breakdown(self) -> Dict[str, float]:
        """The three components plotted in Fig. 9."""
        return breakdown_from_phases(self.phase_runtimes)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable QoR summary (the AIG itself is stored as AIGER text)."""
        data: Dict[str, object] = {
            "flow": "emorphic",
            "area": self.area,
            "delay": self.delay,
            "levels": self.levels,
            "runtime": self.runtime,
            "num_gates": self.mapping.num_gates,
            "num_candidates": self.num_candidates,
            "baseline_delay_before_resynthesis": self.baseline_delay_before_resynthesis,
            "phase_runtimes": dict(self.phase_runtimes),
            "pass_runtimes": [[name, seconds] for name, seconds in self.pass_runtimes],
            "equivalence": None if self.equivalence is None else self.equivalence.status,
            "saturation": None if self.rewrite_report is None else self.rewrite_report.to_dict(),
            "extraction": None if self.extraction_profile is None else self.extraction_profile.to_dict(),
            "attribution": None if self.attribution is None else self.attribution.to_dict(),
        }
        if self.resource is not None:
            data["resource"] = self.resource
        return data


def breakdown_from_phases(phases: Dict[str, float]) -> Dict[str, float]:
    """Bucket raw phase runtimes into the three Fig. 9 components.

    Equality-saturation time counts toward the e-graph conversion bucket, so
    the buckets sum to the resynthesis part of the total flow time.
    """
    return {
        "abc_flow": phases.get("tech_independent", 0.0) + phases.get("final_map", 0.0),
        "egraph_conversion": phases.get("conversion", 0.0) + phases.get("rewriting", 0.0),
        "sa_extraction": phases.get("extraction", 0.0),
    }


def emorphic_pipeline(config: Optional[EmorphicConfig] = None) -> "Pipeline":
    """The canonical Fig. 5 sequence as a first-class pipeline.

    Phase tags reproduce the historical breakdown (``tech_independent`` /
    ``conversion`` / ``rewriting`` / ``extraction`` / ``final_map`` /
    ``verification``), which :func:`breakdown_from_phases` folds into the
    three Fig. 9 buckets.
    """
    from repro.pipeline import Pipeline, Step

    config = config or EmorphicConfig()
    steps = [Step.make("strash", phase="tech_independent")]
    for _ in range(config.baseline.sop_rounds):
        steps.append(Step.make("strash", phase="tech_independent"))
        steps.append(
            Step.make(
                "sop_balance",
                {"k": config.baseline.k, "cut_limit": config.baseline.cut_limit},
                phase="tech_independent",
            )
        )
    steps.append(Step.make("strash", phase="tech_independent"))
    steps.append(Step.make("premap", phase="tech_independent"))
    steps.append(Step.make("dag2eg", phase="conversion"))
    steps.append(
        Step.make(
            "saturate",
            {
                "iters": config.rewrite_iterations,
                "max_nodes": config.max_egraph_nodes,
                "time_limit": config.rewrite_time_limit,
                "scheduler": config.scheduler,
                "dedup": config.dedup_matches,
            },
            phase="rewriting",
        )
    )
    steps.append(
        Step.make(
            "extract",
            {
                "method": "sa",
                # The runtime-prioritized (ML) mode runs two extra chains.
                "threads": config.num_threads + (2 if config.use_ml_model else 0),
                "migrate_every": config.migrate_every,
                "iters": config.sa_iterations,
                "moves": config.moves_per_iteration,
                "seed": config.seed,
                "cost": config.extraction_cost if config.extraction_cost == "depth" else "nodes",
                "use_ml": config.use_ml_model,
            },
            phase="extraction",
        )
    )
    steps.append(
        Step.make(
            "map",
            {
                "use_choices": config.baseline.use_choices,
                "choice_max_pairs": config.baseline.choice_max_pairs,
                "choice_sat_budget": config.baseline.choice_sat_budget,
                "cleanup": True,
                "keep_premap": True,
            },
            phase="final_map",
        )
    )
    if config.verify:
        steps.append(
            Step.make(
                "cec",
                {
                    "sim_words": config.verify_sim_words,
                    "conflict_budget": config.verify_conflict_budget,
                },
                phase="verification",
            )
        )
    return Pipeline(steps)


def run_emorphic_flow(
    aig: Aig,
    config: Optional[EmorphicConfig] = None,
    library: Optional[Library] = None,
) -> EmorphicResult:
    """Run the full E-morphic flow on ``aig``."""
    config = config or EmorphicConfig()
    start = time.perf_counter()
    ctx = emorphic_pipeline(config).run(
        aig,
        library=library,
        ml_model=config.ml_model if config.use_ml_model else None,
    )
    runtime = time.perf_counter() - start
    assert ctx.mapping is not None and ctx.pre_mapping is not None
    return EmorphicResult(
        aig=ctx.aig,
        mapping=ctx.mapping,
        area=ctx.mapping.area,
        delay=ctx.mapping.delay,
        levels=logic_depth(ctx.aig),
        runtime=runtime,
        phase_runtimes=ctx.phase_runtimes(),
        rewrite_report=ctx.rewrite_report,
        num_candidates=int(ctx.metrics.get("num_candidates", 0)),
        baseline_delay_before_resynthesis=ctx.pre_mapping.delay,
        equivalence=ctx.equivalence,
        pass_runtimes=ctx.pass_runtimes(),
        extraction_profile=ctx.extraction_profile,
        attribution=ctx.attribution,
        resource=ctx.resource_profile,
    )
