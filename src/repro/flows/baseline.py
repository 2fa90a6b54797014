"""The delay-oriented baseline flow of the paper (Mishchenko et al., ICCAD'11).

ABC recipe: ``(st; if -g -K 6 -C 8)`` repeated, followed by ``(st; dch; map)``
rounds — SOP balancing for delay, choice computation, and priority-cut
mapping.  This is the "SOP Balancing Baseline" column of Table II.

The flow is a named pipeline: :func:`baseline_pipeline` renders the recipe
as registry passes, and :func:`run_baseline_flow` runs it into the one flow
result type, :class:`~repro.pipeline.PipelineResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional

from repro.aig.graph import Aig
from repro.mapping.library import Library

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.pipeline import Pipeline, PipelineResult


@dataclass
class BaselineConfig:
    """Knobs of the baseline delay flow."""

    sop_rounds: int = 2
    map_rounds: int = 2
    k: int = 6
    cut_limit: int = 8
    use_choices: bool = True
    choice_sat_budget: int = 300
    choice_max_pairs: int = 400

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used for job hashing and the result store)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BaselineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown BaselineConfig fields: {sorted(unknown)}")
        return cls(**data)


def baseline_pipeline(config: Optional[BaselineConfig] = None) -> "Pipeline":
    """The canonical baseline recipe as a first-class pipeline."""
    from repro.pipeline import Pipeline

    config = config or BaselineConfig()
    steps = [("strash", {})]
    for _ in range(config.sop_rounds):
        steps.append(("strash", {}))
        steps.append(("sop_balance", {"k": config.k, "cut_limit": config.cut_limit}))
    for _ in range(config.map_rounds):
        steps.append(("strash", {}))
        steps.append(
            (
                "map",
                {
                    "use_choices": config.use_choices,
                    "choice_max_pairs": config.choice_max_pairs,
                    "choice_sat_budget": config.choice_sat_budget,
                },
            )
        )
    return Pipeline(steps)


def run_baseline_flow(
    aig: Aig,
    config: Optional[BaselineConfig] = None,
    library: Optional[Library] = None,
) -> "PipelineResult":
    """Run ``(st; if -g -K k)^sop_rounds  (st; dch; map)^map_rounds``."""
    return baseline_pipeline(config).run_flow(aig, library=library)
