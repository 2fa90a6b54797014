"""The delay-oriented baseline flow of the paper (Mishchenko et al., ICCAD'11).

ABC recipe: ``(st; if -g -K 6 -C 8)`` repeated, followed by one
``(st; dch; map)`` round — SOP balancing for delay, choice computation, and
priority-cut mapping.  This is the "SOP Balancing Baseline" column of
Table II.

The flow is a named pipeline: :func:`baseline_pipeline` renders the recipe
as registry passes, and :func:`run_baseline_flow` runs it into the one flow
result type, :class:`~repro.pipeline.PipelineResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.aig.graph import Aig
from repro.mapping.library import Library

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.pipeline import Pipeline, PipelineResult


#: ``(st; if -g)`` rounds of both recipes, each at the ``sop_balance`` pass
#: defaults (6-input cuts, 8 cuts per node).
SOP_ROUNDS = 2


@dataclass
class BaselineConfig:
    """Knobs of the baseline delay flow."""

    use_choices: bool = True

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (nested in :meth:`EmorphicConfig.to_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BaselineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown BaselineConfig fields: {sorted(unknown)}")
        return cls(**data)


def sop_steps() -> List[Tuple[str, Dict[str, object]]]:
    """``strash`` and the :data:`SOP_ROUNDS` ``(strash; sop_balance)`` rounds
    that open both recipes."""
    return [("strash", {})] + [("strash", {}), ("sop_balance", {})] * SOP_ROUNDS


def baseline_pipeline(config: Optional[BaselineConfig] = None) -> "Pipeline":
    """The canonical baseline recipe as a first-class pipeline.

    One mapping round: ``map`` leaves the working AIG as it found it (the
    netlist is a separate result), and ``strash`` of a strashed AIG is the
    same AIG, so a second ``(strash; map)`` round would map the same AIG
    again.
    """
    from repro.pipeline import Pipeline

    config = config or BaselineConfig()
    return Pipeline(sop_steps() + [("strash", {}), ("map", {"use_choices": config.use_choices})])


def run_baseline_flow(
    aig: Aig,
    config: Optional[BaselineConfig] = None,
    library: Optional[Library] = None,
) -> "PipelineResult":
    """Run ``(st; if -g -K 6)^2  st; dch; map``."""
    return baseline_pipeline(config).run_flow(aig, library=library)
