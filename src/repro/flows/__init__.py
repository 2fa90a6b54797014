"""End-to-end synthesis flows: the delay-oriented baseline and E-morphic.

Both flows are named pipelines over :mod:`repro.pipeline`:
``baseline_pipeline``/``emorphic_pipeline`` render the recipes as
first-class, scriptable :class:`~repro.pipeline.Pipeline` objects, and
``run_baseline_flow``/``run_emorphic_flow`` run them into the one flow
result type, :class:`~repro.pipeline.PipelineResult`.
"""

from repro.flows.baseline import BaselineConfig, baseline_pipeline, run_baseline_flow
from repro.flows.emorphic import EmorphicConfig, emorphic_pipeline, run_emorphic_flow

__all__ = [
    "BaselineConfig",
    "EmorphicConfig",
    "baseline_pipeline",
    "emorphic_pipeline",
    "run_baseline_flow",
    "run_emorphic_flow",
]
