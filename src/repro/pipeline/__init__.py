"""First-class, scriptable pass pipelines over the E-morphic tool chain.

* :mod:`repro.pipeline.context` — :class:`FlowContext`, the state passes
  mutate (AIG, e-graph, mapping, metrics, per-pass wall-clock, event hooks);
* :mod:`repro.pipeline.passes` — the pass registry covering every transform
  in the repo behind one uniform ``fn(ctx, **params)`` signature;
* :mod:`repro.pipeline.script` — the ABC-style script grammar
  (``"st; sopb; dag2eg; saturate(iters=4); extract(sa); map; cec"``);
* :mod:`repro.pipeline.pipeline` — the :class:`Pipeline` composer, runnable
  and serializable to a hashable spec for campaign caching, and
  :class:`PipelineResult`, the one flow result type.
"""

from repro.pipeline.context import FlowContext, PipelineError
from repro.pipeline.passes import PassSpec, available_passes, pass_table, resolve_pass
from repro.pipeline.pipeline import Pipeline, PipelineResult, Step, fig9_breakdown
from repro.pipeline.script import parse_script, render_script

__all__ = [
    "FlowContext",
    "PassSpec",
    "Pipeline",
    "PipelineError",
    "PipelineResult",
    "Step",
    "available_passes",
    "fig9_breakdown",
    "parse_script",
    "pass_table",
    "render_script",
    "resolve_pass",
]
