"""First-class, composable pass pipelines.

A :class:`Pipeline` is an ordered list of :class:`Step` (pass name + explicit
parameter overrides).  It can be built from an ABC-style script
(``Pipeline.from_script("st; sopb; dag2eg; saturate(iters=4); map")``),
programmatically (``Pipeline([...])``), or from a JSON spec; all three
normalize to the same canonical form, so equal pipelines serialize — and
content-hash — identically regardless of spelling.

``run`` executes the steps over a :class:`FlowContext` with per-pass
wall-clock timing and start/end event hooks; ``run_flow`` wraps the context
into a :class:`PipelineResult`, the one result type of every flow: the
named recipes (``flows.baseline_pipeline``/``flows.emorphic_pipeline``), the
campaign jobs and scripted runs alike.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aig.graph import Aig
from repro.aig.levels import logic_depth
from repro.engine.telemetry import SaturationProfile
from repro.mapping.cut_mapping import MappingResult
from repro.mapping.library import Library
from repro.obs import trace as obs
from repro.pipeline.context import FlowContext, PassEndHook, PassStartHook, PipelineError
from repro.pipeline.script import parse_script, render_script
from repro.pipeline.passes import _default_ml_model, resolve_pass
from repro.verify.cec import CecResult


def _gc_collections() -> int:
    """Collections the cyclic garbage collector has run so far, all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


def _normalize_param(value: object, default: object) -> object:
    """Align a parameter value's numeric type with its registry default, so
    ``time_limit=30`` and ``time_limit=30.0`` canonicalize identically."""
    if isinstance(default, bool) or isinstance(value, bool) or value is None:
        return value
    if isinstance(default, float) and isinstance(value, int):
        return float(value)
    if isinstance(default, int) and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


#: Fig. 9 bucket of each pass that is not part of the ABC flow; ``None``
#: leaves the pass out of the split (the final CEC is verification, which
#: Fig. 9 does not plot).  Every other pass is ``abc_flow``.
FIG9_BUCKETS: Dict[str, Optional[str]] = {
    "dag2eg": "egraph_conversion",
    "saturate": "egraph_conversion",
    "partition": "egraph_conversion",
    "stitch": "egraph_conversion",
    "extract": "sa_extraction",
    "cec": None,
}


def fig9_breakdown(pass_runtimes: Sequence[Sequence[object]]) -> Dict[str, float]:
    """Fold ``(pass name, seconds)`` pairs into the three Fig. 9 buckets.

    Equality saturation counts toward the e-graph bucket, so the buckets sum
    to the flow's pass time minus the final CEC.
    """
    buckets = {"abc_flow": 0.0, "egraph_conversion": 0.0, "sa_extraction": 0.0}
    for name, seconds in pass_runtimes:
        bucket = FIG9_BUCKETS.get(str(name), "abc_flow")
        if bucket is not None:
            buckets[bucket] += float(seconds)
    return buckets


@dataclass(frozen=True)
class Step:
    """One pipeline step: a registered pass plus explicit parameter overrides.

    ``params`` holds only the overrides (defaults live in the registry), so a
    step's canonical form is minimal.
    """

    pass_name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, pass_name: str, params: Optional[Dict[str, object]] = None) -> "Step":
        """Build a canonical step: alias-resolved, defaults dropped, types aligned."""
        spec = resolve_pass(pass_name)
        validated = spec.validate_params(params or {})
        normalized: Dict[str, object] = {}
        for key, value in validated.items():
            value = _normalize_param(value, spec.params[key])
            # Overrides equal to the registry default are redundant; dropping
            # them keeps canonical specs minimal so e.g. "extract(sa)" and
            # "extract" hash — and cache — identically.
            if value != spec.params[key]:
                normalized[key] = value
        return cls(pass_name=spec.name, params=tuple(sorted(normalized.items())))

    @property
    def param_dict(self) -> Dict[str, object]:
        """The step's parameter overrides as a dict."""
        return dict(self.params)


@dataclass
class PipelineResult:
    """QoR and timing surface of one pipeline run.

    ``metrics`` holds what the passes report, among them
    ``num_candidates`` (after ``extract``) and ``premap_delay`` (the
    pre-resynthesis QoR floor, after ``premap``).
    """

    aig: Aig
    script: str
    mapping: Optional[MappingResult] = None
    runtime: float = 0.0
    pass_runtimes: List[Tuple[str, float]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    equivalence: Optional[CecResult] = None
    #: Saturation telemetry when the script ran a ``saturate`` pass.
    rewrite_report: Optional[SaturationProfile] = None
    #: Extraction-engine telemetry when the script ran ``extract(sa)``.
    extraction_profile: Optional[object] = None
    #: Partitioned-run telemetry when the script ran ``partition``/``stitch``.
    partition_profile: Optional[object] = None
    #: Rule-level QoR attribution when a provenance recorder was installed.
    attribution: Optional[object] = None
    #: Flow-level resource telemetry when a resource sampler was installed;
    #: absent from ``to_dict`` otherwise (sampler-off payloads stay
    #: byte-identical to earlier builds).
    resource: Optional[Dict[str, object]] = None

    @property
    def area(self) -> Optional[float]:
        """Mapped area, or None when the pipeline ran no mapping pass."""
        return None if self.mapping is None else self.mapping.area

    @property
    def delay(self) -> Optional[float]:
        """Mapped delay, or None when the pipeline ran no mapping pass."""
        return None if self.mapping is None else self.mapping.delay

    @property
    def levels(self) -> int:
        """Logic depth of the result AIG."""
        return logic_depth(self.aig)

    def runtime_breakdown(self) -> Dict[str, float]:
        """The three Fig. 9 components, from the pass names (:data:`FIG9_BUCKETS`)."""
        return fig9_breakdown(self.pass_runtimes)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable QoR summary; mapping keys only when mapped."""
        data: Dict[str, object] = {
            "flow": "pipeline",
            "script": self.script,
            "ands": self.aig.num_ands,
            "levels": self.levels,
            "runtime": self.runtime,
            "pass_runtimes": [[name, seconds] for name, seconds in self.pass_runtimes],
            "metrics": {
                key: value
                for key, value in self.metrics.items()
                if isinstance(value, (int, float, str, bool, type(None)))
            },
            "equivalence": None if self.equivalence is None else self.equivalence.status,
            "saturation": None if self.rewrite_report is None else self.rewrite_report.to_dict(),
            "extraction": None if self.extraction_profile is None else self.extraction_profile.to_dict(),
            "partition": None if self.partition_profile is None else self.partition_profile.to_dict(),
            "attribution": None if self.attribution is None else self.attribution.to_dict(),
        }
        if self.mapping is not None:
            data["area"] = self.mapping.area
            data["delay"] = self.mapping.delay
            data["num_gates"] = self.mapping.num_gates
        if self.resource is not None:
            data["resource"] = self.resource
        return data


class Pipeline:
    """An ordered, immutable sequence of passes over a :class:`FlowContext`."""

    def __init__(self, steps: Sequence[Union[Step, Tuple[str, Dict[str, object]]]]):
        normalized: List[Step] = []
        for step in steps:
            if isinstance(step, Step):
                # Re-normalize: canonical name + validated params.
                normalized.append(Step.make(step.pass_name, step.param_dict))
            else:
                name, params = step
                normalized.append(Step.make(name, params))
        if not normalized:
            raise PipelineError("a pipeline needs at least one step")
        self.steps: Tuple[Step, ...] = tuple(normalized)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_script(cls, text: str) -> "Pipeline":
        """Parse script text (see docs/dsl.md) into a canonical pipeline."""
        return cls([Step.make(name, params) for name, params in parse_script(text)])

    @classmethod
    def from_spec(cls, spec: Union[str, Dict[str, object]]) -> "Pipeline":
        """Rebuild from :meth:`to_spec` output (or directly from script text)."""
        if isinstance(spec, str):
            return cls.from_script(spec)
        if "script" in spec:
            return cls.from_script(str(spec["script"]))
        raise PipelineError("pipeline spec needs a 'script' string")

    # -- serialization ------------------------------------------------------

    def to_script(self) -> str:
        """Canonical script text (parse → to_script is a fixed point)."""
        return render_script([(step.pass_name, step.param_dict) for step in self.steps])

    def to_spec(self) -> Dict[str, object]:
        """Canonical JSON-serializable spec — the hashable ``JobSpec`` payload:
        ``{"script": canonical script text}``."""
        return {"script": self.to_script()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pipeline) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"Pipeline({self.to_script()!r})"

    # -- execution ----------------------------------------------------------

    def _model_for(self, ml_model: Optional[object]) -> Optional[object]:
        """``ml_model``, or the default learned model when a step asks for
        one (``extract(use_ml=true)``).  The paper's ML mode scores with a
        model trained offline, so the default one is trained (once per
        process) here, before any runtime or pass timer starts."""
        if ml_model is None and any(step.param_dict.get("use_ml") for step in self.steps):
            return _default_ml_model()
        return ml_model

    def run(
        self,
        aig: Aig,
        library: Optional[Library] = None,
        ml_model: Optional[object] = None,
        on_pass_start: Optional[PassStartHook] = None,
        on_pass_end: Optional[PassEndHook] = None,
    ) -> FlowContext:
        """Execute every step on a fresh context; returns the final context."""
        ctx = FlowContext.for_aig(
            aig,
            library=library,
            ml_model=self._model_for(ml_model),
            on_pass_start=on_pass_start,
            on_pass_end=on_pass_end,
        )
        # The per-pass span is the single timing source: its duration feeds
        # the context's timing ledger (and, when a tracer is installed, the
        # flow → pass levels of the trace).
        with obs.span("pipeline", category="flow", script=self.to_script()):
            for step in self.steps:
                spec = resolve_pass(step.pass_name)
                if ctx.on_pass_start is not None:
                    ctx.on_pass_start(spec.name, ctx)
                with obs.span(spec.name, category="pass") as pass_span:
                    collections = _gc_collections()
                    spec.run(ctx, step.param_dict)
                    pass_span.set("gc_collections", _gc_collections() - collections)
                elapsed = pass_span.duration
                ctx.timings.append((spec.name, elapsed))
                if ctx.on_pass_end is not None:
                    ctx.on_pass_end(spec.name, ctx, elapsed)
        return ctx

    def run_flow(
        self,
        aig: Aig,
        library: Optional[Library] = None,
        ml_model: Optional[object] = None,
        on_pass_start: Optional[PassStartHook] = None,
        on_pass_end: Optional[PassEndHook] = None,
    ) -> PipelineResult:
        """Execute and wrap the context into a :class:`PipelineResult`."""
        ml_model = self._model_for(ml_model)
        start = time.perf_counter()
        ctx = self.run(
            aig,
            library=library,
            ml_model=ml_model,
            on_pass_start=on_pass_start,
            on_pass_end=on_pass_end,
        )
        return PipelineResult(
            aig=ctx.aig,
            script=self.to_script(),
            mapping=ctx.mapping,
            runtime=time.perf_counter() - start,
            pass_runtimes=list(ctx.timings),
            metrics=dict(ctx.metrics),
            equivalence=ctx.equivalence,
            rewrite_report=ctx.rewrite_report,
            extraction_profile=ctx.extraction_profile,
            partition_profile=ctx.partition_profile,
            attribution=ctx.attribution,
            resource=ctx.resource_profile,
        )
