"""The mutable state a pass pipeline threads through its passes.

A :class:`FlowContext` carries everything a pass may read or write: the
working AIG, the (strashed) original for equivalence checking, the target
library, the circuit e-graph once ``dag2eg`` has run, extraction candidates,
mapping results, free-form metrics, and the per-pass wall-clock ledger that
``runtime_breakdown()`` and the Fig. 9 report are derived from.

Passes mutate the context in place; the pipeline owns timing and event
hooks, so pass implementations stay plain functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aig.graph import Aig
from repro.engine.telemetry import SaturationProfile
from repro.mapping.cut_mapping import MappingResult
from repro.mapping.library import Library, default_library
from repro.verify.cec import CecResult


class PipelineError(ValueError):
    """A pipeline could not be built or run (unknown pass, bad parameter,
    missing prerequisite state).  The message is always user-presentable."""


#: ``on_pass_start(step_label, context)`` / ``on_pass_end(step_label, context, seconds)``.
PassStartHook = Callable[[str, "FlowContext"], None]
PassEndHook = Callable[[str, "FlowContext", float], None]


@dataclass
class FlowContext:
    """Everything a pass can see: netlist state, metrics, and timings."""

    aig: Aig
    original: Aig
    library: Library
    #: The circuit e-graph; set by ``dag2eg``, invalidated by AIG transforms.
    circuit: Optional[object] = None
    #: Candidate AIGs produced by ``extract`` (best-first); consumed by ``map``
    #: and invalidated by any AIG transform.
    candidates: List[Aig] = field(default_factory=list)
    pre_mapping: Optional[MappingResult] = None
    pre_aig: Optional[Aig] = None
    mapping: Optional[MappingResult] = None
    rewrite_report: Optional[SaturationProfile] = None
    #: Extraction-engine telemetry; set by ``extract(sa)``.
    extraction_profile: Optional[object] = None
    #: Pending partition plan; set by ``partition``, consumed by ``stitch``.
    #: While it is live, ``saturate``/``extract`` stage themselves into it
    #: as window steps instead of executing (see the ``partition`` pass docs).
    partition_plan: Optional[object] = None
    #: Partitioned-run telemetry; set by ``stitch``.
    partition_profile: Optional[object] = None
    #: The last ``saturate`` run's own provenance log; only set while a
    #: provenance recorder is installed, invalidated with the e-graph.
    provenance_log: Optional[object] = None
    #: Rule-level QoR attribution; set by ``extract``/``stitch`` when a
    #: provenance recorder is installed.
    attribution: Optional[object] = None
    #: Flow-level resource telemetry (peak RSS + growth curves); set by
    #: ``saturate``/``stitch`` when a resource sampler is installed.
    resource_profile: Optional[Dict[str, object]] = None
    equivalence: Optional[CecResult] = None
    #: Optional learned cost model consumed by ``extract(use_ml=true)``.
    ml_model: Optional[object] = None
    metrics: Dict[str, object] = field(default_factory=dict)
    #: ``(canonical pass name, seconds)`` per executed pass, in order.
    timings: List[Tuple[str, float]] = field(default_factory=list)
    on_pass_start: Optional[PassStartHook] = None
    on_pass_end: Optional[PassEndHook] = None

    @classmethod
    def for_aig(cls, aig: Aig, library: Optional[Library] = None, **kwargs) -> "FlowContext":
        """A fresh context: the original is the strashed input."""
        original = aig.strash()
        return cls(aig=original, original=original, library=library or default_library(), **kwargs)

    # -- prerequisites ------------------------------------------------------

    def require_egraph(self, pass_name: str):
        """The circuit e-graph, or a clear error naming the pass that needs it."""
        if self.circuit is None:
            raise PipelineError(
                f"pass {pass_name!r} needs a circuit e-graph; run 'dag2eg' first "
                "(AIG transforms invalidate a previously built e-graph)"
            )
        return self.circuit

    def invalidate_derived(self) -> None:
        """Drop e-graph/candidate/partition state after the working AIG changed."""
        self.circuit = None
        self.candidates = []
        self.partition_plan = None
        self.provenance_log = None
