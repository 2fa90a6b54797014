"""The scalable saturation engine.

The one equality-saturation loop: batched e-matching, egg-style rule
scheduling (simple / backoff), cross-iteration match deduplication,
worklist-driven incremental rebuilds, and full saturation telemetry.
``scheduler="simple"`` with ``dedup_matches=False`` reproduces the
pre-engine runner loop exactly.

E-matching has one production implementation: :class:`BatchedMatcher`
compiles all rules into one shared-prefix trie walked over the e-graph's
integer rows (:meth:`repro.egraph.egraph.EGraph.class_view`) — one e-graph
traversal per iteration total.  Its matches equal the per-pattern reference
(``repro.egraph.pattern.search``, kept as the test oracle) in identical order.
"""

from repro.engine.batched import BatchedMatcher, compile_pattern, priorities_from_attribution
from repro.engine.engine import EngineLimits, SaturationEngine, saturate_engine
from repro.engine.scheduler import (
    SCHEDULERS,
    BackoffScheduler,
    Scheduler,
    SimpleScheduler,
    make_scheduler,
)
from repro.engine.telemetry import IterationReport, RuleProfile, SaturationProfile

__all__ = [
    "SaturationEngine",
    "EngineLimits",
    "saturate_engine",
    "BatchedMatcher",
    "compile_pattern",
    "priorities_from_attribution",
    "Scheduler",
    "SimpleScheduler",
    "BackoffScheduler",
    "make_scheduler",
    "SCHEDULERS",
    "SaturationProfile",
    "IterationReport",
    "RuleProfile",
]
