"""The equality-saturation runner: compatibility wrappers over the engine.

The naive egg-style loop that used to live here is superseded by
:mod:`repro.engine` (batched e-matching, rule scheduling, match dedup,
telemetry).  ``Runner``/``saturate`` keep their historical signatures and
semantics — they run the engine with the :class:`SimpleScheduler` and match
dedup off, which reproduces the legacy behavior exactly (identical e-graphs,
``applied`` counts and stop reasons), since the batched matcher finds
exactly the per-pattern loop's matches in the same order.

``RunnerLimits``/``RunnerReport``/``IterationReport`` are aliases of the
engine types, so existing imports keep working and old reports gain the new
telemetry fields (``skipped``, per-phase times, dedup counts).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite
from repro.engine.engine import EngineLimits, SaturationEngine
from repro.engine.scheduler import SimpleScheduler
from repro.engine.telemetry import IterationReport, SaturationProfile

#: Legacy names: the engine types are drop-in supersets of the old dataclasses.
RunnerLimits = EngineLimits
RunnerReport = SaturationProfile

__all__ = [
    "Runner",
    "RunnerLimits",
    "RunnerReport",
    "IterationReport",
    "saturate",
]


class Runner:
    """Applies a rule set to an e-graph until a stopping condition is met.

    Thin wrapper over :class:`repro.engine.SaturationEngine` pinned to the
    legacy-equivalent ``SimpleScheduler``.
    """

    def __init__(
        self, egraph: EGraph, rules: Sequence[Rewrite], limits: Optional[RunnerLimits] = None
    ):
        self.egraph = egraph
        self.rules = list(rules)
        self.limits = limits or RunnerLimits()
        self.report: Optional[RunnerReport] = None

    def run(self) -> RunnerReport:
        engine = SaturationEngine(
            self.egraph,
            self.rules,
            limits=self.limits,
            scheduler=SimpleScheduler(),
            dedup_matches=False,
        )
        self.report = engine.run()
        return self.report


def saturate(egraph: EGraph, rules: Sequence[Rewrite], **limit_kwargs) -> RunnerReport:
    """One-call helper: run equality saturation with keyword limits."""
    limits = RunnerLimits(**limit_kwargs) if limit_kwargs else RunnerLimits()
    return Runner(egraph, rules, limits).run()
