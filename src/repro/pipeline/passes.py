"""The pass registry: every transform of the repo behind one uniform signature.

A pass is a plain function ``fn(ctx, **params)`` mutating a
:class:`~repro.pipeline.context.FlowContext`; :class:`PassSpec` wraps it with
the metadata the script parser and the ``emorphic scripts`` listing need
(parameter defaults, positional order, aliases, what state it requires).

Kinds:

* ``transform`` — rewrites ``ctx.aig`` preserving its function (strash,
  balance, rewrite, refactor, SOP balance, resyn2).  Transforms
  invalidate any previously built e-graph or extraction candidates.
* ``convert`` — ``dag2eg``, the direct DAG-to-DAG AIG → e-graph conversion.
* ``egraph`` — ``saturate``, equality saturation on the circuit e-graph.
* ``extract`` — ``extract``, e-graph → candidate AIGs (SA/greedy/random).
* ``partition`` — ``partition``/``stitch``, windowed saturate+extract for
  circuits beyond the monolithic engine's ceiling.  ``partition`` parks a
  plan on the context; ``saturate``/``extract`` *stage* themselves as the
  pending plan's window steps instead of executing; ``stitch`` runs those
  passes on every window and splices the results back, CEC-guarded.
* ``map`` — ``premap``/``map``, technology mapping (choice-aware).
* ``verify`` — ``cec``, equivalence check against the pipeline's input.
"""

from __future__ import annotations

import gc
import inspect
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Tuple

from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.rules import boolean_rules
from repro.engine import SCHEDULERS, EngineLimits, SaturationEngine
from repro.extraction.cost import guiding_cost
from repro.extraction.engine import PortfolioConfig, portfolio_extract
from repro.extraction.engine.problem import snapshot
from repro.extraction.greedy import greedy_extract
from repro.mapping.cut_mapping import map_aig
from repro.obs import provenance as obs_provenance
from repro.obs import trace as obs
from repro.opt.balance import balance
from repro.opt.dch import compute_choices
from repro.opt.refactor import refactor
from repro.opt.rewrite import rewrite
from repro.opt.scripts import delay_opt_script, resyn2_script
from repro.opt.sop_balance import sop_balance
from repro.opt.truth import MAX_VARS
from repro.partition import (
    PARTITION_METHODS,
    PartitionConfig,
    PartitionPlan,
    partition_aig,
    partitioned_optimize,
)
from repro.pipeline.context import FlowContext, PipelineError
from repro.pipeline.values import render_value
from repro.verify.cec import check_equivalence

EXTRACT_METHODS = ("sa", "greedy", "random")


@lru_cache(maxsize=1)
def _default_ml_model():
    """Train the default learned cost model (seed 0) at most once per process.

    Backs ``extract(use_ml=true)`` whenever the run was handed no model:
    ``emorphic run --use-ml-model``, campaign jobs and scripted pipelines
    all share this one cache.  ``Pipeline.run``/``run_flow`` fetch it before
    their timers start, so no flow's runtime carries the training.
    """
    from repro.costmodel.train import default_ml_model

    return default_ml_model()


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with CPython's cyclic garbage collector paused.

    Flows create no reference cycles (refcounting frees all they drop), so
    the collector's scans of a pass's heap find nothing and only cost time.
    A collector the caller already disabled stays off (nested passes, a
    user's own policy); otherwise it is re-enabled in ``finally``, also when
    the pass raises.  The switch is process-wide: a pass running in another
    thread at the same time may re-enable it early, which costs only speed.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True)
class PassSpec:
    """One registered pass: callable plus script-facing metadata."""

    name: str
    fn: Callable[..., None]
    summary: str
    kind: str = "transform"
    params: Dict[str, object] = field(default_factory=dict)  # name -> default
    positional: Tuple[str, ...] = ()  # script positional-argument order
    aliases: Tuple[str, ...] = ()
    requires_egraph: bool = False

    def validate_params(self, params: Dict[str, object]) -> Dict[str, object]:
        """Reject unknown parameter names; returns a plain dict copy."""
        unknown = set(params) - set(self.params)
        if unknown:
            raise PipelineError(
                f"pass {self.name!r} has no parameter {sorted(unknown)[0]!r}; "
                f"accepted: {', '.join(sorted(self.params)) or '(none)'}"
            )
        return dict(params)

    def run(self, ctx: FlowContext, params: Dict[str, object]) -> None:
        """Execute the pass with validated params over the context, with
        the cyclic garbage collector paused (:func:`_collector_paused`)."""
        with _collector_paused():
            self.fn(ctx, **{**self.params, **self.validate_params(params)})
        if self.kind == "transform":
            ctx.invalidate_derived()

    def signature(self) -> str:
        """``name(param=default, ...)`` for listings — valid script syntax."""
        if not self.params:
            return self.name
        rendered = ", ".join(f"{k}={render_value(v)}" for k, v in self.params.items())
        return f"{self.name}({rendered})"


_REGISTRY: Dict[str, PassSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_pass(
    name: str,
    summary: str,
    kind: str = "transform",
    positional: Tuple[str, ...] = (),
    aliases: Tuple[str, ...] = (),
    requires_egraph: bool = False,
):
    """Decorator: register ``fn(ctx, **params)``; defaults are read off the
    function signature, so the registry never drifts from the code."""

    def decorate(fn: Callable[..., None]) -> Callable[..., None]:
        defaults: Dict[str, object] = {}
        for pname, parameter in list(inspect.signature(fn).parameters.items())[1:]:
            if parameter.default is inspect.Parameter.empty:
                raise ValueError(f"pass {name!r}: parameter {pname!r} needs a default")
            defaults[pname] = parameter.default
        spec = PassSpec(
            name=name,
            fn=fn,
            summary=summary,
            kind=kind,
            params=defaults,
            positional=positional,
            aliases=aliases,
            requires_egraph=requires_egraph,
        )
        _REGISTRY[name] = spec
        for alias in aliases:
            _ALIASES[alias] = name
        return fn

    return decorate


def resolve_pass(name: str) -> PassSpec:
    """Canonical :class:`PassSpec` for a name or alias; clean error otherwise."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise PipelineError(
            f"unknown pass {name!r}; available: {', '.join(available_passes())}"
        )
    return _REGISTRY[canonical]


def available_passes() -> List[str]:
    """Canonical pass names, listed in registration order."""
    return list(_REGISTRY)


def pass_table() -> List[PassSpec]:
    """Every registered pass spec, in registration order."""
    return list(_REGISTRY.values())


# --------------------------------------------------------------------------
# Technology-independent AIG transforms.


@register_pass("strash", "structural hashing (ABC 'st'); drops dangling nodes", aliases=("st", "cleanup"))
def _pass_strash(ctx: FlowContext) -> None:
    ctx.aig = ctx.aig.strash()


@register_pass("balance", "AND-tree balancing (ABC 'balance')", aliases=("b",))
def _pass_balance(ctx: FlowContext) -> None:
    ctx.aig = balance(ctx.aig)


def _check_cut_params(pass_name: str, k: int, cut_limit: int) -> None:
    """Reject cut sizes and cut limits a cut-based pass cannot honour.

    ``k=1`` leaves no cut with two leaves, ``cut_limit < 1`` keeps no cut,
    and cuts wider than the truth-table kernel's ``MAX_VARS`` inputs cannot
    be enumerated.
    """
    if not 2 <= k <= MAX_VARS:
        raise PipelineError(f"{pass_name} needs k in 2..{MAX_VARS}")
    if cut_limit < 1:
        raise PipelineError(f"{pass_name} needs cut_limit >= 1")


@register_pass("rewrite", "DAG-aware cut rewriting (ABC 'rewrite')", aliases=("rw",))
def _pass_rewrite(ctx: FlowContext, k: int = 4, cut_limit: int = 8, zero_gain: bool = False) -> None:
    _check_cut_params("rewrite", k, cut_limit)
    ctx.aig = rewrite(ctx.aig, k=k, cut_limit=cut_limit, zero_gain=zero_gain)


@register_pass("refactor", "cone collapsing + refactoring (ABC 'refactor')", aliases=("rf",))
def _pass_refactor(ctx: FlowContext, k: int = 6, cut_limit: int = 4, zero_gain: bool = False) -> None:
    _check_cut_params("refactor", k, cut_limit)
    ctx.aig = refactor(ctx.aig, k=k, cut_limit=cut_limit, zero_gain=zero_gain)


@register_pass("sop_balance", "delay-oriented SOP balancing (ABC 'if -g')", aliases=("sopb",))
def _pass_sop_balance(ctx: FlowContext, k: int = 6, cut_limit: int = 8) -> None:
    _check_cut_params("sop_balance", k, cut_limit)
    ctx.aig = sop_balance(ctx.aig, k=k, cut_limit=cut_limit)


@register_pass("resyn2", "balance/rewrite/refactor area script (ABC 'resyn2')")
def _pass_resyn2(ctx: FlowContext) -> None:
    ctx.aig = resyn2_script(ctx.aig)


@register_pass("delay_opt", "SOP-balancing delay rounds ('(st; if -g -K k)^rounds')")
def _pass_delay_opt(ctx: FlowContext, rounds: int = 2, k: int = 6, cut_limit: int = 8) -> None:
    if rounds < 0:
        raise PipelineError("delay_opt needs rounds >= 0")
    _check_cut_params("delay_opt", k, cut_limit)
    ctx.aig = delay_opt_script(ctx.aig, rounds=rounds, k=k, cut_limit=cut_limit)


# --------------------------------------------------------------------------
# E-graph conversion, saturation, extraction.


@register_pass("dag2eg", "direct DAG-to-DAG conversion: AIG -> e-graph", kind="convert")
def _pass_dag2eg(ctx: FlowContext) -> None:
    ctx.circuit = aig_to_egraph(ctx.aig)
    # The last saturation's log speaks of the old e-graph's class ids.
    ctx.provenance_log = None
    ctx.metrics["egraph_initial_classes"] = ctx.circuit.egraph.num_classes
    ctx.metrics["egraph_initial_nodes"] = ctx.circuit.egraph.num_nodes


@register_pass("saturate", "equality saturation under limits", kind="egraph", requires_egraph=True)
def _pass_saturate(
    ctx: FlowContext,
    iters: int = 5,
    max_nodes: int = 40_000,
    time_limit: float = 30.0,
    scheduler: str = "backoff",
    dedup: bool = True,
) -> None:
    """Equality saturation via the engine subsystem.

    ``scheduler="backoff"`` (the default) bans over-matching rules for
    exponentially growing windows; ``scheduler="simple"`` searches every rule
    every iteration.  ``dedup`` toggles cross-iteration match deduplication —
    ``saturate(scheduler=simple, dedup=false)`` is byte-for-byte the legacy
    runner loop.  E-matching always runs the batched matcher's generated
    loops over the e-graph's integer rows.

    Under a provenance recorder the run's own log, which the engine grafts
    into the recorder, becomes ``ctx.provenance_log`` for ``extract`` to
    attribute through.

    After a ``partition`` pass the validated parameters are *staged*: the
    pass records itself as the plan's ``saturate`` step, which every window
    runs when ``stitch`` does, instead of saturating a whole-circuit e-graph.
    """
    if scheduler not in SCHEDULERS:
        raise PipelineError(
            f"unknown scheduler {scheduler!r}; choose from {', '.join(SCHEDULERS)}"
        )
    for name, value in {"iters": iters, "max_nodes": max_nodes, "time_limit": time_limit}.items():
        if value < 0:
            raise PipelineError(f"saturate needs {name} >= 0")
    plan = ctx.partition_plan
    if plan is not None:
        plan.steps["saturate"] = dict(
            iters=iters, max_nodes=max_nodes, time_limit=time_limit, scheduler=scheduler, dedup=dedup
        )
        ctx.metrics["saturation_staged"] = True
        return
    circuit = ctx.require_egraph("saturate")
    engine = SaturationEngine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=iters, max_nodes=max_nodes, time_limit=time_limit),
        scheduler=scheduler,
        dedup_matches=dedup,
    )
    ctx.rewrite_report = engine.run()
    ctx.provenance_log = engine.provenance
    if ctx.rewrite_report.resource is not None:
        # Surface the run's resource sample at flow level (a later sampled
        # saturate in the same flow overwrites — latest run wins).
        ctx.resource_profile = ctx.rewrite_report.resource
    ctx.metrics["saturation_stop_reason"] = ctx.rewrite_report.stop_reason
    ctx.metrics["saturation_scheduler"] = ctx.rewrite_report.scheduler
    ctx.metrics["saturation_matches"] = ctx.rewrite_report.total_matches
    ctx.metrics["saturation_applications"] = ctx.rewrite_report.total_applications
    ctx.metrics["egraph_classes"] = circuit.egraph.num_classes
    ctx.metrics["egraph_nodes"] = circuit.egraph.num_nodes


@register_pass(
    "extract",
    "choose structures from the e-graph (simulated annealing / greedy / random)",
    kind="extract",
    positional=("method",),
    requires_egraph=True,
)
def _pass_extract(
    ctx: FlowContext,
    method: str = "sa",
    threads: int = 4,
    migrate_every: int = 0,
    iters: int = 4,
    moves: int = 4,
    seed: int = 7,
    cost: str = "depth",
    use_ml: bool = False,
) -> None:
    """E-graph extraction.

    ``method="sa"`` runs the island-model portfolio with delta-cost move
    evaluation: ``threads`` chains, each with ``iters * moves`` moves, guided
    by the structural ``cost``, exchanging their best solution every
    ``migrate_every`` moves (0 means half the per-chain budget).  Every
    chain's best extraction becomes a candidate, and the ``map`` pass keeps
    the best mapped one; with ``use_ml`` the learned cost model re-ranks the
    chains' best extractions first.  The chains run one after another in
    the flow's process; partition windows and campaign jobs are where flows
    fan out over processes.

    ``method="greedy"`` takes every class's cheapest node under ``cost``;
    ``method="random"`` draws the random bottom-up choice a random-start
    portfolio chain seeded ``seed`` begins from.  Both run on the same
    frozen snapshot as the portfolio, and reject any parameter only the
    portfolio reads (``threads``, ``iters``, ``moves``, ``migrate_every``,
    ``use_ml``) that is not at its default.

    After a ``partition`` pass the validated parameters are *staged*: the
    pass records itself as the plan's ``extract`` step, which every window
    runs when ``stitch`` does, seeded ``window_seed(seed, index)``.  Only
    ``sa`` and ``greedy`` extraction are available per window, without
    ``use_ml``.
    """
    if method not in EXTRACT_METHODS:
        raise PipelineError(
            f"unknown extraction method {method!r}; choose from {', '.join(EXTRACT_METHODS)}"
        )
    try:
        guiding = guiding_cost(cost)
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
    if threads < 1:
        raise PipelineError("extract needs threads >= 1")
    non_negative = {"iters": iters, "moves": moves, "migrate_every": migrate_every}
    for name, value in non_negative.items():
        if value < 0:
            raise PipelineError(f"extract needs {name} >= 0")
    if method != "sa":
        defaults = resolve_pass("extract").params
        sa_only = dict(threads=threads, iters=iters, moves=moves, migrate_every=migrate_every, use_ml=use_ml)
        for name, value in sa_only.items():
            if value != defaults[name]:
                raise PipelineError(
                    f"extract({method}) runs no chains, so it takes no "
                    f"{name}={render_value(value)}; only extract(sa) does"
                )
    plan = ctx.partition_plan
    if plan is not None:
        if method == "random":
            raise PipelineError("extract(random) is not supported inside a partitioned flow")
        if use_ml:
            raise PipelineError("extract(use_ml=true) is not supported inside a partitioned flow")
        plan.steps["extract"] = dict(
            method=method, threads=threads, migrate_every=migrate_every,
            iters=iters, moves=moves, seed=seed, cost=cost,
        )
        ctx.metrics["extraction_staged"] = True
        return
    circuit = ctx.require_egraph("extract")

    if method == "sa":
        ctx.metrics["extraction_evaluator"] = "ml" if use_ml else "mapping"
        final_selector = None
        if use_ml:
            # The ML evaluator is cheap, so it re-scores every chain's best
            # extraction here; with the mapping evaluator the downstream
            # ``map`` pass already maps every candidate and keeps the best,
            # so a selector pass would just pay the mapper twice.
            model = ctx.ml_model if ctx.ml_model is not None else _default_ml_model()

            def final_selector(extraction):
                return model.predict_aig(extraction_to_aig(circuit, extraction, name="candidate"))

        config = PortfolioConfig(
            chains=threads,
            move_budget=iters * moves * threads,
            migrate_every=migrate_every or max(1, (iters * moves) // 2),
            seed=seed,
        )
        result = portfolio_extract(
            circuit.egraph,
            list(circuit.output_classes),
            cost=guiding,
            config=config,
            seed_solution=circuit.original_extraction(),
            final_selector=final_selector,
        )
        ctx.extraction_profile = result.profile
        ctx.metrics["extraction_moves"] = result.profile.total_moves
        ctx.metrics["extraction_best_cost"] = result.cost
        # Chains can converge (migration); dedup identical extractions
        # so the map pass doesn't pay for the same candidate twice.
        extractions, seen = [], set()
        for extraction in result.chain_extractions:
            key = frozenset(extraction.items())
            if key not in seen:
                seen.add(key)
                extractions.append(extraction)
    elif method == "greedy":
        extractions = [greedy_extract(circuit.egraph, cost=guiding)]
    else:  # random
        problem = snapshot(circuit.egraph, list(circuit.output_classes), guiding)
        extractions = [problem.extraction_from_choice(problem.random_choice(random.Random(seed)))]

    name = ctx.aig.name
    ctx.candidates = [
        extraction_to_aig(circuit, extraction, name=name).strash() for extraction in extractions
    ]
    ctx.aig = ctx.candidates[0]
    ctx.metrics["num_candidates"] = len(ctx.candidates)
    if ctx.provenance_log is not None:
        # Walk the chosen extraction back through the saturation provenance:
        # which rule created each surviving e-node, and what it earned.
        ctx.attribution = obs_provenance.attribute_extraction(
            circuit,
            extractions[0],
            ctx.provenance_log,
            profile=ctx.rewrite_report,
            final_aig=ctx.candidates[0],
        )
        ctx.metrics["attribution_derived_ands"] = ctx.attribution.derived_ands


# --------------------------------------------------------------------------
# Partition-and-conquer: windowed saturate+extract for circuits beyond the
# monolithic engine's ceiling.


@register_pass(
    "partition",
    "decompose the AIG into optimization windows (plan; run by 'stitch')",
    kind="partition",
    positional=("k",),
)
def _pass_partition(
    ctx: FlowContext,
    k: int = 500,
    method: str = "cone",
    seed: int = 0,
    workers: int = 0,
) -> None:
    """Decompose the working AIG into windows of at most ``k`` AND nodes.

    The decomposition is parked on the context as a plan; subsequent
    ``saturate``/``extract`` passes stage themselves into it as window
    steps, and ``stitch`` runs ``dag2eg`` plus those steps on every window
    and splices the results back.
    ``method`` is ``cone`` (fanout-free-cone clustering) or ``window``
    (structural level cuts); ``seed`` shifts the cut phase; ``workers=N``
    fans windows out over N processes (0 = inline, identical results).
    """
    if method not in PARTITION_METHODS:
        raise PipelineError(
            f"unknown partition method {method!r}; choose from {', '.join(PARTITION_METHODS)}"
        )
    if k < 1:
        raise PipelineError("partition needs k >= 1")
    if workers < 0:
        raise PipelineError("partition needs workers >= 0")
    config = PartitionConfig(k=k, method=method, seed=seed, workers=workers)
    windows = partition_aig(ctx.aig, k=k, method=method, seed=seed)
    ctx.partition_plan = PartitionPlan(config=config, windows=windows)
    ctx.metrics["partition_windows"] = len(windows)
    ctx.metrics["partition_method"] = method
    ctx.metrics["partition_k"] = k


@register_pass(
    "stitch",
    "optimize every pending window (saturate+extract+CEC) and splice back",
    kind="partition",
)
def _pass_stitch(ctx: FlowContext, verify: bool = True) -> None:
    """Execute a pending partition plan.

    Runs ``dag2eg`` and the staged (or default) saturate+extract steps on
    every window — inline or across the plan's worker pool — CEC-guards
    each window, splices the survivors into the working AIG, and embeds the
    :class:`~repro.partition.telemetry.PartitionProfile` in the flow result.
    ``verify=false`` skips the final whole-circuit CEC (the per-window
    guards still run).
    """
    plan = ctx.partition_plan
    if plan is None:
        raise PipelineError(
            "pass 'stitch' needs a pending partition plan; run 'partition' first "
            "(AIG transforms invalidate a previously computed plan)"
        )
    outcome = partitioned_optimize(
        ctx.aig,
        plan.config,
        tuple(plan.steps.items()),
        windows=plan.windows,
        verify=verify,
    )
    ctx.partition_plan = None
    ctx.aig = outcome.aig
    ctx.circuit = None
    ctx.candidates = []
    ctx.partition_profile = outcome.profile
    if outcome.profile.rule_attribution is not None:
        ctx.attribution = outcome.profile.rule_attribution
    if outcome.profile.resource is not None:
        ctx.resource_profile = outcome.profile.resource
    ctx.metrics["partition_windows"] = outcome.profile.num_windows
    ctx.metrics["partition_accepted"] = outcome.profile.accepted_windows
    ctx.metrics["partition_reverted"] = outcome.profile.reverted_windows
    ctx.metrics["partition_failed"] = outcome.profile.failed_windows
    if outcome.profile.final_cec is not None:
        ctx.metrics["partition_cec"] = outcome.profile.final_cec


# --------------------------------------------------------------------------
# Technology mapping and verification.


@register_pass("premap", "record the pre-resynthesis mapping as the QoR floor", kind="map")
def _pass_premap(ctx: FlowContext) -> None:
    ctx.pre_mapping = map_aig(ctx.aig, ctx.library)
    ctx.pre_aig = ctx.aig
    ctx.metrics["premap_delay"] = ctx.pre_mapping.delay
    ctx.metrics["premap_area"] = ctx.pre_mapping.area


@register_pass("map", "priority-cut standard-cell mapping (choice-aware)", kind="map")
def _pass_map(
    ctx: FlowContext,
    use_choices: bool = False,
    choice_max_pairs: int = 400,
    choice_sat_budget: int = 300,
) -> None:
    """Map the working AIG — or, after ``extract``, every candidate — and
    keep the best ``(delay, area)``.  Extraction candidates get the light
    balance+rewrite recovery before mapping, and the ``premap`` result is
    kept when it still wins.

    Each candidate's work shows in the trace as three ``mapping`` spans
    tagged with its index: ``map cleanup``, ``map choices`` and ``map
    cover`` (a span whose step is switched off is empty).  ``map choices``
    carries the SAT sweep's pairs tried and proved, the pairs its strash
    settled, its prover calls and their conflicts, ``map cover`` the nodes
    evaluated and the distinct cuts priced.
    """
    for name, value in {"choice_max_pairs": choice_max_pairs, "choice_sat_budget": choice_sat_budget}.items():
        if value < 0:
            raise PipelineError(f"map needs {name} >= 0")
    from_extraction = bool(ctx.candidates)
    targets = ctx.candidates if from_extraction else [ctx.aig]
    best_mapping = None
    best_aig = None
    for index, candidate in enumerate(targets):
        work = candidate
        with obs.span("map cleanup", category="mapping", candidate=index):
            if from_extraction:
                # Extraction from a saturated e-graph can leave duplicated
                # structure behind; balancing plus one rewriting pass recovers
                # it without disturbing the depth profile.
                work = rewrite(balance(work))
        subject, choices = work, None
        with obs.span("map choices", category="mapping", candidate=index) as span:
            if use_choices:
                choice = compute_choices(
                    work, max_pairs=choice_max_pairs, conflict_budget=choice_sat_budget
                )
                subject, choices = choice.aig, choice.classes
                span.set("pairs_tried", choice.pairs_tried)
                span.set("pairs_proved", choice.pairs_proved)
                span.set("structural", choice.structural)
                span.set("sat_calls", choice.sat_calls)
                span.set("conflicts", choice.conflicts)
        with obs.span("map cover", category="mapping", candidate=index) as span:
            mapping = map_aig(subject, ctx.library, choices=choices)
            span.set("nodes_evaluated", mapping.nodes_evaluated)
            span.set("cuts_priced", mapping.cuts_priced)
        if best_mapping is None or (mapping.delay, mapping.area) < (best_mapping.delay, best_mapping.area):
            best_mapping = mapping
            best_aig = work
    pre = ctx.pre_mapping
    if pre is not None and (pre.delay, pre.area) < (best_mapping.delay, best_mapping.area):
        best_mapping = pre
        best_aig = ctx.pre_aig
    ctx.mapping = best_mapping
    ctx.aig = best_aig
    ctx.candidates = []
    ctx.metrics["area"] = best_mapping.area
    ctx.metrics["delay"] = best_mapping.delay


@register_pass("cec", "SAT-based equivalence check against the pipeline input", kind="verify")
def _pass_cec(ctx: FlowContext, sim_words: int = 8, conflict_budget: int = 20_000) -> None:
    if sim_words < 0:
        raise PipelineError("cec needs sim_words >= 0")
    if conflict_budget is not None and conflict_budget < 0:
        raise PipelineError("cec needs conflict_budget >= 0")
    ctx.equivalence = check_equivalence(
        ctx.original, ctx.aig, sim_words=sim_words, conflict_budget=conflict_budget
    )
    ctx.metrics["equivalence"] = ctx.equivalence.status
