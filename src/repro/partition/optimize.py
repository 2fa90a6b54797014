"""Per-window saturate + extract, fanned out over processes, with CEC guards.

This is the "conquer" half: every :class:`~repro.partition.windows.Window`
runs the registered ``dag2eg`` pass and then the window steps (``saturate``
and ``extract`` with the parameters staged in the pipeline, or
:data:`WINDOW_STEPS`) on its own sub-AIG — the same pass code a
whole-circuit flow runs.  Three guards keep the run fail-soft and sound:

* a window whose optimization raises (limits tripped, cyclic extraction,
  anything) keeps its original cone (``status="failed"``);
* a window whose optimized sub-AIG is not SAT-equivalent to the original
  cone is reverted (``status="reverted_cec"``);
* a window whose optimized cone is not strictly better (fewer ANDs, or equal
  ANDs at lower depth) is reverted (``status="reverted_no_gain"``) so
  stitching never degrades the host.

Parallelism: windows ship to a ``ProcessPoolExecutor``; each task runs
:func:`optimize_window` under :func:`repro.obs.channel.capture` and returns
the captured observers with its result, and the parent absorbs them **in
window-index order**, so observability output is deterministic.  The window
index is stamped where records are produced (the ``window`` span, the
saturation's provenance log and the window's resource sample in
:func:`optimize_window`), so a pooled run records exactly what an inline run
records.  Results are a pure function of ``(aig, config, steps)``:
``workers=0`` (inline) and any pool size produce identical stitched
circuits, reports, and profiles modulo wall-clock fields.

Seeding: window ``i`` extracts with :func:`window_seed`\\ ``(seed, i)`` — a
fixed prime stride apart, mirroring the portfolio's ``chain_seed`` contract
— so no two windows replay the same annealing trajectory yet every run is
reproducible per (circuit, config, seed).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig
from repro.aig.levels import logic_depth
from repro.mapping.library import default_library
from repro.obs import provenance as obs_provenance
from repro.obs import resource as obs_resource
from repro.obs import trace as obs
from repro.obs.channel import absorb, capture, installed
from repro.partition.telemetry import PartitionProfile, WindowReport
from repro.partition.windows import Window, partition_aig
from repro.verify.cec import check_equivalence

#: Distinct-prime stride between per-window extraction seeds (deliberately
#: different from the portfolio's chain stride 1009, so window i / chain j
#: seeds never collide across the two levels of parallelism).
SEED_STRIDE = 7919


def window_seed(base: int, index: int) -> int:
    """The extraction seed of window ``index`` under base seed ``base``."""
    return base + SEED_STRIDE * index


#: One window step: a registered pass name and the parameters it runs with.
WindowStep = Tuple[str, Dict[str, object]]

#: What every window runs after ``dag2eg`` when nothing is staged: ``saturate``
#: at its defaults, then a 2-chain portfolio of 32 moves per chain.
WINDOW_STEPS: Tuple[WindowStep, ...] = (
    ("saturate", {}),
    ("extract", {"method": "sa", "threads": 2, "iters": 8, "moves": 4}),
)

#: Budget of the per-window CEC guards and of the final whole-circuit CEC.
GUARD_SIM_WORDS = 8
GUARD_CONFLICT_BUDGET = 50_000


@dataclass(frozen=True)
class PartitionConfig:
    """How to decompose the host and how wide to fan the windows out."""

    k: int = 500
    method: str = "cone"
    seed: int = 0
    #: Worker processes: 0 runs windows inline (identical results — the pool
    #: is throughput, not semantics), N > 0 uses a pool of N processes.
    workers: int = 0


@dataclass
class PartitionPlan:
    """A pending partition inside a pipeline flow.

    The ``partition`` pass computes windows and parks this plan on the
    context; later ``saturate`` / ``extract`` passes validate their
    parameters and record themselves in ``steps`` instead of executing, and
    ``stitch`` runs the whole fan-out.
    """

    config: PartitionConfig
    windows: List[Window]
    #: The window flow after ``dag2eg``, pass name -> parameters, in run
    #: order; a staged pass replaces its own entry, so ``saturate`` always
    #: runs before ``extract``.
    steps: Dict[str, Dict[str, object]] = field(default_factory=lambda: dict(WINDOW_STEPS))


@dataclass
class PartitionOutcome:
    """What ``partitioned_optimize`` returns."""

    aig: Aig
    profile: PartitionProfile
    reports: List[WindowReport]


def optimize_window(index: int, sub: Aig, steps: Sequence[WindowStep]) -> Tuple[WindowReport, Optional[Aig]]:
    """Run ``dag2eg``, then ``steps``, then the CEC guard on one window's sub-AIG.

    Every step is the registered pipeline pass of that name, run on a
    :class:`~repro.pipeline.context.FlowContext` over ``sub``; the only
    parameter the window changes is ``extract``'s ``seed``, which becomes
    :func:`window_seed`\\ ``(seed, index)``.  Under a provenance recorder,
    the saturation's log, which the engine already grafted into the
    installed recorder, is stamped with ``window=index``.  Returns
    ``(report, optimized_or_None)``; ``None`` means the window keeps its
    original cone.  Never raises — failures land in ``report.error``.
    """
    # Imported here: the pipeline's pass registry imports this package.
    from repro.pipeline.context import FlowContext
    from repro.pipeline.passes import resolve_pass

    report = WindowReport(
        index=index,
        ands_before=sub.num_ands,
        levels_before=logic_depth(sub),
        inputs=sub.num_pis,
        outputs=sub.num_pos,
    )
    start = time.perf_counter()
    ctx = FlowContext(aig=sub, original=sub, library=default_library())
    span = obs.span("window", category="partition.window", window=index, ands=sub.num_ands)
    try:
        with span:
            resolve_pass("dag2eg").run(ctx, {})
            for name, params in steps:
                spec = resolve_pass(name)
                if spec.name == "extract":
                    seed = params.get("seed", spec.params["seed"])
                    params = {**params, "seed": window_seed(seed, index)}
                spec.run(ctx, params)
            optimized = ctx.aig
            cec = check_equivalence(
                sub, optimized, sim_words=GUARD_SIM_WORDS, conflict_budget=GUARD_CONFLICT_BUDGET
            )
            report.cec = cec.status
            after = (optimized.num_ands, logic_depth(optimized))
            before = (report.ands_before, report.levels_before)
            if cec.status != "equivalent":
                report.status = "reverted_cec"
                optimized = None
            elif after >= before:
                report.status = "reverted_no_gain"
                optimized = None
            else:
                report.status = "accepted"
                report.ands_after, report.levels_after = after
            span.set("status", report.status)
    except Exception as exc:  # fail-soft: the window keeps its original cone
        report.status = "failed"
        report.error = f"{type(exc).__name__}: {exc}"
        optimized = None
    saturation = ctx.rewrite_report
    if saturation is not None:
        report.saturation_stop = saturation.stop_reason
        report.saturation_iterations = saturation.num_iterations
        report.egraph_nodes = saturation.final_nodes
        if saturation.resource is not None:
            extra = {**saturation.resource.get("extra", {}), "window": index}
            report.resource = {**saturation.resource, "extra": extra}
    if ctx.extraction_profile is not None:
        report.extract_cost = ctx.extraction_profile.best_cost
    report.attribution = ctx.attribution
    if optimized is None:
        report.ands_after = report.ands_before
        report.levels_after = report.levels_before
    if ctx.provenance_log is not None:
        # The records are shared with the installed recorder (the pipeline's,
        # or the one a pool worker captures), so the stamp reaches it.
        ctx.provenance_log.stamp(window=index)
    report.wall_time = time.perf_counter() - start
    return report, optimized


def _worker_optimize(index: int, sub: Aig, steps: Sequence[WindowStep], kinds: frozenset):
    """Pool entry point: optimize one window under the parent's observer
    kinds; returns ``(report, optimized, payload)``."""
    with capture(kinds) as captured:
        report, optimized = optimize_window(index, sub, steps)
    return report, optimized, captured.payload


def partitioned_optimize(
    aig: Aig,
    partition: Optional[PartitionConfig] = None,
    window: Sequence[WindowStep] = WINDOW_STEPS,
    windows: Optional[List[Window]] = None,
    verify: bool = True,
) -> PartitionOutcome:
    """Partition, run the ``window`` steps on every window, and stitch the host back together.

    ``windows`` short-circuits the decomposition (the pipeline's ``stitch``
    pass passes the plan's precomputed windows).  ``verify`` runs the final
    whole-circuit CEC against the input; the per-window guards run always.
    """
    from repro.partition.stitch import stitch_windows

    partition = partition or PartitionConfig()
    start = time.perf_counter()
    profile = PartitionProfile(
        method=partition.method,
        k=partition.k,
        seed=partition.seed,
        workers=partition.workers,
        ands_before=aig.num_ands,
        levels_before=logic_depth(aig),
    )

    with obs.span(
        "partition", category="partition", method=partition.method, k=partition.k
    ) as part_span:
        if windows is None:
            windows = partition_aig(aig, k=partition.k, method=partition.method, seed=partition.seed)
        part_span.set("windows", len(windows))
    profile.partition_time = part_span.duration
    profile.num_windows = len(windows)

    reports: List[Optional[WindowReport]] = [None] * len(windows)
    optimized: List[Optional[Aig]] = [None] * len(windows)
    with obs.span("optimize windows", category="partition", windows=len(windows)) as optimize_span:
        if partition.workers > 0 and len(windows) > 1:
            kinds = installed()
            with ProcessPoolExecutor(partition.workers) as pool:
                futures = [
                    pool.submit(_worker_optimize, w.index, w.aig, window, kinds)
                    for w in windows
                ]
                # Absorb in window-index order so observability output is
                # deterministic regardless of completion order.
                for w, future in zip(windows, futures):
                    reports[w.index], optimized[w.index], payload = future.result()
                    absorb(payload)
        else:
            for w in windows:
                reports[w.index], optimized[w.index] = optimize_window(w.index, w.aig, window)
        for w in windows:
            # The sub-AIG a window ships does not know its host member count.
            reports[w.index].members = w.num_members
    profile.optimize_time = optimize_span.duration

    with obs.span("stitch", category="partition", windows=len(windows)) as stitch_span:
        implementations = [
            opt if opt is not None else w.aig for w, opt in zip(windows, optimized)
        ]
        stitched = stitch_windows(aig, list(windows), implementations)
    profile.stitch_time = stitch_span.duration

    profile.windows = [r for r in reports if r is not None]
    if any(r.attribution is not None for r in profile.windows):
        # Aggregate the windows whose optimized cones actually survived into
        # the stitched circuit; reverted windows keep their per-window report.
        profile.rule_attribution = obs_provenance.RuleAttribution.aggregate(
            r.attribution for r in profile.windows if r.attribution is not None and r.accepted
        )
    window_samples = [r.resource for r in profile.windows if r.resource is not None]
    if window_samples:
        # Flow-level aggregate: max RSS across processes, summed growth
        # events, per-window curves — the adaptive-k telemetry signal.
        profile.resource = obs_resource.aggregate_samples(window_samples)
    profile.ands_after = stitched.num_ands
    profile.levels_after = logic_depth(stitched)
    if verify:
        with obs.span("final cec", category="partition"):
            cec = check_equivalence(
                aig, stitched, sim_words=GUARD_SIM_WORDS, conflict_budget=GUARD_CONFLICT_BUDGET
            )
        profile.final_cec = cec.status
        if cec.status == "counterexample":
            # Should be unreachable given the per-window guards; fall back to
            # the input rather than ship a wrong circuit.
            stitched = aig
            profile.ands_after = aig.num_ands
            profile.levels_after = profile.levels_before
    profile.wall_time = time.perf_counter() - start
    return PartitionOutcome(aig=stitched, profile=profile, reports=profile.windows)
