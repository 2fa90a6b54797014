"""Per-window saturate + extract, fanned out over processes, with CEC guards.

This is the "conquer" half: every :class:`~repro.partition.windows.Window`
runs the full ``dag2eg -> saturate -> extract -> eg2dag`` flow on its own
sub-AIG, bounded by :class:`WindowOptConfig` limits.  Three guards keep the
run fail-soft and sound:

* a window whose optimization raises (limits tripped, cyclic extraction,
  anything) keeps its original cone (``status="failed"``);
* a window whose optimized sub-AIG is not SAT-equivalent to the original
  cone is reverted (``status="reverted_cec"``);
* a window whose optimized cone is not strictly better (fewer ANDs, or equal
  ANDs at lower depth) is reverted (``status="reverted_no_gain"``) so
  stitching never degrades the host.

Parallelism: windows ship to a ``ProcessPoolExecutor``; each task runs
:func:`optimize_window` under :func:`repro.obs.channel.capture` and returns
the captured observer buffers with its result, and the parent absorbs them
**in window-index order**, so observability output is deterministic.  The
window index is stamped where records are produced (the ``window`` span, the
window-scoped provenance and resource merges in :func:`optimize_window`), so
a pooled run records exactly what an inline run records.  Results are a pure
function of ``(aig, configs)``: ``workers=0`` (inline) and any pool size
produce identical stitched circuits, reports, and profiles modulo
wall-clock fields.

Seeding: window ``i`` extracts with :func:`window_seed`\\ ``(seed, i)`` — a
fixed prime stride apart, mirroring the portfolio's ``chain_seed`` contract
— so no two windows replay the same annealing trajectory yet every run is
reproducible per (circuit, config, seed).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.aig.graph import Aig
from repro.aig.levels import logic_depth
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import guiding_cost
from repro.extraction.engine import PortfolioConfig, portfolio_extract
from repro.extraction.greedy import greedy_extract
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


@dataclass(frozen=True)
class WindowOptConfig:
    """Limits and knobs applied to every window's saturate + extract flow."""

    # saturation (mirrors the ``saturate`` pass defaults, scaled per window)
    iters: int = 5
    max_nodes: int = 40_000
    time_limit: float = 30.0
    scheduler: str = "backoff"
    dedup: bool = True
    # extraction
    method: str = "sa"  # "sa" (portfolio) | "greedy"
    chains: int = 2
    moves: int = 64
    cost: str = "depth"  # "depth" | "nodes"
    seed: int = 7
    # per-window CEC guard
    sim_words: int = 8
    conflict_budget: int = 50_000

    def guiding_cost(self):
        return guiding_cost(self.cost)


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
    context; later ``saturate`` / ``extract`` passes stage their parameters
    here instead of executing, and ``stitch`` runs the whole fan-out.
    """

    config: PartitionConfig
    windows: List[Window]
    window_config: WindowOptConfig = field(default_factory=WindowOptConfig)
    saturate_staged: bool = False
    extract_staged: bool = False


@dataclass
class PartitionOutcome:
    """What ``partitioned_optimize`` returns."""

    aig: Aig
    profile: PartitionProfile
    reports: List[WindowReport]


def optimize_window(index: int, sub: Aig, cfg: WindowOptConfig) -> Tuple[WindowReport, Optional[Aig]]:
    """Run saturate + extract + CEC on one window's sub-AIG.

    Returns ``(report, optimized_or_None)``; ``None`` means the window keeps
    its original cone.  Never raises — failures land in ``report.error``.
    """
    report = WindowReport(
        index=index,
        ands_before=sub.num_ands,
        levels_before=logic_depth(sub),
        inputs=sub.num_pis,
        outputs=sub.num_pos,
    )
    start = time.perf_counter()
    plog = None
    wsampler = None
    span = obs.span("window", category="partition.window", window=index, ands=sub.num_ands)
    try:
        with span:
            circuit = aig_to_egraph(sub)
            limits = EngineLimits(
                max_iterations=cfg.iters,
                max_nodes=cfg.max_nodes,
                time_limit=cfg.time_limit,
            )
            engine = SaturationEngine(
                circuit.egraph,
                boolean_rules(),
                limits,
                scheduler=cfg.scheduler,
                dedup_matches=cfg.dedup,
            )
            with ExitStack() as stack:
                if obs_provenance.recording_enabled():
                    # One scoped log per window: each window is its own
                    # e-graph id space, so a shared log would mis-resolve
                    # class ids.
                    plog = stack.enter_context(obs_provenance.recording())
                if obs_resource.sampling_enabled():
                    # Same per-window scoping for resource samples, so the
                    # merge below can stamp the window index on each one.
                    wsampler = stack.enter_context(obs_resource.sampling())
                sat_profile = engine.run()
            if sat_profile.resource is not None:
                report.resource = dict(sat_profile.resource)
                report.resource["extra"] = {
                    **report.resource.get("extra", {}),
                    "window": index,
                }
            report.saturation_stop = sat_profile.stop_reason
            report.saturation_iterations = sat_profile.num_iterations
            report.egraph_nodes = sat_profile.final_nodes
            if cfg.method == "greedy":
                extraction = greedy_extract(circuit.egraph, cost=cfg.guiding_cost())
            else:
                result = portfolio_extract(
                    circuit.egraph,
                    list(circuit.output_classes),
                    cost=cfg.guiding_cost(),
                    config=PortfolioConfig(
                        chains=cfg.chains,
                        move_budget=cfg.moves,
                        migrate_every=max(1, cfg.moves // (2 * cfg.chains)),
                        seed=window_seed(cfg.seed, index),
                        workers=0,
                    ),
                    seed_solution=circuit.original_extraction(),
                )
                extraction = result.extraction
                report.extract_cost = result.cost
            optimized = extraction_to_aig(circuit, extraction, name=sub.name).strash()
            if plog is not None:
                try:
                    report.attribution = obs_provenance.attribute_extraction(
                        circuit, extraction, plog, profile=sat_profile, final_aig=optimized
                    ).to_dict()
                except Exception:  # attribution must never fail a window
                    report.attribution = None
            cec = check_equivalence(
                sub, optimized, sim_words=cfg.sim_words, conflict_budget=cfg.conflict_budget
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
    if optimized is None:
        report.ands_after = report.ands_before
        report.levels_after = report.levels_before
    outer = obs_provenance.current_recorder()
    if plog is not None and outer is not None:
        # Graft the window's log into the enclosing recorder (the pipeline's,
        # or the one a pool worker captures) window-stamped.
        outer.merge(plog.export(), window=index)
    outer_sampler = obs_resource.current_sampler()
    if wsampler is not None and outer_sampler is not None:
        outer_sampler.merge(wsampler.export(), window=index)
    report.wall_time = time.perf_counter() - start
    return report, optimized


def _worker_optimize(index: int, sub: Aig, cfg: WindowOptConfig, kinds: frozenset):
    """Pool entry point: optimize one window under the parent's observer
    kinds; returns ``(report, optimized, payload)``."""
    with capture(kinds) as captured:
        report, optimized = optimize_window(index, sub, cfg)
    return report, optimized, captured.payload


def partitioned_optimize(
    aig: Aig,
    partition: Optional[PartitionConfig] = None,
    window: Optional[WindowOptConfig] = None,
    windows: Optional[List[Window]] = None,
    verify: bool = True,
) -> PartitionOutcome:
    """Partition, optimize every window, and stitch the host back together.

    ``windows`` short-circuits the decomposition (the pipeline's ``stitch``
    pass passes the plan's precomputed windows).  ``verify`` runs the final
    whole-circuit CEC against the input; the per-window guards run always.
    """
    from repro.partition.stitch import stitch_windows

    partition = partition or PartitionConfig()
    window_cfg = window or WindowOptConfig()
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
        t0 = time.perf_counter()
        if windows is None:
            windows = partition_aig(aig, k=partition.k, method=partition.method, seed=partition.seed)
        profile.partition_time = time.perf_counter() - t0
        profile.num_windows = len(windows)
        part_span.set("windows", len(windows))

    t0 = time.perf_counter()
    reports: List[Optional[WindowReport]] = [None] * len(windows)
    optimized: List[Optional[Aig]] = [None] * len(windows)
    with obs.span("optimize windows", category="partition", windows=len(windows)):
        if partition.workers > 0 and len(windows) > 1:
            kinds = installed()
            with ProcessPoolExecutor(partition.workers) as pool:
                futures = [
                    pool.submit(_worker_optimize, w.index, w.aig, window_cfg, kinds)
                    for w in windows
                ]
                # Absorb in window-index order so observability output is
                # deterministic regardless of completion order.
                for w, future in zip(windows, futures):
                    reports[w.index], optimized[w.index], payload = future.result()
                    absorb(payload)
        else:
            for w in windows:
                reports[w.index], optimized[w.index] = optimize_window(w.index, w.aig, window_cfg)
    profile.optimize_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    with obs.span("stitch", category="partition", windows=len(windows)):
        implementations = [
            opt if opt is not None else w.aig for w, opt in zip(windows, optimized)
        ]
        stitched = stitch_windows(aig, list(windows), implementations)
    profile.stitch_time = time.perf_counter() - t0

    profile.windows = [r for r in reports if r is not None]
    if any(r.attribution is not None for r in profile.windows):
        # Aggregate the windows whose optimized cones actually survived into
        # the stitched circuit; reverted windows keep their per-window report.
        profile.rule_attribution = obs_provenance.RuleAttribution.aggregate(
            obs_provenance.RuleAttribution.from_dict(r.attribution)
            for r in profile.windows
            if r.attribution is not None and r.accepted
        ).to_dict()
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
                aig, stitched, sim_words=window_cfg.sim_words,
                conflict_budget=window_cfg.conflict_budget,
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
