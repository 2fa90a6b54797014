"""Tests of the partition-and-conquer subsystem.

Covers the partitioner invariants (coverage, convexity, determinism per
seed), the identity stitch round trip (CEC-verified), per-window
optimization with its fail-soft and revert guards, the window flow against
its pre-pipeline oracle, inline-vs-pool determinism of
``partitioned_optimize``, the telemetry JSON surface, the
``partition``/``stitch`` pipeline passes, and the fast bench profile's
capability-gap demonstration.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from contextlib import ExitStack
from dataclasses import dataclass

import pytest

from repro.aig.graph import Aig, lit_var
from repro.aig.levels import compute_levels, logic_depth
from repro.benchgen import epfl
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
from repro.partition import (
    PARTITION_METHODS,
    PartitionConfig,
    PartitionProfile,
    WindowReport,
    check_partition,
    optimize_window,
    partition_aig,
    partitioned_optimize,
    stitch_windows,
    window_round_trip,
    window_seed,
)
from repro.partition.optimize import WINDOW_STEPS
from repro.pipeline import Pipeline
from repro.pipeline.context import PipelineError
from repro.verify.cec import check_equivalence

#: Small window budgets: two saturation iterations, two chains of 4 moves.
SMALL_WINDOW = (
    ("saturate", {"iters": 2, "max_nodes": 2500}),
    ("extract", {"method": "sa", "threads": 2, "iters": 1, "moves": 4}),
)


@pytest.fixture(scope="module")
def log2_test():
    return epfl.build("log2", preset="test")


class TestPartitioner:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_invariants_hold(self, log2_test, method, seed):
        windows = partition_aig(log2_test, k=60, method=method, seed=seed)
        check_partition(log2_test, windows)  # raises on violation
        assert sum(w.num_members for w in windows) == log2_test.num_ands

    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_capacity_respected_for_unit_circuits(self, log2_test, method):
        # Windows only exceed k when a single fanout-free cone does.
        k = 60
        windows = partition_aig(log2_test, k=k, method=method)
        assert all(w.num_members <= k for w in windows)
        assert len(windows) > 1

    def test_sub_aig_interface_matches_boundary(self, log2_test):
        for window in partition_aig(log2_test, k=60):
            assert window.aig.num_pis == len(window.inputs)
            assert window.aig.num_pos == len(window.outputs)
            assert window.members == sorted(window.members)

    def test_deterministic_per_seed(self, log2_test):
        first = partition_aig(log2_test, k=60, seed=3)
        second = partition_aig(log2_test, k=60, seed=3)
        assert [w.members for w in first] == [w.members for w in second]

    def test_seed_shifts_cuts(self, log2_test):
        base = partition_aig(log2_test, k=60, seed=0)
        shifted = partition_aig(log2_test, k=60, seed=7)
        assert [w.members for w in base] != [w.members for w in shifted]
        check_partition(log2_test, shifted)

    def test_rejects_bad_arguments(self, log2_test):
        with pytest.raises(ValueError):
            partition_aig(log2_test, k=0)
        with pytest.raises(ValueError):
            partition_aig(log2_test, method="bogus")

    def test_check_partition_catches_missing_window(self, log2_test):
        windows = partition_aig(log2_test, k=60)
        with pytest.raises(ValueError):
            check_partition(log2_test, windows[:-1])


class TestStitch:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    @pytest.mark.parametrize("name", ["adder", "log2", "mem_ctrl"])
    def test_round_trip_is_equivalent(self, name, method):
        aig = epfl.build(name, preset="test")
        windows = partition_aig(aig, k=50, method=method, seed=2)
        stitched = window_round_trip(aig, windows)
        assert check_equivalence(aig, stitched).status == "equivalent"

    def test_interface_mismatch_rejected(self, log2_test):
        windows = partition_aig(log2_test, k=60)
        bogus = Aig()
        bogus.add_po(bogus.add_pi())
        implementations = [w.aig for w in windows]
        implementations[0] = bogus
        with pytest.raises(ValueError):
            stitch_windows(log2_test, windows, implementations)


class TestOptimizeWindow:
    def test_accepts_only_improvements(self, log2_test):
        windows = partition_aig(log2_test, k=60)
        steps = (
            ("saturate", {"iters": 3, "max_nodes": 3000}),
            ("extract", {"method": "sa", "threads": 2, "iters": 2, "moves": 4}),
        )
        report, optimized = optimize_window(0, windows[0].aig, steps)
        assert report.status in ("accepted", "reverted_no_gain", "reverted_cec")
        if report.status == "accepted":
            assert optimized is not None
            assert (optimized.num_ands, report.levels_after) < (
                report.ands_before,
                report.levels_before,
            )
            assert check_equivalence(windows[0].aig, optimized).status == "equivalent"
        else:
            assert optimized is None
            assert report.ands_after == report.ands_before

    def test_fail_soft_on_error(self, log2_test):
        windows = partition_aig(log2_test, k=60)
        # An invalid scheduler makes the pass raise; the window must survive.
        report, optimized = optimize_window(0, windows[0].aig, [("saturate", {"scheduler": "bogus"})])
        assert report.status == "failed"
        assert optimized is None
        assert report.error

    def test_unknown_guiding_cost_is_rejected(self):
        # It used to fall back to node count silently.
        assert guiding_cost("nodes").mode == "sum"
        with pytest.raises(ValueError, match="choose from depth, nodes"):
            guiding_cost("dept")

    def test_window_seed_stride(self):
        assert window_seed(7, 0) == 7
        assert window_seed(7, 2) - window_seed(7, 1) == window_seed(7, 1) - window_seed(7, 0)
        assert window_seed(7, 1) != window_seed(7, 0)


# --------------------------------------------------------------------------
# Oracle: the window flow from before windows ran the registered passes.
# It built its own engine and portfolio from a 12-field config that the
# pipeline's staging translated ``saturate``/``extract`` parameters into.


@dataclass(frozen=True)
class WindowOptConfig:
    """Limits and knobs of the oracle window flow."""

    iters: int = 5
    max_nodes: int = 40_000
    time_limit: float = 30.0
    scheduler: str = "backoff"
    dedup: bool = True
    method: str = "sa"  # "sa" (portfolio) | "greedy"
    chains: int = 2
    moves: int = 64  # total over all chains
    cost: str = "depth"
    seed: int = 7
    sim_words: int = 8
    conflict_budget: int = 50_000


def oracle_optimize_window(index, sub, cfg):
    """The old ``optimize_window``: private engine + portfolio set-up."""
    report = WindowReport(
        index=index,
        ands_before=sub.num_ands,
        levels_before=logic_depth(sub),
        inputs=sub.num_pis,
        outputs=sub.num_pos,
    )
    start = time.perf_counter()
    plog = None
    span = obs.span("window", category="partition.window", window=index, ands=sub.num_ands)
    try:
        with span:
            circuit = aig_to_egraph(sub)
            limits = EngineLimits(
                max_iterations=cfg.iters, max_nodes=cfg.max_nodes, time_limit=cfg.time_limit
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
                    plog = stack.enter_context(obs_provenance.recording())
                sat_profile = engine.run()
            if sat_profile.resource is not None:
                report.resource = dict(sat_profile.resource)
                report.resource["extra"] = {**report.resource.get("extra", {}), "window": index}
            report.saturation_stop = sat_profile.stop_reason
            report.saturation_iterations = sat_profile.num_iterations
            report.egraph_nodes = sat_profile.final_nodes
            if cfg.method == "greedy":
                extraction = greedy_extract(circuit.egraph, cost=guiding_cost(cfg.cost))
            else:
                result = portfolio_extract(
                    circuit.egraph,
                    list(circuit.output_classes),
                    cost=guiding_cost(cfg.cost),
                    config=PortfolioConfig(
                        chains=cfg.chains,
                        move_budget=cfg.moves,
                        migrate_every=max(1, cfg.moves // (2 * cfg.chains)),
                        seed=window_seed(cfg.seed, index),
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
                    )
                except Exception:
                    report.attribution = None
            cec = check_equivalence(
                sub, optimized, sim_words=cfg.sim_words, conflict_budget=cfg.conflict_budget
            )
            report.cec = cec.status
            after = (optimized.num_ands, logic_depth(optimized))
            if cec.status != "equivalent":
                report.status = "reverted_cec"
                optimized = None
            elif after >= (report.ands_before, report.levels_before):
                report.status = "reverted_no_gain"
                optimized = None
            else:
                report.status = "accepted"
                report.ands_after, report.levels_after = after
            span.set("status", report.status)
    except Exception as exc:
        report.status = "failed"
        report.error = f"{type(exc).__name__}: {exc}"
        optimized = None
    if optimized is None:
        report.ands_after = report.ands_before
        report.levels_after = report.levels_before
    outer = obs_provenance.current_recorder()
    if plog is not None and outer is not None:
        plog.stamp(window=index)
        outer.graft(plog)
    report.wall_time = time.perf_counter() - start
    return report, optimized


#: Window flows: the staged passes, and the config the old staging built
#: from them (``chains = threads``, ``moves = iters * moves * threads``).
ORACLE_FLOWS = {
    "partition-windows-1": (
        "saturate(iters=3, max_nodes=8000); extract(sa, threads=2, seed=1)",
        WindowOptConfig(iters=3, max_nodes=8000, chains=2, moves=32, seed=1),
    ),
    "partition-windows-2": (
        "saturate(iters=3, max_nodes=8000); extract(sa, threads=2, seed=2)",
        WindowOptConfig(iters=3, max_nodes=8000, chains=2, moves=32, seed=2),
    ),
    "small-sa": (
        "saturate(iters=2, max_nodes=2500); extract(sa, threads=2, iters=1, moves=4)",
        WindowOptConfig(iters=2, max_nodes=2500, chains=2, moves=8),
    ),
    "small-greedy": (
        "saturate(iters=1, max_nodes=2000); extract(greedy)",
        WindowOptConfig(iters=1, max_nodes=2000, method="greedy", chains=4, moves=64),
    ),
}

#: The slow sweep adds the unstaged defaults, greedy at default saturation,
#: and a node-count-guided 4-chain portfolio.
SLOW_ORACLE_FLOWS = {
    **ORACLE_FLOWS,
    "defaults": ("", WindowOptConfig()),
    "greedy": ("extract(greedy)", WindowOptConfig(method="greedy")),
    "nodes-4-chains": (
        "extract(sa, threads=4, iters=4, moves=4, cost=nodes)",
        WindowOptConfig(chains=4, moves=64, cost="nodes"),
    ),
}


def staged_steps(aig, staged):
    """The window steps a pipeline stages from ``staged`` after ``partition``."""
    ctx = Pipeline.from_script(f"st; partition(k=30); {staged}".rstrip("; ")).run(aig)
    return tuple(ctx.partition_plan.steps.items())


def observed_window(run):
    """Run one window under a tracer, a provenance recorder and a resource
    sampler; everything it produced, minus wall time, RSS and pids."""
    with obs.tracing() as tracer, obs_provenance.recording() as log, obs_resource.sampling():
        report, optimized = run()
    drop = lambda payload, keys: {k: v for k, v in payload.items() if k not in keys}
    payload = drop(report.to_dict(), {"wall_time"})
    if payload["resource"] is not None:
        payload["resource"] = drop(payload["resource"], {"pid", "peak_rss_bytes"})
    position = {record.span_id: i for i, record in enumerate(tracer.records)}
    return {
        "report": payload,
        "aig": None if optimized is None else (optimized.name, optimized.nodes, optimized.pis, optimized.pos),
        "provenance": [drop(r.to_dict(), {"pid"}) for r in log.nodes + log.merges],
        "spans": [
            (r.name, r.category, r.args, position.get(r.parent_id)) for r in tracer.records
        ],
    }


def assert_windows_match_oracle(aig, partition_seed, staged, cfg):
    steps = staged_steps(aig, staged)
    for window in partition_aig(aig, k=30, seed=partition_seed):
        new = observed_window(lambda: optimize_window(window.index, window.aig, steps))
        old = observed_window(lambda: oracle_optimize_window(window.index, window.aig, cfg))
        assert new == old, f"window {window.index}"


class TestWindowFlowOracle:
    def test_default_steps_are_the_old_default_config(self):
        saturate, extract = WINDOW_STEPS
        assert saturate == ("saturate", {})
        # 2 chains x 32 moves = the old 64-move budget, migrating every 16.
        assert extract == ("extract", {"method": "sa", "threads": 2, "iters": 8, "moves": 4})

    @pytest.mark.parametrize("flow", list(ORACLE_FLOWS))
    def test_windows_match_oracle(self, log2_test, flow):
        staged, cfg = ORACLE_FLOWS[flow]
        assert_windows_match_oracle(log2_test, 1, staged, cfg)

    @pytest.mark.slow
    @pytest.mark.parametrize("partition_seed", [1, 2])
    @pytest.mark.parametrize("name", ["arbiter", "hyp", "log2", "sin"])
    @pytest.mark.parametrize("flow", list(SLOW_ORACLE_FLOWS))
    def test_windows_match_oracle_sweep(self, name, partition_seed, flow):
        staged, cfg = SLOW_ORACLE_FLOWS[flow]
        assert_windows_match_oracle(epfl.build(name, preset="test"), partition_seed, staged, cfg)


class TestPartitionedOptimize:
    def test_inline_equals_pool(self, log2_test):
        inline = partitioned_optimize(log2_test, PartitionConfig(k=60, workers=0), SMALL_WINDOW)
        pooled = partitioned_optimize(log2_test, PartitionConfig(k=60, workers=2), SMALL_WINDOW)
        assert inline.aig.stats() == pooled.aig.stats()
        strip = lambda r: {k: v for k, v in r.to_dict().items() if k != "wall_time"}
        assert [strip(r) for r in inline.reports] == [strip(r) for r in pooled.reports]
        assert check_equivalence(inline.aig, pooled.aig).status == "equivalent"
        # Each report carries its window's host member count, inline and pooled.
        sizes = [w.num_members for w in partition_aig(log2_test, k=60)]
        assert sum(sizes) == log2_test.num_ands
        assert inline.profile.window_sizes() == pooled.profile.window_sizes() == sizes

    def test_profile_shape_and_final_cec(self, log2_test):
        outcome = partitioned_optimize(log2_test, PartitionConfig(k=60), SMALL_WINDOW, verify=True)
        profile = outcome.profile
        assert profile.num_windows == len(profile.windows)
        assert profile.final_cec == "equivalent"
        assert profile.accepted_windows + profile.reverted_windows + profile.failed_windows == (
            profile.num_windows
        )
        assert check_equivalence(log2_test, outcome.aig).status == "equivalent"


class TestTelemetry:
    def test_profile_json_round_trip(self, log2_test):
        profile = partitioned_optimize(log2_test, PartitionConfig(k=60), SMALL_WINDOW).profile
        payload = profile.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["window_sizes"] == profile.window_sizes()
        assert [w["index"] for w in payload["windows"]] == list(range(profile.num_windows))

    def test_window_report_round_trip(self):
        report = WindowReport(index=3, members=40, status="accepted", cec="equivalent")
        # to_dict carries every field as plain JSON: the constructor rebuilds the report
        assert WindowReport(**json.loads(json.dumps(report.to_dict()))) == report

    def test_cec_result_to_dict(self, log2_test):
        cec = check_equivalence(log2_test, log2_test.strash())
        payload = cec.to_dict()
        assert payload["status"] == "equivalent"
        assert payload["equivalent"] is True
        json.dumps(payload)

    def test_render_mentions_counts(self):
        profile = PartitionProfile(method="cone", k=60, num_windows=2)
        profile.windows = [
            WindowReport(index=0, status="accepted"),
            WindowReport(index=1, status="reverted_cec"),
        ]
        text = profile.render()
        assert "accepted=1" in text and "reverted_cec=1" in text


class TestPipelinePasses:
    def test_script_end_to_end(self, log2_test):
        pipeline = Pipeline.from_script(
            "st; partition(k=60); saturate(iters=2, max_nodes=2500); "
            "extract(sa, threads=2, moves=4, iters=1); stitch; map; cec"
        )
        result = pipeline.run_flow(log2_test)
        data = result.to_dict()
        assert data["equivalence"] == "equivalent"
        assert data["partition"]["num_windows"] > 1
        assert data["partition"]["final_cec"] == "equivalent"
        assert data["metrics"]["saturation_staged"] is True
        assert data["metrics"]["extraction_staged"] is True
        assert "area" in data and "delay" in data

    def test_stitch_requires_plan(self, small_adder):
        with pytest.raises(PipelineError):
            Pipeline.from_script("st; stitch").run_flow(small_adder)

    def test_transform_invalidates_plan(self, small_adder):
        # A transform between partition and stitch drops the plan.
        with pytest.raises(PipelineError):
            Pipeline.from_script("st; partition(k=30); balance; stitch").run_flow(small_adder)

    def test_partitioned_flow_rejects_unsupported_extraction(self, small_adder):
        for script in (
            "st; partition(k=30); extract(random); stitch",
            "st; partition(k=30); extract(sa, use_ml=true); stitch",
        ):
            with pytest.raises(PipelineError):
                Pipeline.from_script(script).run_flow(small_adder)

    def test_stitch_defaults_without_staging(self, small_adder):
        # partition; stitch with no saturate/extract staged runs window defaults.
        result = Pipeline.from_script("st; partition(k=30); stitch(verify=true)").run_flow(
            small_adder
        )
        assert result.to_dict()["partition"]["final_cec"] == "equivalent"


    def test_traced_stitch_records_one_cec_span_per_guard(self, log2_test):
        from repro.obs.trace import tracing

        with tracing() as tracer:
            result = Pipeline.from_script(
                "st; partition(k=30, workers=0); saturate(iters=1, max_nodes=2000); "
                "extract(greedy); stitch"
            ).run_flow(log2_test)
        profile = result.partition_profile
        guarded = [report.cec for report in profile.windows if report.cec is not None]
        spans = [record for record in tracer.records if record.name == "check equivalence"]
        assert len(guarded) > 1
        assert [span.args["status"] for span in spans] == guarded + [profile.final_cec]
        assert all(span.category == "verify" for span in spans)
        by_id = {record.span_id: record for record in tracer.records}
        assert by_id[spans[-1].parent_id].name == "final cec"
        for span in spans:
            assert {"outputs", "structural", "sat_calls", "conflicts", "status"} <= set(span.args)
            assert span.args["structural"] + span.args["sat_calls"] <= span.args["outputs"]


class TestBench:
    def test_fast_profile_demonstrates_gap(self):
        from repro.pipeline.bench import PARTITION, check_completions, check_regressions, render_bench, run_bench

        payload = run_bench(PARTITION, fast=True)
        entry = payload["circuits"]["log2"]
        assert entry["runs"]["monolithic"]["completed"] is False
        assert entry["runs"]["monolithic"]["stop_reason"] == "node_limit"
        assert entry["runs"]["partitioned"]["completed"] is True
        assert entry["runs"]["partitioned"]["final_cec"] == "equivalent"
        assert check_completions(PARTITION, payload) == []
        assert check_regressions(payload, payload) == []
        assert "partitioned" in render_bench(PARTITION, payload)
        json.dumps(payload)


    def test_count_check_flags_moved_counts(self):
        from repro.pipeline.bench import PARTITION, check_regressions

        # A doctored copy of the checked-in reference: equal wall times, but
        # moved counts, so only the count check can catch them.
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "partition_reference.json"
        reference = json.loads(path.read_text())
        payload = json.loads(json.dumps(reference))
        assert check_regressions(payload, reference, counts=PARTITION.counts) == []
        runs = payload["circuits"]["log2"]["runs"]
        runs["partitioned"]["window_sizes"][0] -= 1
        runs["partitioned"]["status_counts"]["accepted"] += 1
        runs["partitioned"]["final_cec"] = "unknown"
        runs["monolithic"]["final_nodes"] += 1
        failures = check_regressions(payload, reference, counts=PARTITION.counts)
        assert sorted(failure.split(" ")[:2] for failure in failures) == [
            ["log2/monolithic:", "final_nodes"],
            ["log2/partitioned:", "final_cec"],
            ["log2/partitioned:", "status_counts"],
            ["log2/partitioned:", "window_sizes"],
        ]
        # Under other limits, counts are not compared.
        payload["limits"] = {**payload["limits"], "k": 30}
        assert check_regressions(payload, reference, counts=PARTITION.counts) == []


class TestStructuralUtilities:
    """AIG structural utilities the partitioner depends on."""

    def _two_output_shared(self):
        aig = Aig(name="shared")
        a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
        f = aig.add_and(a, b)
        g = aig.add_and(f, c)
        h = aig.add_and(f, a)
        aig.add_po(g, "g")
        aig.add_po(h, "h")
        aig.add_po(f, "f")  # the shared node is itself an output
        return aig, (a, b, c, f, g, h)

    def test_fanout_counts_include_po_references(self):
        aig, (a, b, c, f, g, h) = self._two_output_shared()
        counts = aig.fanout_counts()
        # f feeds g, h, and a PO: three fanouts.
        assert counts[lit_var(f)] == 3
        assert counts[lit_var(g)] == 1  # PO reference only
        assert counts[lit_var(h)] == 1
        assert counts[lit_var(a)] == 2  # f and h

    def test_levels_on_multi_output(self):
        aig, (a, b, c, f, g, h) = self._two_output_shared()
        levels = compute_levels(aig)
        assert levels[lit_var(a)] == 0
        assert levels[lit_var(f)] == 1
        assert levels[lit_var(g)] == 2
        assert levels[lit_var(h)] == 2

    def test_topological_iteration_multi_output(self):
        aig, _ = self._two_output_shared()
        order = aig.topological_order()
        position = {var: i for i, var in enumerate(order)}
        assert len(order) == aig.num_nodes
        for node in aig.and_nodes():
            assert position[lit_var(node.fanin0)] < position[node.var]
            assert position[lit_var(node.fanin1)] < position[node.var]
        # and_nodes() itself iterates in topological (creation) order.
        and_vars = [n.var for n in aig.and_nodes()]
        assert and_vars == sorted(and_vars)
