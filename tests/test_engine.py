"""Tests of the saturation engine: op buckets, schedulers, dedup, telemetry.

Includes the randomized e-graph invariant suite: seeded add/union/rebuild
sequences asserting hashcons consistency, congruence closure, the O(1)
class/node counters, and agreement of the e-graph's per-operator class
buckets (the matcher's op index) with a from-scratch scan.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.egraph import EGraph
from repro.egraph.language import AND, NOT, OR, VAR
from repro.egraph.pattern import parse_pattern, search
from repro.egraph.rewrite import Rewrite
from repro.egraph.rules import boolean_rules, rules_by_name
from repro.egraph.serialize import egraph_digest
from repro.egraph.egraph import op_name
from repro.engine import (
    BackoffScheduler,
    BatchedMatcher,
    EngineLimits,
    SaturationEngine,
    SimpleScheduler,
    make_scheduler,
    saturate_engine,
)
from repro.pipeline.bench import SATURATION, check_regressions, render_bench, run_bench


def _diamond_egraph():
    eg = EGraph()
    a, b, c, d = (eg.var(x) for x in "abcd")
    x = eg.add_term(OR, [eg.add_term(AND, [a, b]), eg.add_term(AND, [c, d])])
    eg.add_term(NOT, [x])
    return eg


def _op_buckets(egraph):
    """The e-graph's op index: operator name -> canonical class ids."""
    return {op_name(oid): frozenset(ids) for oid, ids in egraph.by_op.items() if ids}


def _scratch_buckets(egraph):
    """The same map built by a full scan of the canonical nodes (the oracle)."""
    by_op = {}
    for class_id, node in egraph.enodes():
        by_op.setdefault(node.op, set()).add(class_id)
    return {op: frozenset(ids) for op, ids in by_op.items()}


# --------------------------------------------------------------------------
# Randomized invariants: hashcons, congruence, counters, op-bucket agreement.


class TestRandomizedInvariants:
    # Seed 40 regresses the node counter if _repair dedups a class that its
    # own congruence unions merged away (double-subtraction).
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 40, 42])
    def test_random_add_union_rebuild(self, seed):
        rng = random.Random(seed)
        eg = EGraph()
        classes = [eg.var(f"v{i}") for i in range(4)]
        for step in range(120):
            action = rng.random()
            if action < 0.55:
                op = rng.choice([AND, OR, NOT])
                arity = 1 if op == NOT else 2
                children = [rng.choice(classes) for _ in range(arity)]
                classes.append(eg.add_term(op, children))
            elif action < 0.8:
                a, b = rng.choice(classes), rng.choice(classes)
                eg.union(a, b)
            else:
                eg.rebuild()
        eg.rebuild()
        eg.check_invariants()  # hashcons + congruence + O(1) counters
        assert _op_buckets(eg) == _scratch_buckets(eg)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_index_agreement_through_saturation(self, seed):
        rng = random.Random(seed)
        eg = EGraph()
        leaves = [eg.var(f"v{i}") for i in range(3)]
        for _ in range(25):
            op = rng.choice([AND, OR])
            eg.add_term(op, [rng.choice(leaves), rng.choice(leaves)])
        saturate_engine(
            eg,
            boolean_rules(include_expansion=False),
            EngineLimits(max_iterations=3, max_nodes=4_000),
        )
        eg.check_invariants()
        assert _op_buckets(eg) == _scratch_buckets(eg)

    def test_counters_match_recomputation(self):
        eg = _diamond_egraph()
        saturate_engine(
            eg,
            boolean_rules(),
            EngineLimits(max_iterations=2, max_nodes=3_000),
            scheduler="simple",
            dedup_matches=False,
        )
        classes = eg.class_ids()
        assert eg.num_classes == len(classes)
        assert eg.num_nodes == sum(len(eg.nodes_of(cid)) for cid in classes)


class TestOpIndex:
    """The e-graph's per-operator class buckets, which pick the candidate
    classes of every trie root in the batched matcher."""

    def test_tracks_adds(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        ab = eg.add_term(AND, [a, b])
        assert eg.classes_with_op(AND) == [ab]
        assert _op_buckets(eg) == _scratch_buckets(eg)

    def test_union_moves_ops(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        ab = eg.add_term(AND, [a, b])
        ob = eg.add_term(OR, [a, b])
        root = eg.union(ab, ob)
        eg.rebuild()
        assert eg.classes_with_op(AND) == [root]
        assert eg.classes_with_op(OR) == [root]
        assert _op_buckets(eg) == _scratch_buckets(eg)

    def test_candidates_restrict_search(self, as_matches):
        eg = _diamond_egraph()
        rule = Rewrite.from_strings("not-root", "(NOT ?x)", "(NOT ?x)")
        candidates = eg.classes_with_op(NOT)
        matcher = BatchedMatcher([rule])
        batched = as_matches(matcher, matcher.search(eg, [0]))[0]
        full = search(eg, rule.lhs)
        assert [(m.class_id, m.substitution) for m in full] == [
            (m.class_id, m.substitution) for m in batched
        ]
        assert len(candidates) < len(eg.class_ids())

    def test_variable_root_means_all_classes(self):
        # A bare-variable LHS has no root operator to bucket by: the matcher
        # falls back to scanning every class.
        eg = _diamond_egraph()
        rule = Rewrite.from_strings("any", "?x", "?x")
        matches = BatchedMatcher([rule]).search(eg, [0])[0]
        assert [class_id for class_id, _ in matches] == eg.class_ids()
        assert all(slots == (class_id,) for class_id, slots in matches)


# --------------------------------------------------------------------------
# Determinism (seeded runs must reproduce identical e-graphs).


class TestDeterminism:
    def test_search_truncation_is_sorted(self):
        eg = _diamond_egraph()
        matches = search(eg, parse_pattern("?x"), limit=3)
        ids = [m.class_id for m in matches]
        assert ids == sorted(ids)
        assert ids == sorted(eg.class_ids())[:3]

    @pytest.mark.parametrize("scheduler", ["simple", "backoff"])
    def test_repeated_runs_identical_digest(self, scheduler):
        def run():
            eg = _diamond_egraph()
            saturate_engine(
                eg,
                boolean_rules(),
                EngineLimits(max_iterations=3, max_nodes=2_000, match_limit_per_rule=40),
                scheduler=scheduler,
            )
            return egraph_digest(eg)

        assert run() == run()


# --------------------------------------------------------------------------
# Legacy parity: SimpleScheduler without dedup is byte-for-byte the old loop.


class TestLegacyParity:
    def test_legacy_report_surface_preserved(self):
        eg = _diamond_egraph()
        report = saturate_engine(
            eg,
            rules_by_name(["and-comm"]),
            EngineLimits(max_iterations=10),
            scheduler="simple",
            dedup_matches=False,
        )
        assert report.stop_reason == "saturated"
        assert report.num_iterations < 10
        assert report.final_classes > 0 and report.final_nodes > 0
        assert report.iterations[0].applied["and-comm"] >= 1


# --------------------------------------------------------------------------
# Scheduling.


class TestSchedulers:
    def test_make_scheduler(self):
        assert isinstance(make_scheduler("simple"), SimpleScheduler)
        assert isinstance(make_scheduler("backoff"), BackoffScheduler)
        assert isinstance(make_scheduler(None), BackoffScheduler)
        with pytest.raises(ValueError):
            make_scheduler("nope")
        with pytest.raises(TypeError):
            make_scheduler(object())

    def test_backoff_bans_overmatching_rule(self):
        scheduler = BackoffScheduler(match_limit=10, ban_length=2)
        assert scheduler.allowed_matches(0, "boom", 25) == 10
        assert not scheduler.can_search(1, "boom")
        assert scheduler.stats["boom"].banned_until > 1
        # Ban expires, threshold doubles.
        ban_end = scheduler.stats["boom"].banned_until
        assert scheduler.can_search(ban_end, "boom")
        assert scheduler.allowed_matches(ban_end, "boom", 15) == 15

    def test_backoff_engine_records_bans(self):
        eg = _diamond_egraph()
        profile = saturate_engine(
            eg,
            boolean_rules(),
            EngineLimits(max_iterations=4, max_nodes=50_000),
            scheduler=BackoffScheduler(match_limit=5, ban_length=1),
        )
        banned = [name for name, rule in profile.rules.items() if rule.banned_iterations]
        assert banned, "tiny match limit must ban at least one rule"
        assert any(it.banned for it in profile.iterations)

    def test_quiet_iteration_with_bans_is_not_saturation(self):
        # One explosive rule that gets banned and a rule that never matches:
        # the engine must keep iterating until the ban expires, not declare
        # saturation during the quiet window.
        eg = _diamond_egraph()
        rules = [
            Rewrite.from_strings("comm", "(AND ?a ?b)", "(AND ?b ?a)"),
        ]
        profile = saturate_engine(
            eg,
            rules,
            EngineLimits(max_iterations=6, max_nodes=50_000),
            scheduler=BackoffScheduler(match_limit=1, ban_length=1),
        )
        quiet_restricted = [
            i
            for i, it in enumerate(profile.iterations)
            if sum(it.applied.values()) == 0 and it.banned
        ]
        assert quiet_restricted, "the tiny limit must produce a quiet banned iteration"
        # The run continued past every quiet-but-banned iteration.
        assert all(i < profile.num_iterations - 1 for i in quiet_restricted)
        if profile.stop_reason == "saturated":
            last = profile.iterations[-1]
            assert not last.banned and sum(last.applied.values()) == 0


# --------------------------------------------------------------------------
# Input validation: limits and rules are checked before any e-graph work.


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_iterations", -1),
            ("max_nodes", -1),
            ("max_classes", -1),
            ("time_limit", -0.5),
            ("match_limit_per_rule", 0),
            ("match_limit_per_rule", -5),
        ],
    )
    def test_engine_limits_reject_invalid(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineLimits(**{field: value})

    def test_engine_limits_accept_zero_budgets(self):
        # Zero iterations (or a zero node budget) is a legal, if idle, run.
        eg = _diamond_egraph()
        profile = saturate_engine(eg, boolean_rules(), EngineLimits(max_iterations=0))
        assert profile.num_iterations == 0 and profile.stop_reason == "iteration_limit"
        EngineLimits(max_nodes=0, max_classes=0, time_limit=0.0, match_limit_per_rule=1)

    def test_rhs_variable_unbound_by_lhs_rejected(self):
        # Such a rule used to fail mid-apply with a bare KeyError, leaving a
        # grown e-graph with classes on the worklist; now the rule itself
        # cannot be built.
        with pytest.raises(ValueError, match=r"'bad'.*\?c"):
            Rewrite.from_strings("bad", "(AND ?a ?b)", "(OR ?a ?c)")
        with pytest.raises(ValueError, match=r"\?x, \?y"):
            Rewrite.from_strings("worse", "CONST0", "(AND ?x (NOT ?y))")
        Rewrite.from_strings("fine", "(AND ?a ?b)", "(OR ?b CONST1)")


# --------------------------------------------------------------------------
# Match dedup and the node-budget skip accounting (ISSUE satellites).


class TestDedupAndSkips:
    def test_dedup_skips_reapplied_matches(self):
        eg = _diamond_egraph()
        profile = saturate_engine(
            eg,
            boolean_rules(include_expansion=False),
            EngineLimits(max_iterations=4, max_nodes=50_000),
            scheduler="simple",
            dedup_matches=True,
        )
        assert sum(it.matches_deduped for it in profile.iterations) > 0
        eg.check_invariants()

    def test_dedup_preserves_discovered_equalities(self):
        eg1, eg2 = _diamond_egraph(), _diamond_egraph()
        limits = EngineLimits(max_iterations=3, max_nodes=100_000)
        saturate_engine(eg1, boolean_rules(), limits, scheduler="simple", dedup_matches=False)
        saturate_engine(eg2, boolean_rules(), limits, scheduler="simple", dedup_matches=True)
        # Without a node budget truncating growth the results are identical.
        assert egraph_digest(eg1) == egraph_digest(eg2)

    def test_rerun_resets_dedup_state(self):
        # A second run() on the same engine must not inherit the first run's
        # seen-set: its profile counts real (if no-op) matches, not dedups.
        eg = _diamond_egraph()
        engine = SaturationEngine(
            eg,
            boolean_rules(include_expansion=False),
            EngineLimits(max_iterations=2, max_nodes=50_000),
            scheduler="simple",
        )
        engine.run()
        second = engine.run()
        assert second.iterations[0].matches_found > 0
        assert second.iterations[0].matches_deduped == 0

    def test_budget_tripped_rules_recorded_as_skipped(self):
        eg = _diamond_egraph()
        profile = saturate_engine(
            eg,
            boolean_rules(),
            EngineLimits(max_iterations=3, max_nodes=60),
            scheduler="simple",
        )
        assert profile.stop_reason == "node_limit"
        tripped = profile.iterations[-1]
        assert tripped.skipped, "rules past the node budget must be recorded"
        # Reports are complete: every searched rule is either applied or skipped.
        rule_names = {rule.name for rule in boolean_rules()}
        assert set(tripped.applied) | set(tripped.skipped) | set(tripped.banned) == rule_names
        skipped_stats = [profile.rules[name] for name in tripped.skipped]
        assert all(stats.skipped_iterations >= 1 for stats in skipped_stats)


# --------------------------------------------------------------------------
# Telemetry.


class TestTelemetry:
    def _profile(self):
        eg = _diamond_egraph()
        return saturate_engine(
            eg, boolean_rules(), EngineLimits(max_iterations=2, max_nodes=5_000)
        )

    def test_profile_counters(self):
        profile = self._profile()
        assert profile.scheduler == "backoff"
        assert profile.matcher == "batched" and profile.dedup
        assert profile.total_matches > 0
        assert profile.total_applications > 0
        assert profile.search_time() >= 0 and profile.apply_time() >= 0
        assert len(profile.growth_curve()) == profile.num_iterations

    def test_profile_json_roundtrip(self):
        profile = self._profile()
        payload = profile.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["stop_reason"] == profile.stop_reason
        assert payload["num_iterations"] == len(payload["iterations"]) == profile.num_iterations
        assert payload["final_nodes"] == profile.final_nodes
        assert set(payload["rules"]) == set(profile.rules)

    def test_pipeline_saturate_pass_reports_engine_metrics(self):
        from repro.pipeline import Pipeline

        aig = epfl.build("adder", preset="test")
        result = Pipeline.from_script(
            "st; dag2eg; saturate(iters=2, max_nodes=3000, scheduler=backoff)"
        ).run_flow(aig)
        assert result.metrics["saturation_scheduler"] == "backoff"
        assert result.metrics["saturation_matches"] > 0
        assert result.rewrite_report is not None
        assert result.to_dict()["saturation"]["scheduler"] == "backoff"

    def test_pipeline_saturate_rejects_unknown_scheduler(self):
        from repro.pipeline import Pipeline, PipelineError

        aig = epfl.build("adder", preset="test")
        with pytest.raises(PipelineError):
            Pipeline.from_script("st; dag2eg; saturate(scheduler=alien)").run_flow(aig)

    def test_emorphic_result_carries_saturation_profile(self):
        from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow

        config = EmorphicConfig.fast()
        config.rewrite_iterations = 2
        config.max_egraph_nodes = 2_000
        config.num_threads = 1
        config.sa_iterations = 1
        result = run_emorphic_flow(epfl.build("adder", preset="test"), config)
        payload = result.to_dict()
        assert payload["saturation"]["scheduler"] == "backoff"
        assert payload["saturation"]["num_iterations"] >= 1

    def test_emorphic_config_roundtrips_engine_fields(self):
        from repro.flows.emorphic import EmorphicConfig

        config = EmorphicConfig(scheduler="simple", dedup_matches=False)
        back = EmorphicConfig.from_dict(config.to_dict())
        assert back.scheduler == "simple"
        assert not back.dedup_matches


# --------------------------------------------------------------------------
# Extraction repair: saturation merging original classes must not produce
# cyclic extractions (which used to hang extraction_to_aig forever).


class TestExtractionRepair:
    def _absorbed_circuit(self):
        from repro.conversion.dag2eg import CircuitEGraph
        from repro.egraph.egraph import ENode

        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        or_ab = eg.add_term(OR, [a, b])
        expr = eg.add_term(AND, [a, or_ab])
        # Record the root's choice FIRST so the post-merge collision keeps the
        # self-referential AND node — the worst case for the repair.
        original_choice = {
            expr: ENode(op=AND, children=(a, or_ab)),
            a: ENode(op=VAR, payload="a"),
            b: ENode(op=VAR, payload="b"),
            or_ab: ENode(op=OR, children=(a, b)),
        }
        circuit = CircuitEGraph(
            egraph=eg,
            output_classes=[expr],
            output_names=["f"],
            input_names=["a", "b"],
            original_choice=original_choice,
        )
        return circuit, a, expr

    def test_original_extraction_repaired_after_merge(self):
        circuit, a, expr = self._absorbed_circuit()
        eg = circuit.egraph
        # Absorption: a AND (a OR b) == a — merges the root with the input.
        saturate_engine(eg, [Rewrite.from_strings("absorb", "(AND ?x (OR ?x ?y))", "?x")],
                        EngineLimits(max_iterations=3))
        assert eg.find(expr) == eg.find(a)
        extraction = circuit.original_extraction()
        # The repaired choice must terminate: the merged class cannot keep the
        # AND node that now references its own class.
        aig = extraction_to_aig(circuit, extraction, name="repaired")
        assert aig.stats()["pos"] == 1

    def test_extraction_to_aig_raises_on_cycle(self):
        from repro.egraph.egraph import ENode

        circuit, a, expr = self._absorbed_circuit()
        eg = circuit.egraph
        saturate_engine(eg, [Rewrite.from_strings("absorb", "(AND ?x (OR ?x ?y))", "?x")],
                        EngineLimits(max_iterations=3))
        root = eg.find(expr)
        cyclic = circuit.original_extraction()
        cyclic[root] = ENode(op=AND, children=(root, eg.find(a)))
        with pytest.raises((ValueError, KeyError)):
            extraction_to_aig(circuit, cyclic, name="cyclic")

    def test_fast_flow_completes_with_backoff(self):
        # Regression: the fast-profile emorphic flow used to hang when the
        # seed extraction turned cyclic after saturation merged original
        # classes (exposed by the backoff scheduler's broader rule coverage).
        from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow

        config = EmorphicConfig.fast()
        config.num_threads = 1
        config.sa_iterations = 1
        result = run_emorphic_flow(epfl.build("adder", preset="test"), config)
        assert result.delay > 0


# --------------------------------------------------------------------------
# The saturation bench and its regression gate.


class TestSaturationBench:
    def test_fast_bench_payload(self):
        payload = run_bench(SATURATION, circuits=["adder"], fast=True)
        entry = payload["circuits"]["adder"]
        assert set(entry["runs"]) == {"simple", "backoff"}
        for run in entry["runs"].values():
            assert run["wall_time"] > 0
            assert run["extraction_cec"] in ("equivalent", "unknown")
            assert run["extraction_cec"] != "counterexample"
        assert set(entry["speedup"]) == {"backoff"}
        assert payload["summary"]["geomean_speedup"]["backoff"] > 0
        assert entry["provenance"]["overhead_vs_engine"] > 0
        json.dumps(payload)  # JSON-serializable end to end
        assert "adder" in render_bench(SATURATION, payload)

    def test_regression_check(self):
        payload = {
            "circuits": {
                "adder": {
                    "runs": {
                        "engine": {"wall_time": 10.0, "extraction_cec": "equivalent"},
                        "legacy": {"wall_time": 1.0, "extraction_cec": "equivalent"},
                    }
                }
            }
        }
        reference = {
            "circuits": {
                "adder": {
                    "runs": {
                        "engine": {"wall_time": 1.0, "extraction_cec": "equivalent"},
                        "legacy": {"wall_time": 1.0, "extraction_cec": "equivalent"},
                        "ghost": {"wall_time": 1.0},
                    }
                },
                "missing": {"runs": {"engine": {"wall_time": 1.0}}},
            }
        }
        failures = check_regressions(payload, reference, max_ratio=2.0)
        assert len(failures) == 1 and "adder/engine" in failures[0]
        assert not check_regressions(reference, reference)

    def test_count_check_flags_moved_counts(self):
        # A doctored copy of the checked-in reference: equal wall times, but
        # one count moved per field, so only the count check can catch them.
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "saturation_reference.json"
        reference = json.loads(path.read_text())
        payload = json.loads(json.dumps(reference))
        assert check_regressions(payload, reference, counts=SATURATION.counts) == []
        run = payload["circuits"]["log2"]["runs"]["backoff"]
        run["total_matches"] += 1
        run["growth_curve"][-1]["nodes"] -= 1
        run["stop_reason"] = "time_limit"
        del run["extraction_levels"]  # a --no-cec run carries no QoR counts
        failures = check_regressions(payload, reference, counts=SATURATION.counts)
        assert [failure.split(" ")[:2] for failure in failures] == [
            ["log2/backoff:", "stop_reason"],
            ["log2/backoff:", "total_matches"],
            ["log2/backoff:", "growth_curve"],
        ]
        # Without ``counts`` or under other limits, counts are not compared.
        assert check_regressions(payload, reference) == []
        payload["limits"] = {**payload["limits"], "iters": 2}
        assert check_regressions(payload, reference, counts=SATURATION.counts) == []

    def test_cec_guard_flags_counterexample(self):
        payload = {
            "circuits": {
                "c": {"runs": {"engine": {"wall_time": 1.0, "extraction_cec": "counterexample"}}}
            }
        }
        reference = {
            "circuits": {
                "c": {"runs": {"engine": {"wall_time": 1.0, "extraction_cec": "equivalent"}}}
            }
        }
        assert check_regressions(payload, reference) == ["c/engine: extraction no longer equivalent"]

    def test_engine_extraction_cec_equivalent_on_benchgen(self):
        # The acceptance guard at test scale: saturate with the full engine,
        # extract, and SAT-check equivalence against the input circuit.
        from repro.extraction.cost import DepthCost
        from repro.extraction.greedy import greedy_extract
        from repro.verify.cec import check_equivalence

        aig = epfl.build("multiplier", preset="test")
        circuit = aig_to_egraph(aig)
        saturate_engine(
            circuit.egraph,
            boolean_rules(),
            EngineLimits(max_iterations=3, max_nodes=6_000),
            scheduler="backoff",
        )
        extraction = greedy_extract(circuit.egraph, cost=DepthCost())
        extracted = extraction_to_aig(circuit, extraction, name="sat").strash()
        assert check_equivalence(aig, extracted, conflict_budget=50_000).status == "equivalent"
