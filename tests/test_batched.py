"""Batched e-matching parity, memory and wiring tests.

The core invariant: the shared-prefix trie over the e-graph's integer rows
(:mod:`repro.engine.batched`), the engine's only matcher, produces exactly
the per-pattern reference's matches (:func:`repro.egraph.pattern.search`) —
same counts, same substitutions, same order, same ``limit`` truncation
prefix — so a saturation run lands on the e-graph a per-pattern loop
(:func:`reference_saturate`) reaches, under every scheduler/dedup
combination.  Plus the memory contract (one iteration's matches and one
search's scratch at a time) and the retired ``matcher=``/``index=`` knobs.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.egraph import ClassView, EGraph
from repro.egraph.language import AND, NOT, OR
from repro.egraph.pattern import instantiate, parse_pattern, search
from repro.egraph.rules import boolean_rules
from repro.egraph.serialize import egraph_digest
from repro.engine import (
    BatchedMatcher,
    EngineLimits,
    SaturationEngine,
    compile_pattern,
    make_scheduler,
    priorities_from_attribution,
)
from repro.flows.emorphic import EmorphicConfig
from repro.pipeline import Pipeline, PipelineError


def _test_egraph(name="adder"):
    return aig_to_egraph(epfl.build(name, preset="test")).egraph


def _limits(iters=2, nodes=6000):
    return EngineLimits(max_iterations=iters, max_nodes=nodes, time_limit=30.0)


def reference_saturate(egraph, rules, limits, scheduler="backoff", dedup=True):
    """The per-pattern saturation loop the engine must reproduce exactly.

    Each iteration searches every schedulable rule with
    :func:`repro.egraph.pattern.search`, applies rule by rule with the
    (rule, class, sorted substitution items) dedup key until the node budget
    trips, and rebuilds; stop reasons follow the engine's (no time limit).
    Returns ``(stop_reason, per-iteration records)`` shaped like
    :func:`_trajectory`.
    """
    scheduler = make_scheduler(scheduler)
    seen = set()
    records = []
    for iteration in range(limits.max_iterations):
        record = {"applied": {}, "banned": [], "skipped": [], "found": 0, "deduped": 0}
        restricted = False
        searched = []
        for rule in rules:
            if not scheduler.can_search(iteration, rule.name):
                record["banned"].append(rule.name)
                restricted = True
                continue
            matches = search(egraph, rule.lhs, limit=limits.match_limit_per_rule)
            allowed = scheduler.allowed_matches(iteration, rule.name, len(matches))
            if allowed < len(matches):
                matches = matches[:allowed]
                restricted = True
            record["found"] += len(matches)
            searched.append((rule, matches))
        tripped = False
        for rule, matches in searched:
            if tripped:
                record["skipped"].append(rule.name)
                continue
            applied = 0
            for match in matches:
                key = (rule.name, match.class_id, tuple(sorted(match.substitution.items())))
                if dedup and key in seen:
                    record["deduped"] += 1
                    continue
                if rule.condition is not None and not rule.condition(egraph, match):
                    continue
                if dedup:
                    seen.add(key)
                new_class = instantiate(egraph, rule.rhs.root, match.substitution)
                if egraph.find(new_class) != egraph.find(match.class_id):
                    egraph.union(match.class_id, new_class)
                    applied += 1
            record["applied"][rule.name] = applied
            tripped = egraph.num_nodes > limits.max_nodes
        egraph.rebuild()
        record["nodes"], record["classes"] = egraph.num_nodes, egraph.num_classes
        records.append(record)
        if sum(record["applied"].values()) == 0 and not restricted:
            return "saturated", records
        if egraph.num_nodes > limits.max_nodes:
            return "node_limit", records
        if egraph.num_classes > limits.max_classes:
            return "class_limit", records
    return "iteration_limit", records


def _trajectory(profile):
    """An engine profile in :func:`reference_saturate`'s return shape."""
    return profile.stop_reason, [
        {
            "applied": it.applied,
            "banned": it.banned,
            "skipped": it.skipped,
            "found": it.matches_found,
            "deduped": it.matches_deduped,
            "nodes": it.num_nodes,
            "classes": it.num_classes,
        }
        for it in profile.iterations
    ]


class TestCompilePattern:
    def test_slot_normalization_is_alpha_invariant(self):
        a = compile_pattern(parse_pattern(f"({AND} ?a ?b)"))
        b = compile_pattern(parse_pattern(f"({AND} ?x ?y)"))
        assert a[:2] == b[:2]
        assert a[2] == ("a", "b") and b[2] == ("x", "y")

    def test_repeated_variable_shares_slot(self):
        root_op, keys, names = compile_pattern(parse_pattern(f"({AND} ?a ?a)"))
        assert root_op == AND
        assert keys == (("var", 0), ("var", 0))
        assert names == ("a",)

    def test_nested_pattern_preorder_slots(self):
        root_op, keys, names = compile_pattern(
            parse_pattern(f"({OR} ({AND} ?a ?b) ?a)")
        )
        assert root_op == OR
        assert keys == (("op", AND, (("var", 0), ("var", 1))), ("var", 0))
        assert names == ("a", "b")

    def test_non_operator_root_falls_back(self):
        root_op, keys, names = compile_pattern(parse_pattern("?x"))
        assert root_op is None


class TestTrieSharing:
    def test_prefix_sharing_shrinks_trie(self):
        matcher = BatchedMatcher(boolean_rules())
        stats = matcher.trie_stats()
        assert stats["fallback_rules"] == 0
        assert stats["rules"] == len(boolean_rules())
        # Shared prefixes: strictly fewer roots than rules, and fewer edges
        # than the sum of standalone pattern sizes would need.
        assert stats["roots"] < stats["rules"]
        assert stats["nodes"] == stats["edges"] + stats["roots"]

    def test_priority_ordering_reorders_not_changes(self):
        rules = boolean_rules()
        eg = _test_egraph()
        active = list(range(len(rules)))
        plain = BatchedMatcher(rules).search(eg, active)
        prioritized = BatchedMatcher(
            rules, rule_priorities={rules[0].name: 100.0, rules[-1].name: 50.0}
        ).search(eg, active)
        assert plain == prioritized


class TestMatchParity:
    """Per-rule match lists identical to the per-pattern reference."""

    def _reference(self, eg, rules, limit=None):
        return {
            i: rule.search(eg, limit=limit)
            for i, rule in enumerate(rules)
        }

    @pytest.mark.parametrize("circuit", ["adder", "mem_ctrl"])
    def test_exact_match_lists(self, circuit):
        eg = _test_egraph(circuit)
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        batched = matcher.search(eg, range(len(rules)))
        reference = self._reference(eg, rules)
        assert batched == reference

    def test_parity_survives_apply_rebuild_cycles(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        engine = SaturationEngine(eg, rules, limits=_limits(iters=1))
        for _ in range(2):
            batched = matcher.search(eg, range(len(rules)))
            assert batched == self._reference(eg, rules)
            eg.check_invariants()
            engine.run()  # one apply+rebuild round between parity checks
        assert matcher.search(eg, range(len(rules))) == self._reference(eg, rules)
        eg.check_invariants()

    def test_limit_truncation_same_prefix(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        batched = matcher.search(eg, range(len(rules)), limit=7)
        assert batched == self._reference(eg, rules, limit=7)

    def test_ban_pruning_skips_inactive_rules(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        active = [0, 3, 5]
        out = matcher.search(eg, active)
        assert set(out) == set(active)
        full = matcher.search(eg, range(len(rules)))
        for index in active:
            assert out[index] == full[index]

    def test_fallback_requires_egraph(self):
        # A non-operator LHS root runs the per-pattern search on the e-graph
        # the matcher walks (it used to need the e-graph passed separately).
        eg = EGraph()
        eg.var("a")
        from repro.egraph.rewrite import Rewrite

        rule = Rewrite("odd-root", parse_pattern("?x"), parse_pattern("?x"))
        matcher = BatchedMatcher([rule])
        assert matcher.search(eg, [0]) == {0: rule.search(eg)}


class TestEngineParity:
    """Whole saturation runs: the engine equals the per-pattern loop."""

    @pytest.mark.parametrize("scheduler", ["simple", "backoff"])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_identical_final_egraph(self, scheduler, dedup):
        reference_graph = _test_egraph("adder")
        reference = reference_saturate(
            reference_graph, boolean_rules(), _limits(), scheduler=scheduler, dedup=dedup
        )
        eg = _test_egraph("adder")
        profile = SaturationEngine(
            eg, boolean_rules(), limits=_limits(), scheduler=scheduler, dedup_matches=dedup
        ).run()
        assert egraph_digest(eg) == egraph_digest(reference_graph)
        assert _trajectory(profile) == reference

    def test_batched_run_is_deterministic(self):
        def run():
            eg = _test_egraph("adder")
            SaturationEngine(eg, boolean_rules(), limits=_limits()).run()
            return egraph_digest(eg)

        assert run() == run()

    def test_profile_records_matcher(self):
        eg = _test_egraph("adder")
        profile = SaturationEngine(eg, boolean_rules(), limits=_limits(iters=1)).run()
        assert profile.matcher == "batched"
        assert json.loads(json.dumps(profile.to_dict()))["matcher"] == "batched"

    def test_match_limit_truncation_parity(self):
        limits = EngineLimits(
            max_iterations=2,
            max_nodes=6000,
            time_limit=30.0,
            match_limit_per_rule=37,
        )
        reference_graph = _test_egraph("adder")
        reference = reference_saturate(reference_graph, boolean_rules(), limits)
        eg = _test_egraph("adder")
        profile = SaturationEngine(eg, boolean_rules(), limits=limits).run()
        assert egraph_digest(eg) == egraph_digest(reference_graph)
        assert _trajectory(profile) == reference


class TestMemory:
    """One iteration's matches and one search's scratch are alive at a time."""

    def test_matches_die_before_next_search(self, monkeypatch):
        # Weakrefs to every Match each search returns; when the next search
        # starts, every earlier one must have been collected.
        alive_at_search = []
        refs = []
        original = BatchedMatcher.search

        def tracking_search(self, *args, **kwargs):
            gc.collect()
            alive_at_search.append(sum(ref() is not None for ref in refs))
            out = original(self, *args, **kwargs)
            refs.extend(weakref.ref(m) for matches in out.values() for m in matches)
            return out

        monkeypatch.setattr(BatchedMatcher, "search", tracking_search)
        eg = _test_egraph("adder")
        SaturationEngine(eg, boolean_rules(), limits=_limits(iters=3)).run()
        assert len(alive_at_search) == 3 and refs
        assert alive_at_search == [0, 0, 0]

    def test_search_keeps_no_scratch(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)

        def reachable(root):
            seen, stack = set(), [root]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, type):
                    continue
                seen.add(id(obj))
                stack.extend(gc.get_referents(obj))
            return seen

        before = len(reachable(matcher))
        out = matcher.search(eg, range(len(rules)))
        assert sum(map(len, out.values())) > 0
        del out
        gc.collect()
        # No class views anywhere, and nothing new hangs off the matcher (the
        # per-search bind cache included).
        assert not [obj for obj in gc.get_objects() if isinstance(obj, ClassView)]
        assert len(reachable(matcher)) == before


class TestPriorities:
    def test_from_attribution_dict(self):
        payload = {
            "rules": {
                "and-comm": {"surviving_ands": 12},
                "or-comm": {"surviving_ands": 0},
                "original": {"surviving_ands": 99},
            }
        }
        priorities = priorities_from_attribution(payload)
        assert priorities == {"and-comm": 12.0, "or-comm": 0.0}

    def test_from_attribution_object(self):
        class Fake:
            def to_dict(self):
                return {"rules": {"not-not": {"surviving_ands": 3}}}

        assert priorities_from_attribution(Fake()) == {"not-not": 3.0}


class TestWiring:
    def test_pipeline_saturate_matcher_param(self):
        # The saturate pass leaves the e-graph it matched over with no
        # observer attached and its storage invariants intact, for
        # ``extract`` to snapshot.
        pipe = Pipeline.from_script(
            "strash; premap; dag2eg; saturate(iters=1); extract(method=greedy); map"
        )
        ctx = pipe.run(epfl.build("adder", preset="test"))
        assert ctx.circuit.egraph.num_nodes > ctx.metrics["egraph_initial_nodes"]
        assert ctx.circuit.egraph.observers == []
        ctx.circuit.egraph.check_invariants()

    def test_pipeline_rejects_unknown_matcher(self):
        # The matcher knobs are retired: scripts naming them fail loudly.
        for params in ("matcher=batched", "index=false"):
            with pytest.raises(PipelineError, match="has no parameter"):
                Pipeline.from_script(f"strash; dag2eg; saturate(iters=1, {params})").run(
                    epfl.build("adder", preset="test")
                )

    def test_emorphic_config_round_trip(self):
        # A config payload from before the matcher knobs were retired (as
        # stored in result stores and run ledgers) still loads.
        payload = EmorphicConfig().to_dict()
        assert "matcher" not in payload and "use_op_index" not in payload
        old = {**payload, "matcher": "indexed", "use_op_index": False}
        config = EmorphicConfig.from_dict(old)
        assert config.to_dict() == payload
        with pytest.raises(ValueError, match="unknown EmorphicConfig fields"):
            EmorphicConfig.from_dict({**payload, "matchr": "batched"})
