"""Batched e-matching parity, memory and wiring tests.

The core invariant: the generated matcher (:mod:`repro.engine.batched`), the
engine's only matcher, produces exactly the per-pattern reference's matches
(:func:`repro.egraph.pattern.search`) — same counts, same substitutions, same
order, same ``limit`` truncation prefix, same cuts when a substitution
frontier hits ``MAX_SUBSTITUTIONS_PER_NODE`` — on the boolean rules and on
random rule sets, so a saturation run lands on the e-graph a per-pattern loop
(:func:`reference_saturate`) reaches, under every scheduler/dedup
combination.  Plus the memory contract (one iteration's matches and one
search's scratch at a time) and the retired ``matcher=``/``index=`` knobs.
"""

from __future__ import annotations

import functools
import gc
import json
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph import pattern as pattern_module
from repro.egraph.egraph import ClassView, EGraph
from repro.egraph.language import AND, CONST0, CONST1, NOT, OR
from repro.egraph.pattern import instantiate, parse_pattern, search
from repro.egraph.rewrite import Rewrite
from repro.egraph.rules import boolean_rules
from repro.egraph.serialize import egraph_digest
from repro.engine import (
    BatchedMatcher,
    EngineLimits,
    SaturationEngine,
    compile_pattern,
    make_scheduler,
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

    def test_compiled_once_per_rule_set(self):
        # The generated source is cached per process: a second matcher over
        # an equal rule set reuses it instead of compiling again.
        assert BatchedMatcher(boolean_rules()).source is BatchedMatcher(boolean_rules()).source
        assert BatchedMatcher(boolean_rules()).source != BatchedMatcher(boolean_rules()[:5]).source


class TestMatchParity:
    """Per-rule match lists identical to the per-pattern reference."""

    def _reference(self, eg, rules, limit=None):
        return {
            i: rule.search(eg, limit=limit)
            for i, rule in enumerate(rules)
        }

    @pytest.mark.parametrize("circuit", ["adder", "mem_ctrl"])
    def test_exact_match_lists(self, circuit, as_matches):
        eg = _test_egraph(circuit)
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        batched = matcher.search(eg, range(len(rules)))
        reference = self._reference(eg, rules)
        assert as_matches(matcher, batched) == reference

    def test_parity_survives_apply_rebuild_cycles(self, as_matches):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        engine = SaturationEngine(eg, rules, limits=_limits(iters=1))
        for _ in range(2):
            batched = matcher.search(eg, range(len(rules)))
            assert as_matches(matcher, batched) == self._reference(eg, rules)
            eg.check_invariants()
            engine.run()  # one apply+rebuild round between parity checks
        batched = matcher.search(eg, range(len(rules)))
        assert as_matches(matcher, batched) == self._reference(eg, rules)
        eg.check_invariants()

    def test_limit_truncation_same_prefix(self, as_matches):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        batched = matcher.search(eg, range(len(rules)), limit=7)
        assert as_matches(matcher, batched) == self._reference(eg, rules, limit=7)

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

    def test_fallback_requires_egraph(self, as_matches):
        # A non-operator LHS root runs the per-pattern search on the e-graph
        # the matcher walks (it used to need the e-graph passed separately).
        eg = EGraph()
        eg.var("a")
        rule = Rewrite("odd-root", parse_pattern("?x"), parse_pattern("?x"))
        matcher = BatchedMatcher([rule])
        assert as_matches(matcher, matcher.search(eg, [0])) == {0: rule.search(eg)}


@functools.lru_cache(maxsize=None)
def _saturated(circuit: str, iters: int) -> EGraph:
    """A test-preset circuit after ``iters`` default-engine iterations
    (matching only reads it, so tests share one copy)."""
    eg = _test_egraph(circuit)
    SaturationEngine(eg, boolean_rules(), limits=_limits(iters=iters)).run()
    return eg


#: LHS shapes whose caps bind on the saturated test graphs where no boolean
#: rule's do: an operator edge below another operator edge (its counter
#: spans every substitution of the row), and nested keys with two operator
#: children, memoized and with a bound slot (child counters per
#: (substitution, row)).
_NESTED_CAP_SHAPES = (
    "(AND (AND ?a ?b) (AND ?c ?d))",
    "(AND (AND (AND ?a ?b) (AND ?c ?d)) ?e)",
    "(AND ?a (OR (AND ?a ?b) (AND ?c ?d)))",
    "(OR (AND ?a ?b) (OR (AND ?a ?c) (AND ?d ?e)))",
) + (
    # Consensus-shaped: a nested first child (memoized) before a later
    # operator sibling, so the generated sibling guard decides whether the
    # nested loop runs.  consensus-or without its NOT matches where the
    # boolean consensus rules never do; the NOT sibling fails the guard on
    # most rows; the last two put the guard inside a helper (a nested key
    # before a NOT sibling one level down).
    "(OR (OR (AND ?a ?b) (AND ?c ?d)) (AND ?b ?d))",
    "(OR (AND (AND ?a ?b) ?c) (AND ?d ?e))",
    "(AND (AND (NOT ?a) ?b) (NOT ?c))",
    "(AND (AND (AND (NOT ?a) ?b) (NOT ?c)) ?d)",
    "(AND ?e (AND (AND (NOT ?a) ?b) (NOT ?c)))",
)


class TestCapParity:
    """The frontier caps are exact counters: lowering
    ``MAX_SUBSTITUTIONS_PER_NODE`` until it binds everywhere still cuts the
    reference's prefixes.  The matcher reads the cap when it is built, and
    the compile cache must not serve code generated for another cap."""

    @pytest.mark.parametrize("circuit,iters", [("adder", 2), ("adder", 3), ("mem_ctrl", 2)])
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_lowered_cap_matches_reference(self, monkeypatch, circuit, iters, cap, as_matches):
        eg = _saturated(circuit, iters)
        rules = boolean_rules() + [
            Rewrite.from_strings(f"cap-{i}", shape, shape) for i, shape in enumerate(_NESTED_CAP_SHAPES)
        ]
        monkeypatch.setattr(pattern_module, "MAX_SUBSTITUTIONS_PER_NODE", cap)
        matcher = BatchedMatcher(rules)
        reference = {i: rule.search(eg) for i, rule in enumerate(rules)}
        assert as_matches(matcher, matcher.search(eg, range(len(rules)))) == reference
        # ``search(limit=n)`` stops after n matches, so its result is a prefix.
        truncated = {i: matches[:7] for i, matches in reference.items()}
        assert as_matches(matcher, matcher.search(eg, range(len(rules)), limit=7)) == truncated


#: Random rule-set ingredients: three variables (so repeats are common),
#: both constants, two VAR names of the e-graph and one it lacks.
_VARIABLES = st.sampled_from(["?a", "?b", "?c"])
_LEAVES = st.one_of(
    _VARIABLES, _VARIABLES, st.sampled_from([CONST0, CONST1, "a0", "b1", "nowhere"])
)


def _weighted(*choices):
    """Pick one strategy per draw, each listed entry equally likely (repeat
    an entry to weight it; ``one_of`` would collapse the repeats)."""
    return st.integers(0, len(choices) - 1).flatmap(lambda i: choices[i])


def _operators(depth: int):
    """Operator patterns up to ``depth`` levels deep, shaped like the AND/NOT
    nests of a converted AIG so that deep ones still match; the ``(op ?x
    deeper)`` branch grows chains deeper than any boolean rule."""
    if depth <= 1:
        below = _LEAVES
    else:
        deeper = _operators(depth - 1)
        below = _weighted(_VARIABLES, _LEAVES, deeper, deeper)
    binary = st.sampled_from([AND, AND, OR])
    return st.one_of(
        st.builds(lambda x: f"({NOT} {x})", below),
        st.builds(lambda op, x, y: f"({op} {x} {y})", binary, below, below),
        st.builds(lambda op, x, y: f"({op} {x} {y})", binary, _VARIABLES, below),
    )


@st.composite
def _rule_sets(draw):
    """Up to six LHS texts (operator roots mostly, some bare leaves for the
    fallback), a random active subset, a random limit and a substitution
    cap, lowered in half the cases so that it binds inside nested keys."""
    texts = draw(st.lists(_weighted(*[_operators(6)] * 5, _LEAVES), min_size=1, max_size=6))
    active = [i for i in range(len(texts)) if draw(st.booleans()) or i == 0]
    limit = draw(st.sampled_from([None, None, 1, 7, 60]))
    cap = draw(st.sampled_from([200, 200, 1, 2, 3]))
    return texts, active, limit, cap


#: Consensus-shaped rule sets (the two boolean consensus rules, consensus-or
#: without its NOT, and an AND consensus whose guard sibling shares a slot)
#: at every low cap, next to the random ones.
_CONSENSUS_TEXTS = [
    "(OR (OR (AND ?a ?b) (AND (NOT ?a) ?c)) (AND ?b ?c))",
    "(AND (AND (OR ?a ?b) (OR (NOT ?a) ?c)) (OR ?b ?c))",
    "(OR (OR (AND ?a ?b) (AND ?c ?d)) (AND ?b ?d))",
    "(AND (AND (AND ?a ?b) (NOT ?c)) (AND ?b ?d))",
]


@functools.lru_cache(maxsize=None)
def _random_rules_egraph() -> EGraph:
    """A small saturated e-graph with both constants, a CONST1 class that
    also holds ``(NOT CONST0)``, and a VAR leaf sharing its class with AND
    nodes, so symbol and constant leaves meet mixed classes."""
    eg = _test_egraph("adder")
    one = eg.add_term(CONST1)
    eg.union(one, eg.add_term(NOT, [eg.add_term(CONST0)]))
    eg.union(eg.var("a0"), eg.classes_with_op(AND)[0])
    eg.rebuild()
    SaturationEngine(eg, boolean_rules(), limits=_limits(iters=2, nodes=1500)).run()
    return eg


class TestRandomRuleSets:
    @given(case=_rule_sets())
    @example(case=(_CONSENSUS_TEXTS, [0, 1, 2, 3], None, 1))
    @example(case=(_CONSENSUS_TEXTS, [0, 1, 2, 3], 7, 2))
    @example(case=(_CONSENSUS_TEXTS, [0, 2, 3], None, 3))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_random_rule_sets_match_reference(self, case, as_matches):
        # Random LHS shapes: repeated variables, nesting deeper than the
        # boolean rules, constant and VAR-symbol leaves, bare-leaf roots,
        # random active subsets, limits and caps — the generated loops must
        # keep the reference's matches, order and truncation prefixes.
        texts, active, limit, cap = case
        eg = _random_rules_egraph()
        rules = [Rewrite.from_strings(f"r{i}", text, text) for i, text in enumerate(texts)]
        saved = pattern_module.MAX_SUBSTITUTIONS_PER_NODE
        pattern_module.MAX_SUBSTITUTIONS_PER_NODE = cap
        try:
            matcher = BatchedMatcher(rules)
            reference = {i: rules[i].search(eg, limit=limit) for i in active}
            found = matcher.search(eg, active, limit=limit)
        finally:
            pattern_module.MAX_SUBSTITUTIONS_PER_NODE = saved
        assert as_matches(matcher, found) == reference


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

    @pytest.mark.parametrize("scheduler", ["simple", "backoff"])
    def test_conditions_symbols_and_unsorted_names(self, scheduler):
        # The apply path without a boolean-rule safety net: variables named
        # out of sorted order (the dedup key permutes slots into sorted-name
        # order, which only shows when two rules share a name), a condition
        # (the one place a Match is built), and RHS programs with VAR
        # symbols, constants and nested operators.
        def rules():
            return [
                Rewrite.from_strings("twin", "(OR ?a ?b)", "(OR ?b ?a)"),
                Rewrite.from_strings("twin", "(OR ?b ?a)", "(AND ?a ?b)"),
                Rewrite.from_strings("comm-yx", "(AND ?y ?x)", "(AND ?x ?y)"),
                Rewrite.from_strings(
                    "assoc-zyx",
                    "(AND (AND ?z ?y) ?x)",
                    "(AND ?z (AND ?y ?x))",
                    condition=lambda egraph, match: (match.class_id + match.substitution["y"]) % 3 != 0,
                ),
                Rewrite.from_strings("push-qp", "(NOT (AND ?q ?p))", "(OR (NOT ?q) (NOT ?p))"),
                Rewrite.from_strings("odd-ba", "(AND ?b ?a)", "(OR a0 (AND ?a CONST1))"),
                Rewrite.from_strings("leaf", "?v", "(NOT (NOT ?v))"),
            ]

        reference_graph = _test_egraph("adder")
        reference = reference_saturate(reference_graph, rules(), _limits(), scheduler=scheduler)
        eg = _test_egraph("adder")
        profile = SaturationEngine(eg, rules(), limits=_limits(), scheduler=scheduler).run()
        assert egraph_digest(eg) == egraph_digest(reference_graph)
        assert _trajectory(profile) == reference
        assert sum(it.matches_deduped for it in profile.iterations) > 0

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
        # Matches are tuples, which cannot be weakly referenced, so the
        # patched search hands the engine each rule's list as a weakref-able
        # list subclass (slices, which the scheduler takes, stay tracked).
        # When the next search starts, every earlier list must be collected.
        alive_at_search = []
        refs = []
        original = BatchedMatcher.search

        class Tracked(list):
            def __getitem__(self, index):
                item = super().__getitem__(index)
                return track(item) if isinstance(index, slice) else item

        def track(matches):
            tracked = Tracked(matches)
            refs.append(weakref.ref(tracked))
            return tracked

        def tracking_search(self, *args, **kwargs):
            gc.collect()
            alive_at_search.append(sum(ref() is not None for ref in refs))
            out = original(self, *args, **kwargs)
            return {index: track(matches) for index, matches in out.items()}

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
        # per-search memos included).
        assert not [obj for obj in gc.get_objects() if isinstance(obj, ClassView)]
        assert len(reachable(matcher)) == before


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
        # A config payload round-trips; the retired matcher knobs are
        # unknown fields like a typo (no store or ledger record holds a
        # config payload to load).
        payload = EmorphicConfig().to_dict()
        assert "matcher" not in payload and "use_op_index" not in payload
        assert EmorphicConfig.from_dict(payload).to_dict() == payload
        for extra in ({"matcher": "indexed"}, {"use_op_index": False}, {"matchr": "batched"}):
            with pytest.raises(ValueError, match="unknown EmorphicConfig fields"):
                EmorphicConfig.from_dict({**payload, **extra})
