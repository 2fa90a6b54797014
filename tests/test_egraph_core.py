"""Tests of the e-graph engine: union-find, hashcons, congruence, e-matching."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import AND, CONST0, CONST1, NOT, OR, VAR, is_leaf_op, op_arity, op_cost
from repro.egraph.pattern import parse_pattern, search
from repro.egraph.rewrite import Rewrite, bidirectional
from repro.egraph.rules import boolean_rules, rule_names, rules_by_name
from repro.engine import EngineLimits, saturate_engine
from repro.egraph.serialize import egraph_from_dsl, egraph_to_dsl
from repro.egraph.unionfind import UnionFind


class TestUnionFind:
    def test_singletons_are_their_own_roots(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(5)]
        assert all(uf.find(i) == i for i in ids)
        assert uf.num_sets() == 5

    def test_union_merges(self):
        uf = UnionFind()
        a, b, c = (uf.make_set() for _ in range(3))
        uf.union(a, b)
        assert uf.in_same_set(a, b)
        assert not uf.in_same_set(a, c)
        assert uf.num_sets() == 2

    def test_union_is_idempotent(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        r1 = uf.union(a, b)
        r2 = uf.union(a, b)
        assert r1 == r2

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_transitive_closure_matches_naive(self, pairs):
        uf = UnionFind()
        for _ in range(20):
            uf.make_set()
        naive = {i: {i} for i in range(20)}
        for a, b in pairs:
            uf.union(a, b)
            merged = naive[a] | naive[b]
            for member in merged:
                naive[member] = merged
        for i in range(20):
            for j in range(20):
                assert uf.in_same_set(i, j) == (j in naive[i])


class TestLanguage:
    def test_arity(self):
        assert op_arity(AND) == 2
        assert op_arity(NOT) == 1
        assert op_arity(VAR) == 0

    def test_leaf_ops(self):
        assert is_leaf_op(VAR) and is_leaf_op(CONST0) and is_leaf_op(CONST1)
        assert not is_leaf_op(AND)

    def test_costs(self):
        assert op_cost(AND) > 0
        assert op_cost(NOT) == 0


class TestEGraph:
    def test_add_hashconses(self):
        eg = EGraph()
        a = eg.var("a")
        b = eg.var("b")
        n1 = eg.add_term(AND, [a, b])
        n2 = eg.add_term(AND, [a, b])
        assert n1 == n2
        assert eg.num_classes == 3

    def test_var_lookup_is_stable(self):
        eg = EGraph()
        assert eg.var("x") == eg.var("x")

    def test_union_merges_classes(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        and_ab = eg.add_term(AND, [a, b])
        or_ab = eg.add_term(OR, [a, b])
        before = eg.num_classes
        eg.union(and_ab, or_ab)
        eg.rebuild()
        assert eg.num_classes == before - 1
        assert eg.find(and_ab) == eg.find(or_ab)

    def test_congruence_closure(self):
        # If a == b then f(a) == f(b) after rebuild.
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        not_a = eg.add_term(NOT, [a])
        not_b = eg.add_term(NOT, [b])
        assert eg.find(not_a) != eg.find(not_b)
        eg.union(a, b)
        eg.rebuild()
        assert eg.find(not_a) == eg.find(not_b)
        eg.check_invariants()

    def test_congruence_cascades_upward(self):
        eg = EGraph()
        a, b, c = eg.var("a"), eg.var("b"), eg.var("c")
        f1 = eg.add_term(AND, [eg.add_term(NOT, [a]), c])
        f2 = eg.add_term(AND, [eg.add_term(NOT, [b]), c])
        eg.union(a, b)
        eg.rebuild()
        assert eg.find(f1) == eg.find(f2)

    def test_invariants_checker_detects_no_issue_after_use(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        eg.add_term(AND, [a, b])
        eg.union(a, b)
        eg.rebuild()
        eg.check_invariants()

    def test_add_term_arity_check(self):
        eg = EGraph()
        a = eg.var("a")
        with pytest.raises(ValueError):
            eg.add_term(AND, [a])

    def test_stats(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        eg.add_term(AND, [a, b])
        stats = eg.stats()
        assert stats["classes"] == 3
        assert stats["vars"] == 2


class TestPatternMatching:
    def _simple_graph(self):
        eg = EGraph()
        a, b, c = eg.var("a"), eg.var("b"), eg.var("c")
        ab = eg.add_term(AND, [a, b])
        root = eg.add_term(AND, [ab, c])
        return eg, a, b, c, ab, root

    def test_parse_pattern_variables(self):
        pattern = parse_pattern("(AND ?x (OR ?y ?x))")
        assert pattern.variables == ["x", "y"]

    def test_parse_pattern_arity_error(self):
        with pytest.raises(ValueError):
            parse_pattern("(AND ?x)")

    def test_search_finds_nested_match(self):
        eg, a, b, c, ab, root = self._simple_graph()
        pattern = parse_pattern("(AND (AND ?x ?y) ?z)")
        matches = search(eg, pattern)
        assert any(eg.find(m.class_id) == eg.find(root) for m in matches)

    def test_search_binds_consistently(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        aa = eg.add_term(AND, [a, a])
        ab = eg.add_term(AND, [a, b])
        pattern = parse_pattern("(AND ?x ?x)")
        matches = search(eg, pattern)
        matched_classes = {eg.find(m.class_id) for m in matches}
        assert eg.find(aa) in matched_classes
        assert eg.find(ab) not in matched_classes

    def test_symbol_pattern_matches_specific_var(self):
        eg, a, b, c, ab, root = self._simple_graph()
        pattern = parse_pattern("(AND a ?y)")
        matches = search(eg, pattern)
        assert any(eg.find(m.class_id) == eg.find(ab) for m in matches)

    def test_search_limit(self):
        eg, *_ = self._simple_graph()
        pattern = parse_pattern("?x")
        assert len(search(eg, pattern, limit=2)) == 2


class TestRewrite:
    def test_commutativity_creates_equivalence(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        ab = eg.add_term(AND, [a, b])
        rule = Rewrite.from_strings("and-comm", "(AND ?x ?y)", "(AND ?y ?x)")
        applied = rule.apply(eg, rule.search(eg))
        eg.rebuild()
        ba = eg.add_term(AND, [b, a])
        assert eg.find(ab) == eg.find(ba)
        assert applied >= 1

    def test_conditional_rule_respected(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        eg.add_term(AND, [a, b])
        rule = Rewrite.from_strings(
            "never", "(AND ?x ?y)", "(OR ?x ?y)", condition=lambda egraph, match: False
        )
        assert rule.apply(eg, rule.search(eg)) == 0

    def test_bidirectional_builds_two_rules(self):
        fwd, rev = bidirectional("demorgan", "(NOT (AND ?a ?b))", "(OR (NOT ?a) (NOT ?b))")
        assert fwd.name == "demorgan"
        assert rev.name == "demorgan-rev"

    def test_absorption_rule_shrinks_extraction(self):
        # a AND (a OR b) == a
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        expr = eg.add_term(AND, [a, eg.add_term(OR, [a, b])])
        rules = rules_by_name(["absorb-and"])
        saturate_engine(
            eg,
            rules,
            EngineLimits(max_iterations=3),
            scheduler="simple",
            dedup_matches=False,
        )
        assert eg.find(expr) == eg.find(a)


class TestRules:
    def test_rule_names_unique(self):
        names = rule_names()
        assert len(names) == len(set(names))

    def test_rules_by_name_unknown(self):
        with pytest.raises(KeyError):
            rules_by_name(["nonexistent-rule"])

    def test_expansion_toggle_changes_count(self):
        assert len(boolean_rules(include_expansion=True)) > len(boolean_rules(include_expansion=False))

    def test_demorgan_equivalence(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        lhs = eg.add_term(NOT, [eg.add_term(AND, [a, b])])
        rhs = eg.add_term(OR, [eg.add_term(NOT, [a]), eg.add_term(NOT, [b])])
        saturate_engine(
            eg,
            boolean_rules(),
            EngineLimits(max_iterations=3, max_nodes=5000),
            scheduler="simple",
            dedup_matches=False,
        )
        assert eg.find(lhs) == eg.find(rhs)

    def test_constant_folding(self):
        eg = EGraph()
        a = eg.var("a")
        const1 = eg.add_term(CONST1)
        expr = eg.add_term(AND, [a, const1])
        saturate_engine(
            eg,
            boolean_rules(),
            EngineLimits(max_iterations=2),
            scheduler="simple",
            dedup_matches=False,
        )
        assert eg.find(expr) == eg.find(a)


class TestRunner:
    def test_saturation_stops(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        eg.add_term(AND, [a, b])
        report = saturate_engine(
            eg,
            rules_by_name(["and-comm"]),
            EngineLimits(max_iterations=10),
            scheduler="simple",
            dedup_matches=False,
        )
        assert report.stop_reason == "saturated"
        assert report.num_iterations < 10

    def test_node_limit_respected(self):
        eg = EGraph()
        a, b, c, d = (eg.var(x) for x in "abcd")
        eg.add_term(OR, [eg.add_term(AND, [a, b]), eg.add_term(AND, [c, d])])
        report = saturate_engine(
            eg,
            boolean_rules(),
            EngineLimits(max_iterations=50, max_nodes=60),
            scheduler="simple",
            dedup_matches=False,
        )
        assert report.stop_reason in ("node_limit", "class_limit", "saturated")

    def test_iteration_reports_populated(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        eg.add_term(AND, [a, b])
        report = saturate_engine(
            eg,
            boolean_rules(),
            EngineLimits(max_iterations=2, max_nodes=10_000),
            scheduler="simple",
            dedup_matches=False,
        )
        assert report.num_iterations >= 1
        assert report.iterations[0].num_classes > 0
        assert report.total_time >= 0


class TestSerialize:
    def _circuit_egraph(self):
        eg = EGraph()
        a, b, c = eg.var("a"), eg.var("b"), eg.var("c")
        ab = eg.add_term(AND, [a, b])
        ac = eg.add_term(AND, [a, c])
        eg.add_term(OR, [ab, ac])
        return eg

    def test_roundtrip_preserves_structure(self):
        eg = self._circuit_egraph()
        text = egraph_to_dsl(eg)
        back, id_map = egraph_from_dsl(text)
        assert back.num_classes == eg.num_classes
        assert set(back.var_ids) == set(eg.var_ids)

    def test_dsl_contains_ids_and_parents(self):
        import json

        eg = self._circuit_egraph()
        doc = json.loads(egraph_to_dsl(eg))
        assert "egraph" in doc
        some_entry = next(iter(doc["egraph"].values()))
        assert {"id", "nodes", "parents"} <= set(some_entry)

    def test_malformed_dsl_rejected(self):
        with pytest.raises(ValueError):
            egraph_from_dsl('{"not_egraph": {}}')

    def test_roundtrip_after_union(self):
        eg = self._circuit_egraph()
        a, b = eg.var("a"), eg.var("b")
        eg.union(a, b)
        eg.rebuild()
        text = egraph_to_dsl(eg)
        back, _ = egraph_from_dsl(text)
        assert back.num_classes == eg.num_classes

    def test_digest_stable_and_content_sensitive(self):
        from repro.egraph.serialize import egraph_digest

        eg = self._circuit_egraph()
        other = self._circuit_egraph()
        assert egraph_digest(eg) == egraph_digest(other)
        other.add_term(AND, [other.var("a"), other.var("x")])
        assert egraph_digest(eg) != egraph_digest(other)
        # A roundtrip through the DSL preserves the digest.
        back, _ = egraph_from_dsl(egraph_to_dsl(eg))
        assert egraph_digest(back) == egraph_digest(eg)

    def test_roundtrip_of_saturated_egraph(self):
        # Saturation makes the e-graph cyclic (only extractions must be
        # acyclic), which the class-by-class loader rejected.
        from repro.benchgen import epfl
        from repro.conversion.dag2eg import aig_to_egraph

        eg = aig_to_egraph(epfl.build("adder", preset="test")).egraph
        saturate_engine(eg, boolean_rules(), EngineLimits(max_iterations=2, max_nodes=10_000))
        back, id_map = egraph_from_dsl(egraph_to_dsl(eg))
        assert back.num_classes == eg.num_classes
        assert sorted(id_map) == eg.class_ids()
        assert len(set(id_map.values())) == len(id_map)
        for cid in eg.class_ids():
            expected = {(n.op, tuple(id_map[c] for c in n.children), n.payload) for n in eg.nodes_of(cid)}
            actual = {(n.op, n.children, n.payload) for n in back.nodes_of(id_map[cid])}
            assert actual == expected
        back.check_invariants()

    def test_roundtrip_of_deep_chain(self):
        # A 3,000-deep AND chain overflowed the recursive loader.
        eg = EGraph()
        a = top = eg.var("a")
        for _ in range(3000):
            top = eg.add_term(AND, [top, a])
        back, id_map = egraph_from_dsl(egraph_to_dsl(eg))
        assert back.num_classes == eg.num_classes == 3001
        assert back.nodes_of(id_map[top]) == [
            ENode(AND, tuple(id_map[c] for c in eg.nodes_of(top)[0].children))
        ]

    def test_unbuildable_cycle_rejected(self):
        # Two classes whose only nodes need each other can never be built.
        text = json.dumps(
            {
                "egraph": {
                    "0": {"id": 0, "nodes": [{"Symbol": "a"}], "parents": []},
                    "1": {"id": 1, "nodes": [{"NOT": [2]}], "parents": [2]},
                    "2": {"id": 2, "nodes": [{"AND": [0, 1]}], "parents": [1]},
                }
            }
        )
        with pytest.raises(ValueError, match="DSL class 1 cannot be built"):
            egraph_from_dsl(text)
