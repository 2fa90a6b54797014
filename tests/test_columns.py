"""Column-store invariants: the struct-of-arrays mirror stays in lockstep.

Randomized add/union/rebuild sequences drive a :class:`ColumnStore` attached
to an :class:`EGraph` and assert — via ``check_lockstep()`` — that the
columnar union-find, per-class node spans, and per-op class buckets agree
with the object model and with a from-scratch op scan after every mutation
batch.
"""

from __future__ import annotations

import random

import pytest

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.egraph import EGraph
from repro.egraph.language import AND, NOT, OR
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.engine.columns import ClassView, ColumnStore, op_id, op_name


def _seeded_egraph():
    eg = EGraph()
    a, b, c = (eg.var(x) for x in "abc")
    ab = eg.add_term(AND, [a, b])
    eg.add_term(OR, [ab, c])
    eg.add_term(NOT, [ab])
    return eg


class TestOpInterning:
    def test_round_trip(self):
        oid = op_id(AND)
        assert op_name(oid) == AND

    def test_stable_across_calls(self):
        assert op_id(OR) == op_id(OR)


class TestIncrementalMirror:
    def test_seeds_from_existing_egraph(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        cols.check_lockstep()

    def test_on_add_grows_columns(self):
        eg = EGraph()
        cols = ColumnStore(eg)
        a = eg.var("a")
        b = eg.var("b")
        eg.add_term(AND, [a, b])
        cols.check_lockstep()
        assert cols.num_nodes == 3

    def test_on_union_splices_spans(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        a = eg.var("a")
        b = eg.var("b")
        eg.union(a, b)
        eg.rebuild()
        cols.check_lockstep()
        root = cols.find(a)
        assert cols.find(b) == root
        # The merged class's span holds both VAR leaves.
        view = cols.class_view(root)
        assert view.var_payloads == {"a", "b"}

    def test_repair_dedups_span_like_object_model(self):
        # Union two leaves so two previously distinct AND nodes become
        # congruent: repair must drop the duplicate from the span exactly as
        # EClass.nodes does.
        eg = EGraph()
        a, b, c = (eg.var(x) for x in "abc")
        eg.add_term(AND, [a, c])
        eg.add_term(AND, [b, c])
        cols = ColumnStore(eg)
        eg.union(a, b)
        eg.rebuild()
        cols.check_lockstep()

    def test_detach_freezes_columns(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        before = cols.num_nodes
        cols.detach()
        eg.add_term(AND, [eg.var("z"), eg.var("w")])
        assert cols.num_nodes == before

    def test_generation_bumps_on_union(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        gen = cols.generation
        eg.union(eg.var("a"), eg.var("b"))
        assert cols.generation == gen + 1


class TestReads:
    def test_class_view_buckets_by_op(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        a = eg.var("a")
        view = cols.class_view(cols.find(a))
        assert isinstance(view, ClassView)
        assert view.var_payloads == {"a"}

    def test_classes_with_op_sorted(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        cids = cols.classes_with_op(AND)
        assert cids == sorted(cids)
        assert cids  # the seeded graph has an AND node

    def test_classes_with_unknown_op_empty(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        assert cols.classes_with_op("no-such-op-ever") == []

    def test_canonical_class_ids_match_object_model(self):
        eg = _seeded_egraph()
        cols = ColumnStore(eg)
        eg.union(eg.var("a"), eg.var("b"))
        eg.rebuild()
        assert cols.canonical_class_ids() == sorted(eg.canonical_classes())


class TestRandomizedLockstep:
    """The satellite's core: seeded mutation storms with lockstep checks."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 40, 42])
    def test_random_add_union_rebuild(self, seed):
        rng = random.Random(seed)
        eg = EGraph()
        cols = ColumnStore(eg)
        classes = [eg.var(f"v{i}") for i in range(4)]
        for step in range(120):
            action = rng.random()
            if action < 0.55:
                op = rng.choice([AND, OR, NOT])
                arity = 1 if op == NOT else 2
                children = [rng.choice(classes) for _ in range(arity)]
                classes.append(eg.add_term(op, children))
            elif action < 0.8:
                eg.union(rng.choice(classes), rng.choice(classes))
            else:
                eg.rebuild()
                cols.check_lockstep()
        eg.rebuild()
        eg.check_invariants()
        cols.check_lockstep()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_lockstep_through_saturation(self, seed):
        rng = random.Random(seed)
        eg = EGraph()
        classes = [eg.var(f"v{i}") for i in range(3)]
        for _ in range(40):
            op = rng.choice([AND, OR, NOT])
            arity = 1 if op == NOT else 2
            classes.append(eg.add_term(op, [rng.choice(classes) for _ in range(arity)]))
        cols = ColumnStore(eg)
        engine = SaturationEngine(
            eg,
            boolean_rules(),
            limits=EngineLimits(max_iterations=3, max_nodes=4000, time_limit=10.0),
        )
        engine.run()
        cols.check_lockstep()

    def test_lockstep_on_real_circuit(self):
        eg = aig_to_egraph(epfl.build("adder", preset="test")).egraph
        cols = ColumnStore(eg)
        engine = SaturationEngine(
            eg,
            boolean_rules(),
            limits=EngineLimits(max_iterations=2, max_nodes=6000, time_limit=10.0),
        )
        engine.run()
        cols.check_lockstep()

    def test_batched_engine_leaves_lockstep_columns(self):
        eg = aig_to_egraph(epfl.build("adder", preset="test")).egraph
        engine = SaturationEngine(
            eg,
            boolean_rules(),
            limits=EngineLimits(max_iterations=2, max_nodes=6000, time_limit=10.0),
        )
        engine.run()
        assert engine.columns is not None
        engine.columns.check_lockstep()
