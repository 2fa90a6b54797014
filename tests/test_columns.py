"""The e-graph's integer rows against the object-model oracle.

:class:`ObjectEGraph` is the e-graph this repo used to store one Python
object per e-node and e-class (``EClass`` lists, an ``ENode``-keyed
hashcons).  It survives only here, as the oracle of the columnar
:class:`~repro.egraph.egraph.EGraph`: the same ``var``/``add_term``/
``union``/``rebuild`` programs run on both, and after every step the two
must agree on ``find`` of every id, the canonical class ids, every class's
canonical nodes (order and multiplicity), the per-operator class buckets,
both counters and the ``egraph_digest``; after every rebuild the columnar
graph must also pass ``check_invariants()``.  Hypothesis generates and
shrinks the programs; seeded add/union/rebuild storms and short
saturations (per-pattern matches applied to both graphs) are the explicit
examples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.egraph import ClassView, EGraph, ENode, op_id, op_name
from repro.egraph.language import AND, NOT, OR, VAR, op_arity
from repro.egraph.rules import boolean_rules
from repro.egraph.serialize import egraph_digest
from repro.egraph.unionfind import UnionFind
from repro.engine import BatchedMatcher, EngineLimits, SaturationEngine


@dataclass
class EClass:
    """An equivalence class of e-nodes (the oracle's per-class object)."""

    class_id: int
    nodes: List[ENode] = field(default_factory=list)
    parents: List[Tuple[ENode, int]] = field(default_factory=list)


class ObjectEGraph:
    """The object-model e-graph: the oracle of the columnar storage.

    ``add``/``union``/``rebuild``/``_repair`` are the pre-column
    implementation verbatim (observers dropped); the read methods return
    canonical e-nodes, the contract of :class:`~repro.egraph.egraph.EGraph`.
    """

    def __init__(self) -> None:
        self.union_find = UnionFind()
        self.classes: Dict[int, EClass] = {}
        self.hashcons: Dict[ENode, int] = {}
        self.worklist: List[int] = []
        self.var_ids: Dict[str, int] = {}
        self._num_classes = 0
        self._num_nodes = 0

    def find(self, class_id: int) -> int:
        return self.union_find.find(class_id)

    def add(self, enode: ENode) -> int:
        enode = enode.canonicalize(self.union_find)
        existing = self.hashcons.get(enode)
        if existing is not None:
            return self.find(existing)
        class_id = self.union_find.make_set()
        self.classes[class_id] = EClass(class_id=class_id, nodes=[enode])
        self.hashcons[enode] = class_id
        self._num_classes += 1
        self._num_nodes += 1
        for child in enode.children:
            self.classes[self.find(child)].parents.append((enode, class_id))
        if enode.op == VAR and enode.payload is not None:
            self.var_ids[enode.payload] = class_id
        return class_id

    def add_term(self, op: str, children=(), payload: Optional[str] = None) -> int:
        children = tuple(self.find(c) for c in children)
        if len(children) != op_arity(op) and not (op == VAR and not children):
            raise ValueError(f"operator {op} expects {op_arity(op)} children, got {len(children)}")
        return self.add(ENode(op=op, children=children, payload=payload))

    def var(self, name: str) -> int:
        if name in self.var_ids:
            return self.find(self.var_ids[name])
        return self.add(ENode(op=VAR, payload=name))

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        root = self.union_find.union(ra, rb)
        other = rb if root == ra else ra
        root_class = self.classes[root]
        other_class = self.classes.pop(other)
        root_class.nodes.extend(other_class.nodes)
        root_class.parents.extend(other_class.parents)
        self.worklist.append(root)
        self._num_classes -= 1
        return root

    def rebuild(self) -> int:
        merges = 0
        while self.worklist:
            todo = {self.find(c) for c in self.worklist}
            self.worklist = []
            for class_id in todo:
                merges += self._repair(class_id)
        return merges

    def _repair(self, class_id: int) -> int:
        merges = 0
        class_id = self.find(class_id)
        eclass = self.classes.get(class_id)
        if eclass is None:
            return 0
        new_parents: Dict[ENode, int] = {}
        for parent_node, parent_class in eclass.parents:
            canonical = parent_node.canonicalize(self.union_find)
            if parent_node in self.hashcons:
                self.hashcons.pop(parent_node, None)
            existing = self.hashcons.get(canonical)
            parent_class = self.find(parent_class)
            if existing is not None and self.find(existing) != parent_class:
                self.union(parent_class, self.find(existing))
                parent_class = self.find(parent_class)
                merges += 1
            self.hashcons[canonical] = parent_class
            prev = new_parents.get(canonical)
            if prev is not None and self.find(prev) != parent_class:
                self.union(prev, parent_class)
                merges += 1
                parent_class = self.find(parent_class)
            new_parents[canonical] = parent_class
        eclass.parents = list(new_parents.items())
        if self.find(class_id) != class_id:
            return merges
        seen: Dict[ENode, None] = {}
        for node in eclass.nodes:
            seen.setdefault(node.canonicalize(self.union_find), None)
        self._num_nodes -= len(eclass.nodes) - len(seen)
        eclass.nodes = list(seen.keys())
        return merges

    # -- the read contract -----------------------------------------------------

    @property
    def num_classes(self) -> int:
        return self._num_classes

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def class_ids(self) -> List[int]:
        return [cid for cid in self.classes if self.find(cid) == cid]

    def nodes_of(self, class_id: int) -> List[ENode]:
        return [n.canonicalize(self.union_find) for n in self.classes[self.find(class_id)].nodes]

    def enodes(self):
        for cid in self.class_ids():
            for node in self.nodes_of(cid):
                yield cid, node

    def check_invariants(self) -> None:
        seen: Dict[ENode, int] = {}
        for cid, node in self.enodes():
            owner = self.hashcons.get(node)
            assert owner is not None and self.find(owner) == cid, f"hashcons misses {node}"
            assert seen.setdefault(node, cid) == cid, f"congruence violated for {node}"


def op_buckets(egraph) -> Dict[str, List[int]]:
    """Operator -> sorted canonical classes holding it, from a scan of the
    canonical nodes (works on both storages)."""
    by_op: Dict[str, set] = {}
    for cid, node in egraph.enodes():
        by_op.setdefault(node.op, set()).add(cid)
    return {op: sorted(ids) for op, ids in by_op.items()}


def assert_same(new: EGraph, old: ObjectEGraph, rebuilt: bool = True) -> None:
    """The columnar graph equals the oracle; ``rebuilt`` adds the invariants."""
    width = len(old.union_find)
    assert len(new.union_find) == width
    assert [new.find(i) for i in range(width)] == [old.find(i) for i in range(width)]
    assert new.class_ids() == old.class_ids()
    for cid in old.class_ids():
        assert new.nodes_of(cid) == old.nodes_of(cid), f"class {cid}"
    expected = op_buckets(old)
    assert {op: new.classes_with_op(op) for op in expected} == expected
    assert {op_name(oid) for oid, ids in new.by_op.items() if ids} == set(expected)
    assert (new.num_classes, new.num_nodes) == (old.num_classes, old.num_nodes)
    assert egraph_digest(new) == egraph_digest(old)
    if rebuilt:
        old.check_invariants()
        new.check_invariants()


class Lockstep:
    """One program driving both storages; every step's result must agree."""

    def __init__(self) -> None:
        self.new = EGraph()
        self.old = ObjectEGraph()
        self.ids: List[int] = []

    def var(self, name: str) -> int:
        cid = self.new.var(name)
        assert self.old.var(name) == cid
        self.ids.append(cid)
        return cid

    def add_term(self, op: str, children) -> int:
        cid = self.new.add_term(op, children)
        assert self.old.add_term(op, children) == cid
        self.ids.append(cid)
        return cid

    def union(self, a: int, b: int) -> int:
        root = self.new.union(a, b)
        assert self.old.union(a, b) == root
        return root

    def rebuild(self) -> None:
        # The columnar rebuild returns its merge pairs, the oracle its count.
        assert len(self.new.rebuild()) == self.old.rebuild()

    def run(self, program) -> None:
        """Execute ``(name, *args)`` steps, comparing after every step.

        ``var``, ``add`` and ``union`` do what they say (operands are picked
        from the ids created so far, modulo their count), ``fold`` adds a node
        and unions it with its first child, and ``rebuild`` rebuilds.
        """
        for step in program:
            kind = step[0]
            if kind == "var":
                self.var(f"v{step[1]}")
            elif kind in ("add", "fold"):
                op, picks = step[1], step[2]
                children = [self.ids[p % len(self.ids)] for p in picks[: 1 if op == NOT else 2]]
                cid = self.add_term(op, children)
                if kind == "fold":
                    # Union the new node with its own first child, the way
                    # absorption rewrites make classes cyclic.
                    self.union(cid, children[0])
            elif kind == "union":
                self.union(self.ids[step[1] % len(self.ids)], self.ids[step[2] % len(self.ids)])
            else:
                self.rebuild()
            assert_same(self.new, self.old, rebuilt=kind == "rebuild")
        self.rebuild()
        assert_same(self.new, self.old)


def storm(seed: int, steps: int = 120) -> List[tuple]:
    """The seeded add/union/rebuild storm as a program (4 leaves first),
    drawing from ``rng`` exactly as the storm did on the live graphs."""
    rng = random.Random(seed)
    program: List[tuple] = [("var", i) for i in range(4)]
    size = 4
    for _ in range(steps):
        action = rng.random()
        if action < 0.55:
            op = rng.choice([AND, OR, NOT])
            arity = 1 if op == NOT else 2
            program.append(("add", op, tuple(rng.randrange(size) for _ in range(arity))))
            size += 1
        elif action < 0.8:
            program.append(("union", rng.randrange(size), rng.randrange(size)))
        else:
            program.append(("rebuild",))
    return program


def saturate_both(
    pair: Lockstep, rules, as_matches, iterations: int, max_nodes: int, limit: int = 500
) -> None:
    """Per-pattern saturation applied to both storages, compared per iteration.

    Matches come from the batched matcher on the columnar graph and must
    equal the per-pattern search on the oracle before they are applied.
    """
    matcher = BatchedMatcher(rules)
    for _ in range(iterations):
        found = as_matches(matcher, matcher.search(pair.new, range(len(rules)), limit=limit))
        assert found == {i: rule.search(pair.old, limit=limit) for i, rule in enumerate(rules)}
        for index, rule in enumerate(rules):
            assert rule.apply(pair.new, found[index]) == rule.apply(pair.old, found[index])
            if pair.new.num_nodes > max_nodes:
                break
        pair.rebuild()
        assert_same(pair.new, pair.old)


def lockstep_circuit(name: str) -> Lockstep:
    """A converted test-preset circuit, replayed row by row into the oracle."""
    pair = Lockstep()
    pair.new = aig_to_egraph(epfl.build(name, preset="test")).egraph
    for cid in pair.new.class_ids():
        (node,) = pair.new.nodes_of(cid)
        assert pair.old.add_term(node.op, node.children, node.payload) == cid
    assert_same(pair.new, pair.old)
    return pair


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
    """The rows grow, splice and deduplicate incrementally, mirroring the
    oracle's object lists step for step."""

    def test_on_add_grows_columns(self):
        pair = Lockstep()
        a = pair.var("a")
        b = pair.var("b")
        pair.add_term(AND, [a, b])
        assert_same(pair.new, pair.old)
        assert len(pair.new.node_op) == 3

    def test_on_union_splices_spans(self):
        pair = Lockstep()
        a, b, c = (pair.var(x) for x in "abc")
        ab = pair.add_term(AND, [a, b])
        pair.add_term(OR, [ab, c])
        pair.union(a, b)
        pair.rebuild()
        assert_same(pair.new, pair.old)
        root = pair.new.find(a)
        assert pair.new.find(b) == root
        # The merged class's span holds both VAR leaves.
        view = pair.new.class_view(root)
        assert view.var_payloads == {"a", "b"}

    def test_repair_dedups_span_like_object_model(self):
        # Union two leaves so two previously distinct AND nodes become
        # congruent: repair must drop the duplicate from the span exactly as
        # the oracle drops it from its node list.
        pair = Lockstep()
        a, b, c = (pair.var(x) for x in "abc")
        pair.add_term(AND, [a, c])
        pair.add_term(AND, [b, c])
        pair.union(a, b)
        pair.rebuild()
        assert_same(pair.new, pair.old)
        assert pair.new.num_nodes == 4


class TestReads:
    def test_class_view_buckets_by_op(self):
        eg = _seeded_egraph()
        a = eg.var("a")
        view = eg.class_view(eg.find(a))
        assert isinstance(view, ClassView)
        assert view.var_payloads == {"a"}

    def test_classes_with_op_sorted(self):
        eg = _seeded_egraph()
        cids = eg.classes_with_op(AND)
        assert cids == sorted(cids)
        assert cids  # the seeded graph has an AND node

    def test_classes_with_unknown_op_empty(self):
        eg = _seeded_egraph()
        assert eg.classes_with_op("no-such-op-ever") == []

    def test_canonical_class_ids_match_object_model(self):
        pair = Lockstep()
        a, b, c = (pair.var(x) for x in "abc")
        pair.add_term(AND, [a, b])
        pair.add_term(OR, [a, c])
        pair.union(a, b)
        pair.rebuild()
        assert pair.new.class_ids() == pair.old.class_ids()


#: Hypothesis programs over the ``Lockstep.run`` step kinds.
_PICKS = st.tuples(st.integers(0, 63), st.integers(0, 63))
STEPS = st.one_of(
    st.tuples(st.just("var"), st.integers(0, 5)),
    st.tuples(st.just("add"), st.sampled_from([AND, OR, NOT]), _PICKS),
    st.tuples(st.just("fold"), st.sampled_from([AND, OR, NOT]), _PICKS),
    st.tuples(st.just("union"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("rebuild")),
)


class TestRandomizedLockstep:
    """Seeded storms, short saturations, and hypothesis-generated programs."""

    @given(st.lists(STEPS, min_size=20, max_size=120))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_random_programs_match_oracle(self, steps):
        Lockstep().run([("var", 0), ("var", 1)] + steps)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 40, 42])
    def test_random_add_union_rebuild(self, seed):
        # Seed 40 regresses the node counter if repair dedups a class that
        # its own congruence unions merged away (double-subtraction).
        Lockstep().run(storm(seed))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_lockstep_through_saturation(self, seed, as_matches):
        rng = random.Random(seed)
        pair = Lockstep()
        classes = [pair.var(f"v{i}") for i in range(3)]
        for _ in range(40):
            op = rng.choice([AND, OR, NOT])
            arity = 1 if op == NOT else 2
            classes.append(pair.add_term(op, [rng.choice(classes) for _ in range(arity)]))
        saturate_both(pair, boolean_rules(), as_matches, iterations=3, max_nodes=4000)

    def test_lockstep_on_real_circuit(self, as_matches):
        pair = lockstep_circuit("adder")
        saturate_both(pair, boolean_rules(), as_matches, iterations=2, max_nodes=6000)

    def test_batched_engine_leaves_lockstep_columns(self):
        # The engine's own loop (simple scheduler, no dedup) on the columnar
        # graph lands where per-pattern saturation of the oracle lands.
        pair = lockstep_circuit("mem_ctrl")
        engine = SaturationEngine(
            pair.new,
            boolean_rules(),
            limits=EngineLimits(max_iterations=2, max_nodes=6000, time_limit=60.0),
            scheduler="simple",
            dedup_matches=False,
        )
        engine.run()
        rules = boolean_rules()
        for _ in range(2):
            found = [rule.search(pair.old, limit=5_000) for rule in rules]
            applied = 0
            for rule, matches in zip(rules, found):
                applied += rule.apply(pair.old, matches)
                if pair.old.num_nodes > 6000:
                    break
            pair.old.rebuild()
            if not applied or pair.old.num_nodes > 6000:
                break
        assert_same(pair.new, pair.old)
