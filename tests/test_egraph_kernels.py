"""The e-graph kernels against the ones they replaced.

The write path (``add_term`` → ``add_key``, ``union``, ``rebuild``/
``_repair``, ``_row_key``), the read path (``class_view``, ``class_rows``)
and the engine's RHS builder (``_run_rhs``) read the union-find's ``parent``
list with a root fast path and build keys by arity.  The code they replaced
survives here only, verbatim, as the oracle: :class:`OracleEGraph` overrides
the kernels of :class:`~repro.egraph.egraph.EGraph` with it, and
:func:`oracle_run_rhs` is the replaced RHS builder.  The same programs run
on both, and everything the storage holds must be equal: row columns, spans
and parent lists (in order), hashcons items (in order), ``by_op``, the
union-find lists (so ``find`` of every id), both counters, rebuild merges,
the write sequence (the ``on_add``/``on_union`` events the oracle's observer
sees; the new storage's appended rows, effective unions and rebuild merge
pairs, read back from what its write path returns), and then every class
view and the snapshot's distinct e-nodes.  Inputs are full engine runs on
the ten test-preset circuits at saturate-deep's budget and derandomized
hypothesis add/union/rebuild/RHS programs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import epfl
from repro.conversion import dag2eg
from repro.egraph.egraph import _NO_PAYLOADS, _OPS, _VAR_ID, ClassView, EGraph, ENode, op_id, op_name
from repro.egraph.language import AND, CONST0, CONST1, NOT, OPERATORS, OR, VAR, op_arity
from repro.egraph.pattern import PatternNode, parse_pattern
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.engine import engine as engine_module
from repro.engine.engine import _SLOT, _SYMBOL, _compile_rhs, _run_rhs
from repro.extraction.engine.problem import FrozenProblem
from repro.obs import tracing

Key = Tuple


class OracleEGraph(EGraph):
    """:class:`EGraph` with the replaced kernels, verbatim: every find is a
    ``find`` call, keys are built through ``map``/slices, and ``add_term``
    re-canonicalizes and re-probes whatever its caller already probed.  It
    keeps the replaced observer list and calls its ``on_add``/``on_union``."""

    def __init__(self) -> None:
        super().__init__()
        self.observers: List[object] = []

    def add_term(self, op: str, children: Iterable[int] = (), payload: Optional[str] = None) -> int:
        find = self.union_find.find
        kids = tuple(map(find, children))
        if len(kids) != op_arity(op):
            raise ValueError(f"operator {op} expects {op_arity(op)} children, got {len(kids)}")
        oid = op_id(op)
        if payload is None:
            key = (oid, *kids)
        elif kids:
            raise ValueError(f"operator {op} has children, so it cannot carry a payload")
        else:
            key = (oid, payload)
        existing = self.hashcons.get(key)
        if existing is not None:
            return find(existing)
        class_id = self.union_find.make_set()
        row = len(self.node_op)
        self.node_op.append(oid)
        self.child_class.extend(kids)
        self.child_start.append(len(self.child_class))
        self.spans.append([row])
        self.parents.append([])
        self.hashcons[key] = class_id
        self._num_classes += 1
        self._num_nodes += 1
        parents = self.parents
        entry = (key, class_id)
        for child in kids:
            parents[child].append(entry)
        bucket = self.by_op.get(oid)
        if bucket is None:
            self.by_op[oid] = {class_id}
        else:
            bucket.add(class_id)
        if payload is not None:
            self.node_payload[row] = payload
            if oid == _VAR_ID:
                self.var_ids[payload] = class_id
        if self.observers:
            enode = ENode(op, kids, payload)
            for observer in self.observers:
                observer.on_add(class_id, enode)
        return class_id

    def add_key(self, key: Key, payload: Optional[str] = None) -> int:  # pragma: no cover - guard
        raise AssertionError("the oracle inserts through add_term only")

    def var(self, name: str) -> int:
        if name in self.var_ids:
            return self.find(self.var_ids[name])
        return self.add_term(VAR, (), name)

    def union(self, a: int, b: int) -> int:
        find = self.union_find.find
        ra, rb = find(a), find(b)
        if ra == rb:
            return ra
        root = self.union_find.union(ra, rb)
        other = rb if root == ra else ra
        other_span = self.spans[other]
        node_op = self.node_op
        by_op = self.by_op
        for oid in {node_op[row] for row in other_span}:
            bucket = by_op[oid]
            bucket.discard(other)
            bucket.add(root)
        self.spans[root].extend(other_span)
        self.spans[other] = None
        self.parents[root].extend(self.parents[other])
        self.parents[other] = None
        self.worklist.append(root)
        self._num_classes -= 1
        for observer in self.observers:
            observer.on_union(root, other)
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
        find = self.union_find.find
        hashcons = self.hashcons
        class_id = find(class_id)
        new_parents: Dict[Key, int] = {}
        for key, parent_class in self.parents[class_id]:
            canonical = (key[0], *map(find, key[1:]))
            hashcons.pop(key, None)
            existing = hashcons.get(canonical)
            parent_class = find(parent_class)
            if existing is not None and find(existing) != parent_class:
                self.union(parent_class, find(existing))
                parent_class = find(parent_class)
                merges += 1
            hashcons[canonical] = parent_class
            prev = new_parents.get(canonical)
            if prev is not None and find(prev) != parent_class:
                self.union(prev, parent_class)
                merges += 1
                parent_class = find(parent_class)
            new_parents[canonical] = parent_class
        if find(class_id) != class_id:
            return merges
        self.parents[class_id] = list(new_parents.items())
        span = self.spans[class_id]
        seen: Dict[Key, int] = {}
        for row in span:
            seen.setdefault(self._row_key(row), row)
        if len(seen) != len(span):
            self._num_nodes -= len(span) - len(seen)
            self.spans[class_id] = list(seen.values())
        return merges

    def _row_key(self, row: int) -> Key:
        start, end = self.child_start[row], self.child_start[row + 1]
        if start == end:
            payload = self.node_payload.get(row)
            return (self.node_op[row],) if payload is None else (self.node_op[row], payload)
        return (self.node_op[row], *map(self.union_find.find, self.child_class[start:end]))

    def class_rows(self) -> Iterator[Tuple[int, List[Tuple[str, Tuple[int, ...], Optional[str]]]]]:
        find = self.union_find.find
        canon = [find(i) for i in range(len(self.union_find))]
        node_op = self.node_op
        child_start = self.child_start
        child_class = self.child_class
        payloads = self.node_payload
        for cid, span in enumerate(self.spans):
            if span is not None:
                yield cid, [
                    (
                        _OPS[node_op[row]],
                        tuple(map(canon.__getitem__, child_class[child_start[row] : child_start[row + 1]])),
                        payloads.get(row),
                    )
                    for row in span
                ]

    def class_view(self, class_id: int) -> ClassView:
        view = ClassView()
        by_op = view.by_op
        node_op = self.node_op
        child_start = self.child_start
        child_class = self.child_class
        find = self.union_find.find
        for row in self.spans[class_id]:
            children = tuple(map(find, child_class[child_start[row] : child_start[row + 1]]))
            oid = node_op[row]
            bucket = by_op.get(oid)
            if bucket is None:
                by_op[oid] = [children]
            else:
                bucket.append(children)
            if oid == _VAR_ID:
                payload = self.node_payload.get(row)
                if payload is not None:
                    if view.var_payloads is _NO_PAYLOADS:
                        view.var_payloads = {payload}
                    else:
                        view.var_payloads.add(payload)
        return view


def oracle_run_rhs(egraph: EGraph, program, slots: Tuple[int, ...]) -> int:
    """The replaced RHS builder: probe the hashcons, and on a miss hand the
    children to ``add_term``, which canonicalizes and probes again."""
    find = egraph.union_find.find
    hashcons = egraph.hashcons
    stack: List[int] = []
    for tag, arg, arity in program:
        if tag == _SLOT:
            stack.append(find(slots[arg]))
        elif tag == _SYMBOL:
            stack.append(egraph.var(arg))
        else:
            if arity:
                kids = stack[-arity:]
                del stack[-arity:]
            else:
                kids = []
            hit = hashcons.get((arg, *kids))
            stack.append(egraph.add_term(op_name(arg), kids) if hit is None else find(hit))
    return stack[-1]


def oracle_candidates(egraph: OracleEGraph) -> List[Tuple[int, List[ENode]]]:
    """The snapshot's candidates as the replaced reader and build made
    them: the first occurrence of each row tuple, as an e-node."""
    out = []
    for cid, rows in egraph.class_rows():
        seen: Set[tuple] = set()
        nodes = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                nodes.append(ENode(*row))
        out.append((cid, nodes))
    return out


class Recorder:
    """An observer recording every event, in order."""

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def on_add(self, class_id: int, enode: ENode) -> None:
        self.events.append(("add", class_id, enode))

    def on_union(self, root: int, other: int) -> None:
        self.events.append(("union", root, other))


class Writes:
    """The new storage's side of the :class:`Recorder` events, read back from
    what its write path returns: the rows appended since the last read
    (:meth:`~repro.egraph.egraph.EGraph.rows_since`) before each effective
    ``union()`` and its root, and ``rebuild()``'s merge pairs.  Wraps the
    instance's ``union`` and ``rebuild``; the unions a rebuild makes are
    taken from the pairs it returns."""

    def __init__(self, egraph: EGraph) -> None:
        self.egraph = egraph
        self.events: List[tuple] = []
        self.rows = egraph.num_rows
        self.rebuilding = False
        self._union, self._rebuild = egraph.union, egraph.rebuild
        egraph.union, egraph.rebuild = self.union, self.rebuild

    def flush(self) -> None:
        """Log the rows appended since the last read as ``add`` events."""
        self.events.extend(("add", cid, node) for cid, node in self.egraph.rows_since(self.rows))
        self.rows = self.egraph.num_rows

    def union(self, a: int, b: int) -> int:
        if self.rebuilding:
            return self._union(a, b)
        self.flush()
        ra, rb = self.egraph.find(a), self.egraph.find(b)
        root = self._union(a, b)
        if ra != rb:
            self.events.append(("union", root, rb if root == ra else ra))
        return root

    def rebuild(self) -> List[Tuple[int, int]]:
        self.flush()
        self.rebuilding = True
        try:
            merges = self._rebuild()
        finally:
            self.rebuilding = False
        self.events.extend(("union", root, other) for root, other in merges)
        return merges


def oracle_merges(egraph: OracleEGraph, events: Recorder) -> List[Tuple[int, int]]:
    """The oracle's rebuild under the new return contract: its merges as the
    ``(root, other)`` events its observer saw, as many as it counted."""
    start = len(events.events)
    count = OracleEGraph.rebuild(egraph)
    merges = [(root, other) for _, root, other in events.events[start:]]
    assert len(merges) == count
    return merges


def storage(egraph: EGraph) -> dict:
    """Everything the storage holds, ordered as it is stored."""
    return {
        "node_op": egraph.node_op,
        "child_start": egraph.child_start,
        "child_class": egraph.child_class,
        "node_payload": list(egraph.node_payload.items()),
        "spans": egraph.spans,
        "parents": egraph.parents,
        "hashcons": list(egraph.hashcons.items()),
        "by_op": {oid: sorted(ids) for oid, ids in egraph.by_op.items()},
        "worklist": egraph.worklist,
        "var_ids": list(egraph.var_ids.items()),
        "uf_parent": egraph.union_find.parent,
        "uf_size": egraph.union_find.size,
        "counters": (egraph.num_classes, egraph.num_nodes),
    }


def assert_same_storage(new: EGraph, old: EGraph) -> None:
    expected = storage(old)
    for name, value in storage(new).items():
        assert value == expected[name], name
    width = len(old.union_find)
    assert [new.find(i) for i in range(width)] == [old.find(i) for i in range(width)]


def assert_same_reads(new: EGraph, old: OracleEGraph) -> None:
    """Every class view, then the snapshot's candidates (the oracle's reader
    compresses every path, so it runs last)."""
    for cid in new.class_ids():
        fast, slow = new.class_view(cid), old.class_view(cid)
        assert list(fast.by_op.items()) == list(slow.by_op.items()), cid
        assert fast.var_payloads == slow.var_payloads, cid
    assert list(new.class_rows()) == oracle_candidates(old)


# -- hypothesis programs -------------------------------------------------------

#: RHS shapes for the ``rhs`` step: every operator, a VAR symbol, a
#: constant, and shared subterms (so later steps hit what earlier ones built).
RHS_SHAPES = (
    "(AND ?a (OR ?b ?c))",
    "(OR (AND ?a ?b) (AND ?a ?c))",
    "(NOT (AND ?a ?b))",
    "(OR (NOT ?a) (NOT ?b))",
    "(AND ?a v0)",
    "CONST1",
    "(NOT CONST0)",
    "(AND ?a ?a)",
)
_PROGRAMS = [
    _compile_rhs(parse_pattern(shape).root, {"a": 0, "b": 1, "c": 2}, []) for shape in RHS_SHAPES
]


class Lockstep:
    """One program on the new storage and on the oracle, with observers."""

    def __init__(self) -> None:
        self.new, self.old = EGraph(), OracleEGraph()
        self.new_events, self.old_events = Writes(self.new), Recorder()
        self.old.observers.append(self.old_events)
        self.ids: List[int] = []

    def pick(self, index: int) -> int:
        return self.ids[index % len(self.ids)]

    def step(self, step: tuple) -> None:
        kind = step[0]
        if kind == "var":
            name = f"v{step[1]}"
            result = (self.new.var(name), self.old.var(name))
        elif kind == "const":
            op = CONST1 if step[1] else CONST0
            result = (self.new.add_term(op), self.old.add_term(op))
        elif kind in ("add", "fold"):
            op, picks = step[1], step[2]
            children = [self.pick(p) for p in picks[: op_arity(op)]]
            result = (self.new.add_term(op, children), self.old.add_term(op, children))
            if kind == "fold":
                # Union the node with its first child, as absorption does.
                assert self.new.union(result[0], children[0]) == self.old.union(result[1], children[0])
        elif kind == "union":
            a, b = self.pick(step[1]), self.pick(step[2])
            result = (self.new.union(a, b), self.old.union(a, b))
        elif kind == "rhs":
            program = _PROGRAMS[step[1]]
            slots = tuple(self.pick(p) for p in step[2])
            result = (_run_rhs(self.new, program, slots), oracle_run_rhs(self.old, program, slots))
        else:
            dirty = (len(self.new.worklist), len(self.old.worklist))
            assert dirty[0] == dirty[1]
            result = (len(self.new.rebuild()), self.old.rebuild())
        assert result[0] == result[1], step
        if kind not in ("union", "rebuild"):
            self.ids.append(result[0])
        assert_same_storage(self.new, self.old)
        self.new_events.flush()
        assert self.new_events.events == self.old_events.events

    def run(self, program: List[tuple]) -> None:
        for step in program:
            self.step(step)
        self.step(("rebuild",))
        self.new.check_invariants()
        assert_same_reads(self.new, self.old)
        assert_same_storage(self.new, self.old)


_PICKS = st.tuples(st.integers(0, 63), st.integers(0, 63))
STEPS = st.one_of(
    st.tuples(st.just("var"), st.integers(0, 5)),
    st.tuples(st.just("const"), st.booleans()),
    st.tuples(st.just("add"), st.sampled_from([AND, OR, NOT]), _PICKS),
    st.tuples(st.just("fold"), st.sampled_from([AND, OR, NOT]), _PICKS),
    st.tuples(st.just("union"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("rhs"), st.integers(0, len(RHS_SHAPES) - 1), st.tuples(*[st.integers(0, 63)] * 3)),
    st.tuples(st.just("rebuild")),
)


class TestPrograms:
    @given(st.lists(STEPS, min_size=10, max_size=120))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_random_programs_match_oracle(self, steps):
        Lockstep().run([("var", 0), ("var", 1)] + steps)

    def test_repair_dedups_a_congruent_pair(self):
        # Two AND rows become congruent through a leaf union: one-row spans
        # skip deduplication, the merged class's two rows must not.
        pair = Lockstep()
        pair.run([("var", 0), ("var", 1), ("var", 2), ("add", AND, (0, 2)), ("add", AND, (1, 2)),
                  ("union", 0, 1), ("rebuild",)])
        assert pair.new.num_nodes == 4 and pair.new.num_classes == 3

    def test_errors_match_oracle(self):
        for graph in (EGraph(), OracleEGraph()):
            a = graph.var("a")
            with pytest.raises(ValueError, match="expects 2 children"):
                graph.add_term(AND, [a])
            with pytest.raises(ValueError, match="cannot carry a payload"):
                graph.add_term(NOT, [a], "x")

    def test_language_arities_are_the_specialised_ones(self):
        # Keys and views are built by arity for 0, 1 and 2 children only.
        assert {spec.arity for spec in OPERATORS.values()} == {0, 1, 2}

    def test_hand_built_rhs_with_a_wrong_arity_is_rejected(self):
        node = PatternNode(kind="op", op=AND, children=(PatternNode(kind="pattern_var", name="a"),))
        with pytest.raises(ValueError, match="expects 2 children"):
            _compile_rhs(node, {"a": 0}, [])


# -- full engine runs ------------------------------------------------------------

#: saturate-deep's budget (``saturate(iters=4, max_nodes=150000, time_limit=600)``).
DEEP = dict(max_iterations=4, max_nodes=150000, time_limit=600.0)


def _engine_run(circuit: str, oracle: bool, monkeypatch) -> tuple:
    """Convert and saturate ``circuit`` on one storage; returns the graph,
    its write events, the trajectory and the rebuild spans' counters."""
    graph_class = OracleEGraph if oracle else EGraph
    monkeypatch.setattr(dag2eg, "EGraph", graph_class)
    monkeypatch.setattr(engine_module, "_run_rhs", oracle_run_rhs if oracle else _run_rhs)
    try:
        circuit_egraph = dag2eg.aig_to_egraph(epfl.build(circuit, preset="test"))
        egraph = circuit_egraph.egraph
        assert type(egraph) is graph_class
        if oracle:
            events = Recorder()
            egraph.observers.append(events)
            egraph.rebuild = lambda: oracle_merges(egraph, events)
        else:
            events = Writes(egraph)
        with tracing() as tracer:
            profile = SaturationEngine(egraph, boolean_rules(), limits=EngineLimits(**DEEP)).run()
        if not oracle:
            events.flush()
            del egraph.union
        del egraph.rebuild
    finally:
        monkeypatch.undo()
    rebuilds = [
        (record.args["dirty"], record.args["merges"]) for record in tracer.records if record.name == "rebuild"
    ]
    trajectory = [
        (it.matches_found, it.matches_deduped, it.applied, it.num_nodes, it.num_classes) for it in profile.iterations
    ]
    return circuit_egraph, events, (profile.stop_reason, trajectory), rebuilds


class TestEngineRuns:
    def test_ten_circuits(self):
        assert len(epfl.available_circuits()) == 10

    @pytest.mark.parametrize("circuit", list(epfl.available_circuits()))
    def test_run_matches_oracle(self, circuit, monkeypatch):
        new, new_events, new_trajectory, new_rebuilds = _engine_run(circuit, False, monkeypatch)
        old, old_events, old_trajectory, old_rebuilds = _engine_run(circuit, True, monkeypatch)
        assert new_trajectory == old_trajectory
        assert new_rebuilds == old_rebuilds
        assert new_events.events == old_events.events
        assert_same_storage(new.egraph, old.egraph)
        assert_same_reads(new.egraph, old.egraph)
        # The snapshot over the new reader equals the replaced build's.
        problem = FrozenProblem.build(new.egraph, new.output_classes)
        expected = oracle_candidates(old.egraph)
        assert [cid for cid, _ in expected] == problem.class_ids
        assert [nodes for _, nodes in expected] == problem.nodes

    def test_rebuild_counters_pinned_on_saturate_deep(self, monkeypatch):
        # saturate-deep's circuit: the counts the flow bench reports, and the
        # rebuild spans' ``dirty``/``merges`` per iteration.
        circuit, _, (stop, trajectory), rebuilds = _engine_run("hyp", False, monkeypatch)
        assert stop == "iteration_limit" and len(trajectory) == 4
        assert (circuit.egraph.num_nodes, circuit.egraph.num_classes) == (17644, 7821)
        assert sum(found for found, *_ in trajectory) == 24605
        assert sum(sum(applied.values()) for _, _, applied, _, _ in trajectory) == 12156
        assert rebuilds == PINNED_HYP_REBUILDS
        # Every application is one union; each merge is one more, and the
        # worklist holds one entry per union of the apply phase.
        for (_, _, applied, _, _), (dirty, _) in zip(trajectory, rebuilds):
            assert dirty == sum(applied.values())


#: ``(dirty, merges)`` of saturate-deep's four rebuild spans.
PINNED_HYP_REBUILDS = [(950, 0), (3874, 547), (6406, 1274), (926, 392)]
