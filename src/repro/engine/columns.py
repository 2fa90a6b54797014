"""Struct-of-arrays e-graph storage: the columnar mirror of an ``EGraph``.

The object model (:class:`~repro.egraph.egraph.EGraph`) stores one Python
object per e-node and one per e-class.  That representation is ideal for
correctness (hashcons, congruence repair) but terrible for the matcher's hot
path: every rule's search walks ``EClass.nodes`` lists, re-canonicalizes
``ENode`` children through attribute access, and allocates along the way.

:class:`ColumnStore` keeps the same information as flat integer columns:

* ``uf_parent`` — the union-find parent column (``uf_parent[i] == i`` for
  canonical roots), kept in lockstep with the e-graph's union-find;
* ``node_op`` / ``node_class`` / ``node_payload`` — one row per e-node in
  creation order: interned operator id, creation-time owner class, and the
  VAR payload (sparse — only leaves have one);
* ``child_start`` / ``child_class`` — CSR-packed child class ids (row ``n``'s
  children live at ``child_class[child_start[n]:child_start[n+1]]``), stored
  at creation time and canonicalized through :meth:`find` at read time;
* ``class_head`` / ``class_tail`` / ``node_next`` — per-class node spans as
  intrusive linked lists threaded through the node rows, so a union splices
  two classes' spans in O(1) exactly like ``EClass.nodes.extend``.

The store registers as an e-graph observer and mirrors every mutation
incrementally — ``on_add`` appends a row, ``on_union`` reparents and splices,
and ``on_repair`` replays congruence repair's node deduplication so the span
of a repaired class matches ``EClass.nodes`` element for element (multiplicity
included, which match-count parity with the per-pattern matcher depends on).
Readers — the batched matcher's per-iteration class views and
``FrozenProblem.from_columns`` — work off the columns directly instead of
re-snapshotting the object graph.
"""

from __future__ import annotations

from array import array
from typing import AbstractSet, Dict, Iterator, List, Set, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import VAR

#: Process-wide operator interning: ``op_id(op)`` is stable for the lifetime
#: of the process, so tries compiled once can be reused across stores.
_OPS: List[str] = []
_OP_IDS: Dict[str, int] = {}


def op_id(op: str) -> int:
    """Intern an operator name; returns its stable integer id."""
    existing = _OP_IDS.get(op)
    if existing is not None:
        return existing
    idx = len(_OPS)
    _OPS.append(op)
    _OP_IDS[op] = idx
    return idx


def op_name(idx: int) -> str:
    """The operator name behind an interned id."""
    return _OPS[idx]


#: The ``var_payloads`` of every view without VAR leaves (almost all of them).
_NO_PAYLOADS: AbstractSet[str] = frozenset()


class ClassView:
    """One class's e-nodes, canonicalized and bucketed by operator.

    ``by_op[op] -> [(children...), ...]`` lists the canonical child tuples of
    the class's nodes with that operator, preserving the span order (which
    mirrors ``EClass.nodes`` order); ``var_payloads`` collects the VAR leaf
    names (one shared empty set for classes without leaves).  Views are built
    once per class per search phase — the "walk the e-graph once per
    iteration" structure the batched matcher runs on.
    """

    __slots__ = ("by_op", "var_payloads")

    def __init__(self) -> None:
        self.by_op: Dict[int, List[Tuple[int, ...]]] = {}
        self.var_payloads: AbstractSet[str] = _NO_PAYLOADS


class ColumnStore:
    """Array-of-ints mirror of an :class:`~repro.egraph.egraph.EGraph`.

    Construct it over a (possibly non-empty) e-graph and it seeds itself from
    the current object state, then stays in lockstep through the observer
    protocol.  ``check_lockstep`` (used by the randomized invariant tests)
    verifies the mirror against the object model, op buckets included.
    """

    def __init__(self, egraph: EGraph, attach: bool = True) -> None:
        self.egraph = egraph
        # Union-find column: one slot per class id ever created.
        self.uf_parent = array("q", egraph.union_find.parent)
        num_classes = len(self.uf_parent)
        # Node columns (row id = creation order within this store).
        self.node_op = array("q")
        self.node_class = array("q")
        self.node_next = array("q")
        self.node_payload: Dict[int, str] = {}
        self.child_start = array("q", [0])
        self.child_class = array("q")
        # Per-class node spans (intrusive linked lists through node rows).
        self.class_head = array("q", [-1] * num_classes)
        self.class_tail = array("q", [-1] * num_classes)
        #: Operator -> canonical class ids: the op index that picks each trie
        #: root's candidate classes, maintained through ``on_add``/``on_union``.
        self.by_op: Dict[int, Set[int]] = {}
        self._generation = 0  # bumped on every union; readers key caches on it
        for class_id, eclass in egraph.canonical_classes().items():
            for node in eclass.nodes:
                self._append_node(class_id, node)
        if attach:
            egraph.attach_observer(self)

    # -- internals -------------------------------------------------------------

    def _append_node(self, class_id: int, enode: ENode) -> int:
        """Append one node row and link it into its class's span."""
        row = len(self.node_op)
        self.node_op.append(op_id(enode.op))
        self.node_class.append(class_id)
        self.node_next.append(-1)
        if enode.payload is not None:
            self.node_payload[row] = enode.payload
        for child in enode.children:
            self.child_class.append(child)
        self.child_start.append(len(self.child_class))
        tail = self.class_tail[class_id]
        if tail < 0:
            self.class_head[class_id] = row
        else:
            self.node_next[tail] = row
        self.class_tail[class_id] = row
        self.by_op.setdefault(self.node_op[row], set()).add(class_id)
        return row

    # -- EGraph observer protocol ----------------------------------------------

    def on_add(self, class_id: int, enode: ENode) -> None:
        """A brand-new singleton class: grow the columns by one row."""
        while len(self.uf_parent) <= class_id:
            idx = len(self.uf_parent)
            self.uf_parent.append(idx)
            self.class_head.append(-1)
            self.class_tail.append(-1)
        self._append_node(class_id, enode)

    def on_union(self, root: int, other: int) -> None:
        """``other`` merged into ``root``: reparent and splice the spans.

        ``other``'s span holds every operator it was bucketed under (repair
        only drops duplicates), so walking it moves the op buckets without a
        per-class op set.
        """
        self.uf_parent[other] = root
        by_op = self.by_op
        node_op = self.node_op
        for row in self.span_rows(other):
            bucket = by_op[node_op[row]]
            bucket.discard(other)
            bucket.add(root)
        other_head = self.class_head[other]
        if other_head >= 0:
            root_tail = self.class_tail[root]
            if root_tail < 0:
                self.class_head[root] = other_head
            else:
                self.node_next[root_tail] = other_head
            self.class_tail[root] = self.class_tail[other]
            self.class_head[other] = -1
            self.class_tail[other] = -1
        self._generation += 1

    def on_repair(self, class_id: int) -> None:
        """Congruence repair deduplicated ``class_id``'s node list: replay it.

        The object model drops nodes whose canonical form duplicates an
        earlier node (first occurrence wins, order preserved); the span must
        do the same so the matcher sees exactly ``EClass.nodes``.
        """
        head = self.class_head[class_id]
        if head < 0:
            return
        seen: Set[Tuple] = set()
        prev = -1
        tail = -1
        row = head
        node_next = self.node_next
        while row >= 0:
            key = (self.node_op[row], self.canonical_children(row), self.node_payload.get(row))
            nxt = node_next[row]
            if key in seen:
                # Unlink the duplicate row (the row itself stays allocated —
                # rows are append-only — it just leaves the class's span).
                if prev >= 0:
                    node_next[prev] = nxt
                else:
                    head = nxt
            else:
                seen.add(key)
                prev = row
                tail = row
            row = nxt
        self.class_head[class_id] = head
        self.class_tail[class_id] = tail
        if tail >= 0:
            node_next[tail] = -1

    def detach(self) -> None:
        """Stop observing the e-graph (the columns freeze at current state)."""
        self.egraph.detach_observer(self)

    # -- reads ----------------------------------------------------------------

    def find(self, class_id: int) -> int:
        """Canonical class id (path-halving walk over the parent column)."""
        parent = self.uf_parent
        root = class_id
        while parent[root] != root:
            parent[class_id] = parent[parent[class_id]]
            class_id = parent[class_id]
            root = parent[root]
        return root

    @property
    def generation(self) -> int:
        """Bumped on every union; view caches key their validity on it."""
        return self._generation

    @property
    def num_nodes(self) -> int:
        """Total node rows ever appended (dead/duplicate rows included)."""
        return len(self.node_op)

    def canonical_children(self, row: int) -> Tuple[int, ...]:
        """The canonical child class ids of node row ``row``."""
        start = self.child_start[row]
        end = self.child_start[row + 1]
        find = self.find
        return tuple(find(self.child_class[j]) for j in range(start, end))

    def classes_with_op(self, op: str) -> List[int]:
        """Sorted canonical class ids containing at least one ``op`` node."""
        oid = _OP_IDS.get(op)
        if oid is None:
            return []
        return sorted(self.by_op.get(oid, ()))

    def span_rows(self, class_id: int) -> Iterator[int]:
        """Node row ids of a class's span, in ``EClass.nodes`` order."""
        row = self.class_head[class_id]
        node_next = self.node_next
        while row >= 0:
            yield row
            row = node_next[row]

    def class_view(self, class_id: int) -> ClassView:
        """Build the canonical per-op view of one class (one span walk)."""
        view = ClassView()
        by_op = view.by_op
        node_op = self.node_op
        child_start = self.child_start
        child_class = self.child_class
        find = self.find
        payloads = self.node_payload
        var_op = _OP_IDS.get(VAR, -1)
        row = self.class_head[class_id]
        node_next = self.node_next
        while row >= 0:
            start = child_start[row]
            end = child_start[row + 1]
            children = tuple(find(child_class[j]) for j in range(start, end))
            oid = node_op[row]
            bucket = by_op.get(oid)
            if bucket is None:
                by_op[oid] = [children]
            else:
                bucket.append(children)
            if oid == var_op:
                payload = payloads.get(row)
                if payload is not None:
                    if view.var_payloads is _NO_PAYLOADS:
                        view.var_payloads = {payload}
                    else:
                        view.var_payloads.add(payload)
            row = node_next[row]
        return view

    def class_enodes(self, class_id: int) -> List[ENode]:
        """The span of a class reconstructed as canonical ``ENode`` objects."""
        out: List[ENode] = []
        for row in self.span_rows(class_id):
            out.append(
                ENode(
                    op=_OPS[self.node_op[row]],
                    children=self.canonical_children(row),
                    payload=self.node_payload.get(row),
                )
            )
        return out

    def canonical_class_ids(self) -> List[int]:
        """Sorted canonical class ids with a non-empty span."""
        return sorted(
            cid for cid in range(len(self.uf_parent))
            if self.uf_parent[cid] == cid and self.class_head[cid] >= 0
        )

    # -- invariants (test surface) ---------------------------------------------

    def check_lockstep(self) -> None:
        """Raise if the columns disagree with the object model.

        Verifies, for every canonical class: the union-find roots, the span's
        node sequence against ``EClass.nodes`` (canonical forms, order *and*
        multiplicity), and the per-op class sets against a from-scratch scan.
        The randomized column-store tests drive this after every mutation
        batch.
        """
        egraph = self.egraph
        if len(self.uf_parent) != len(egraph.union_find.parent):
            raise AssertionError(
                f"union-find width {len(self.uf_parent)} != object {len(egraph.union_find.parent)}"
            )
        for cid in range(len(self.uf_parent)):
            mine, theirs = self.find(cid), egraph.find(cid)
            if mine != theirs:
                raise AssertionError(f"find({cid}): column {mine} != object {theirs}")
        live = egraph.canonical_classes()
        spanned = set(self.canonical_class_ids())
        if spanned != set(live):
            raise AssertionError(
                f"canonical classes diverge: columns-only {sorted(spanned - set(live))}, "
                f"object-only {sorted(set(live) - spanned)}"
            )
        uf = egraph.union_find
        for cid, eclass in live.items():
            expected = [node.canonicalize(uf) for node in eclass.nodes]
            actual = self.class_enodes(cid)
            if expected != actual:
                raise AssertionError(
                    f"class {cid} span mismatch:\n  object  {expected}\n  columns {actual}"
                )
        scratch: Dict[int, Set[int]] = {}
        for cid, eclass in live.items():
            for node in eclass.nodes:
                scratch.setdefault(op_id(node.op), set()).add(cid)
        mine_by_op = {oid: ids for oid, ids in self.by_op.items() if ids}
        if mine_by_op != scratch:
            raise AssertionError(
                f"op buckets diverge: columns {mine_by_op} != scratch {scratch}"
            )
