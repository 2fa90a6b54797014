"""The e-graph: hashconsed canonical e-nodes kept as integer rows.

The algorithm is egg's (Willsey et al., POPL'21): a union-find tracks merged
e-classes, a hashcons maps every canonical e-node to its class, and
``rebuild`` restores the congruence invariant after a batch of unions, which
is what makes rewriting fast.  The storage is egglog-style integer rows
(Zhang et al., PLDI'23) instead of one Python object per e-node and e-class:

* ``union_find`` — the union-find lists (union by size, path compression);
* node rows, append-only in creation order: ``node_op`` (interned operator id,
  see :func:`op_id`), CSR children (row ``n``'s child class ids, as they were
  when the row was created, are ``child_class[child_start[n]:child_start[n + 1]]``)
  and ``node_payload`` (row -> VAR name, sparse).  Rows are never rewritten:
  readers canonicalize children through ``find``;
* ``spans[c]`` — the rows of class ``c`` in insertion order (``None`` once
  ``c`` is merged away).  A union appends the loser's span to the winner's;
  congruence repair drops a row whose canonical form repeats an earlier
  row's (first occurrence wins), so duplicates that repair has not reached
  yet stay, exactly as egg's per-class node lists keep them;
* ``by_op[op id]`` — the canonical classes holding a row of that operator
  (the batched matcher's candidate classes);
* ``hashcons`` — key -> class id, where a key is the integer tuple
  ``(op id, *child class ids)``, plus the name for a VAR leaf;
* ``parents[c]`` — one ``(key, class id)`` entry per node using ``c`` as a
  child (``None`` once ``c`` is merged away), which repair re-canonicalizes.

Readers get canonical :class:`ENode` values from :meth:`EGraph.nodes_of` and
:meth:`EGraph.enodes` (span order, duplicates kept).  The two hot readers
skip the e-nodes: the batched matcher reads :meth:`EGraph.class_view` and
the frozen extraction snapshot reads :meth:`EGraph.class_rows`, so no
module but this one knows the row layout.

Observers registered through :meth:`EGraph.attach_observer` receive
``on_add(class_id, enode)`` for every new e-class and ``on_union(root,
other)`` for every merge, including the upward merges ``rebuild`` performs;
the provenance log and the resource sampler are the two clients.  Repair
re-canonicalizes nodes without callbacks, so an observer that keys records by
(class id, e-node) must re-canonicalize both sides under the final union-find
when it looks records up.  ``num_classes``/``num_nodes`` are O(1) counters:
the saturation engine polls them inside its hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.egraph.language import VAR, op_arity
from repro.egraph.unionfind import UnionFind


@dataclass(frozen=True)
class ENode:
    """An e-node: an operator applied to child e-classes.

    ``payload`` carries the symbol name for VAR nodes and is None otherwise.
    """

    op: str
    children: Tuple[int, ...] = ()
    payload: Optional[str] = None

    def canonicalize(self, uf: UnionFind) -> "ENode":
        """The same e-node with every child replaced by its canonical id."""
        return ENode(self.op, tuple(uf.find(c) for c in self.children), self.payload)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.payload is not None:
            return f"{self.op}({self.payload})"
        if self.children:
            return f"{self.op}({', '.join(map(str, self.children))})"
        return self.op


#: Process-wide operator interning: ``op_id(op)`` is stable for the lifetime
#: of the process, so tries compiled once can be reused across e-graphs.
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


_VAR_ID = op_id(VAR)

#: A hashcons key: ``(op id, *child class ids)``, or ``(op id, name)`` for a
#: VAR leaf.
Key = Tuple

#: The ``var_payloads`` of every view without VAR leaves (almost all of them).
_NO_PAYLOADS: AbstractSet[str] = frozenset()


class ClassView:
    """One class's e-nodes, canonicalized and bucketed by operator.

    ``by_op[op id] -> [(children...), ...]`` lists the canonical child tuples
    of the class's rows with that operator, in span order; ``var_payloads``
    collects the VAR leaf names (one shared empty set for classes without
    leaves).  The batched matcher builds one view per class per search.
    """

    __slots__ = ("by_op", "var_payloads")

    def __init__(self) -> None:
        self.by_op: Dict[int, List[Tuple[int, ...]]] = {}
        self.var_payloads: AbstractSet[str] = _NO_PAYLOADS


class EGraph:
    """An e-graph over the Boolean term language (see the module docstring)."""

    def __init__(self) -> None:
        self.union_find = UnionFind()
        self.node_op: List[int] = []
        self.child_start: List[int] = [0]
        self.child_class: List[int] = []
        self.node_payload: Dict[int, str] = {}
        self.spans: List[Optional[List[int]]] = []
        self.by_op: Dict[int, Set[int]] = {}
        self.hashcons: Dict[Key, int] = {}
        self.parents: List[Optional[List[Tuple[Key, int]]]] = []
        self.worklist: List[int] = []
        self.var_ids: Dict[str, int] = {}
        self.observers: List[object] = []
        self._num_classes = 0
        self._num_nodes = 0

    # -- observers -------------------------------------------------------------

    def attach_observer(self, observer: object) -> None:
        """Start sending ``on_add``/``on_union`` events to ``observer``."""
        if observer not in self.observers:
            self.observers.append(observer)

    def detach_observer(self, observer: object) -> None:
        """Stop sending events to ``observer``."""
        if observer in self.observers:
            self.observers.remove(observer)

    # -- core operations ------------------------------------------------------

    def find(self, class_id: int) -> int:
        """The canonical id of ``class_id``'s e-class."""
        return self.union_find.find(class_id)

    def add_term(self, op: str, children: Iterable[int] = (), payload: Optional[str] = None) -> int:
        """Add the e-node ``op(children)`` (hashconsed); returns its e-class id.

        ``payload`` names a VAR leaf; only leaves carry one.
        """
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

    def var(self, name: str) -> int:
        """Add (or look up) a VAR leaf."""
        if name in self.var_ids:
            return self.find(self.var_ids[name])
        return self.add_term(VAR, (), name)

    def union(self, a: int, b: int) -> int:
        """Merge two e-classes; the congruence invariant is restored by ``rebuild``."""
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
        # Extend in place: a repair iterating the root's parent list sees the
        # merged entries, as egg's parent vector does.
        self.parents[root].extend(self.parents[other])
        self.parents[other] = None
        self.worklist.append(root)
        self._num_classes -= 1
        for observer in self.observers:
            observer.on_union(root, other)
        return root

    def rebuild(self) -> int:
        """Restore hashcons/congruence invariants; returns number of upward merges."""
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
        # Re-canonicalise parents and merge any that became congruent.  The
        # loop walks the live list, so parents a congruence union appends to
        # this class are repaired in the same pass.
        new_parents: Dict[Key, int] = {}
        for key, parent_class in self.parents[class_id]:
            # Parents have children, hence no payload: every slot after the
            # op id is a class id.
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
        # The congruence unions above may have merged this class into another:
        # its parents and rows moved to the winner (which is on the worklist
        # and will repair the combined lists itself), so deduplicating here
        # would double-subtract from the node counter.
        if find(class_id) != class_id:
            return merges
        self.parents[class_id] = list(new_parents.items())
        # Deduplicate the class's own rows by canonical form.
        span = self.spans[class_id]
        seen: Dict[Key, int] = {}
        for row in span:
            seen.setdefault(self._row_key(row), row)
        if len(seen) != len(span):
            self._num_nodes -= len(span) - len(seen)
            self.spans[class_id] = list(seen.values())
        return merges

    def _row_key(self, row: int) -> Key:
        """The canonical hashcons key of node row ``row``."""
        start, end = self.child_start[row], self.child_start[row + 1]
        if start == end:
            payload = self.node_payload.get(row)
            return (self.node_op[row],) if payload is None else (self.node_op[row], payload)
        return (self.node_op[row], *map(self.union_find.find, self.child_class[start:end]))

    # -- queries ----------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        """Number of live (canonical) e-classes."""
        return self._num_classes

    @property
    def num_nodes(self) -> int:
        """Number of e-nodes across live classes (duplicates not yet repaired count)."""
        return self._num_nodes

    def class_ids(self) -> List[int]:
        """Canonical class ids in ascending order."""
        return [cid for cid, span in enumerate(self.spans) if span is not None]

    def _enode(self, row: int) -> ENode:
        start, end = self.child_start[row], self.child_start[row + 1]
        return ENode(
            _OPS[self.node_op[row]],
            tuple(map(self.union_find.find, self.child_class[start:end])),
            self.node_payload.get(row),
        )

    def nodes_of(self, class_id: int) -> List[ENode]:
        """The canonical e-nodes of a class, in span order (duplicates kept)."""
        return [self._enode(row) for row in self.spans[self.find(class_id)]]

    def enodes(self) -> Iterator[Tuple[int, ENode]]:
        """Iterate (class id, canonical e-node) pairs over all canonical classes."""
        for cid, rows in self.class_rows():
            for op, children, payload in rows:
                yield cid, ENode(op, children, payload)

    def class_rows(self) -> Iterator[Tuple[int, List[Tuple[str, Tuple[int, ...], Optional[str]]]]]:
        """Every canonical class, in ascending id order, with its rows as
        ``(op, canonical children, payload)`` tuples in span order
        (duplicates kept): :meth:`enodes` without building e-nodes."""
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

    def classes_with_op(self, op: str) -> List[int]:
        """Sorted canonical class ids containing at least one ``op`` node."""
        oid = _OP_IDS.get(op)
        if oid is None:
            return []
        return sorted(self.by_op.get(oid, ()))

    def class_view(self, class_id: int) -> ClassView:
        """The canonical per-operator view of one class (one span walk)."""
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

    def stats(self) -> Dict[str, int]:
        """Live class and node counts plus the number of named inputs."""
        return {"classes": self._num_classes, "nodes": self._num_nodes, "vars": len(self.var_ids)}

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if a storage invariant is violated (for tests).

        Checked from scratch: spans and parent lists live exactly on the
        union-find roots, every row sits in at most one span, both counters,
        the per-operator class buckets, the hashcons (every row's canonical
        key maps to its class), congruence (no canonical key in two classes),
        and parent coverage (every row is listed, under a key with the same
        canonical form, by each of its children).  Call it after ``rebuild``.
        """
        find = self.find
        width = len(self.union_find)
        if len(self.spans) != width or len(self.parents) != width:
            raise AssertionError(
                f"{len(self.spans)} spans / {len(self.parents)} parent lists for {width} class ids"
            )
        live = self.class_ids()
        for cid in range(width):
            is_root = find(cid) == cid
            if is_root != (self.spans[cid] is not None) or is_root != (self.parents[cid] is not None):
                raise AssertionError(f"class {cid}: root={is_root} but span/parents liveness disagrees")
        if len(live) != self._num_classes:
            raise AssertionError(f"class counter {self._num_classes} != live classes {len(live)}")
        rows = [row for cid in live for row in self.spans[cid]]
        if len(rows) != self._num_nodes:
            raise AssertionError(f"node counter {self._num_nodes} != live nodes {len(rows)}")
        if len(set(rows)) != len(rows):
            raise AssertionError("a node row sits in more than one span")
        listed = {cid: {(k[0], *map(find, k[1:])) for k, _ in self.parents[cid]} for cid in live}
        scratch: Dict[int, Set[int]] = {}
        owner: Dict[Key, int] = {}
        for cid in live:
            if not self.spans[cid]:
                raise AssertionError(f"live class {cid} has an empty span")
            for row in self.spans[cid]:
                scratch.setdefault(self.node_op[row], set()).add(cid)
                key = self._row_key(row)
                mapped = self.hashcons.get(key)
                if mapped is None:
                    raise AssertionError(f"node {self._enode(row)} of class {cid} missing from hashcons")
                if find(mapped) != cid:
                    raise AssertionError(
                        f"hashcons maps {self._enode(row)} to class {find(mapped)}, expected {cid}"
                    )
                if owner.setdefault(key, cid) != cid:
                    raise AssertionError(f"congruence violated for {self._enode(row)}")
                for child in set(self._enode(row).children):
                    if key not in listed[child]:
                        raise AssertionError(f"class {child} does not list parent {self._enode(row)}")
        buckets = {oid: ids for oid, ids in self.by_op.items() if ids}
        if buckets != scratch:
            raise AssertionError(f"op buckets {buckets} != scratch scan {scratch}")
