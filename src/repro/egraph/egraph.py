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

:meth:`EGraph.add_key` is the one insertion entry point (one hashcons
probe, a row on a miss); :meth:`EGraph.add_term` validates and
canonicalizes before calling it.  Every hot path reads the union-find's
``parent`` list with a root fast path (``x if parent[x] == x else
find(x)``) and builds keys and child tuples by arity, for the language's
operators of two, one and no children.

Readers get canonical :class:`ENode` values from :meth:`EGraph.nodes_of` and
:meth:`EGraph.enodes` (span order, duplicates kept).  The two hot readers:
the batched matcher reads :meth:`EGraph.class_view` (child tuples per
operator, no e-nodes) and the frozen extraction snapshot reads
:meth:`EGraph.class_rows` (each class's distinct e-nodes only), so no
module but this one knows the row layout.

The e-graph calls out to no listener.  As in egg, the write path reports
what it did through return values: ``union`` returns the surviving root and
``rebuild`` the ``(root, merged-away class)`` pairs of its upward merges,
and :meth:`EGraph.rows_since` reads back the rows an insertion appended (row
``n`` is created with class ``n``).  The saturation engine's provenance log
is built from these three.  ``num_classes``/``num_nodes``/``num_rows`` are
O(1) counters: the engine polls them inside its hot loop, and the resource
sampler reads a run's adds and unions off them.
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
        self._num_classes = 0
        self._num_nodes = 0

    # -- core operations ------------------------------------------------------

    def find(self, class_id: int) -> int:
        """The canonical id of ``class_id``'s e-class."""
        return self.union_find.find(class_id)

    def add_term(self, op: str, children: Iterable[int] = (), payload: Optional[str] = None) -> int:
        """Add the e-node ``op(children)`` (hashconsed); returns its e-class id.

        ``payload`` names a VAR leaf; only leaves carry one.  Validates and
        canonicalizes, then inserts through :meth:`add_key`.
        """
        uf = self.union_find
        parent = uf.parent
        kids = tuple(children)
        if len(kids) == 2:
            a, b = kids
            kids = (a if parent[a] == a else uf.find(a), b if parent[b] == b else uf.find(b))
        elif kids:
            kids = tuple(map(uf.find, kids))
        if len(kids) != op_arity(op):
            raise ValueError(f"operator {op} expects {op_arity(op)} children, got {len(kids)}")
        oid = op_id(op)
        if payload is None:
            return self.add_key((oid, *kids))
        if kids:
            raise ValueError(f"operator {op} has children, so it cannot carry a payload")
        return self.add_key((oid, payload), payload)

    def add_key(self, key: Key, payload: Optional[str] = None) -> int:
        """Insert the e-node behind a canonical hashcons key; returns its class.

        The one insertion entry point: ``key`` is ``(op id, *canonical child
        class ids)``, or ``(op id, payload)`` for a leaf carrying ``payload``.
        One hashcons probe; a miss appends a row and a new class.  The caller
        validates (:meth:`add_term` does, the engine's compiled RHS programs
        build only keys of the language's operators).
        """
        hashcons = self.hashcons
        existing = hashcons.get(key)
        uf = self.union_find
        if existing is not None:
            return existing if uf.parent[existing] == existing else uf.find(existing)
        class_id = uf.make_set()
        hashcons[key] = class_id
        oid = key[0]
        node_op = self.node_op
        row = len(node_op)
        node_op.append(oid)
        self.spans.append([row])
        parents = self.parents
        parents.append([])
        self._num_classes += 1
        self._num_nodes += 1
        child_class = self.child_class
        if payload is None and len(key) > 1:
            entry = (key, class_id)
            if len(key) == 3:
                a, b = key[1], key[2]
                child_class.append(a)
                child_class.append(b)
                parents[a].append(entry)
                parents[b].append(entry)
            else:
                a = key[1]
                child_class.append(a)
                parents[a].append(entry)
        self.child_start.append(len(child_class))
        bucket = self.by_op.get(oid)
        if bucket is None:
            self.by_op[oid] = {class_id}
        else:
            bucket.add(class_id)
        if payload is not None:
            self.node_payload[row] = payload
            if oid == _VAR_ID:
                self.var_ids[payload] = class_id
        return class_id

    def var(self, name: str) -> int:
        """Add (or look up) a VAR leaf."""
        if name in self.var_ids:
            return self.find(self.var_ids[name])
        return self.add_key((_VAR_ID, name), name)

    def union(self, a: int, b: int) -> int:
        """Merge two e-classes; the congruence invariant is restored by ``rebuild``."""
        uf = self.union_find
        parent = uf.parent
        ra = a if parent[a] == a else uf.find(a)
        rb = b if parent[b] == b else uf.find(b)
        if ra == rb:
            return ra
        root = uf.union(ra, rb)
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
        return root

    def rebuild(self) -> List[Tuple[int, int]]:
        """Restore hashcons/congruence invariants; returns the upward merges
        as ``(root, merged-away class)`` pairs, in the order they were made."""
        merges: List[Tuple[int, int]] = []
        uf = self.union_find
        parent = uf.parent
        while self.worklist:
            todo = {c if parent[c] == c else uf.find(c) for c in self.worklist}
            self.worklist = []
            for class_id in todo:
                self._repair(class_id, merges)
        return merges

    def _repair(self, class_id: int, merges: List[Tuple[int, int]]) -> None:
        uf = self.union_find
        parent = uf.parent
        find = uf.find
        hashcons = self.hashcons
        if parent[class_id] != class_id:
            class_id = find(class_id)
        # Re-canonicalise parents and merge any that became congruent.  The
        # loop walks the live list, so parents a congruence union appends to
        # this class are repaired in the same pass.  Parents have one or two
        # children and no payload; a key whose children are all roots is
        # already canonical and is reused.
        new_parents: Dict[Key, int] = {}
        for key, parent_class in self.parents[class_id]:
            if len(key) == 3:
                oid, a, b = key
                if parent[a] == a and parent[b] == b:
                    canonical = key
                else:
                    canonical = (oid, a if parent[a] == a else find(a), b if parent[b] == b else find(b))
            else:
                oid, a = key
                canonical = key if parent[a] == a else (oid, find(a))
            hashcons.pop(key, None)
            # A reused key was just popped, so it cannot be in the hashcons.
            existing = None if canonical is key else hashcons.get(canonical)
            if parent[parent_class] != parent_class:
                parent_class = find(parent_class)
            if existing is not None:
                if parent[existing] != existing:
                    existing = find(existing)
                if existing != parent_class:
                    root = self.union(parent_class, existing)
                    merges.append((root, existing if root == parent_class else parent_class))
                    parent_class = root
            # A key already in ``new_parents`` needs no union: the parent
            # entries and the hashcons value under one canonical key always
            # lie in one e-class.  Keys enter the hashcons canonical, a key
            # whose child merged away is never canonical again, and a
            # re-keyed entry was unioned with the hashcons value just above.
            hashcons[canonical] = parent_class
            new_parents[canonical] = parent_class
        # The congruence unions above may have merged this class into another:
        # its parents and rows moved to the winner (which is on the worklist
        # and will repair the combined lists itself), so deduplicating here
        # would double-subtract from the node counter.
        if (class_id if parent[class_id] == class_id else find(class_id)) != class_id:
            return
        self.parents[class_id] = list(new_parents.items())
        # Deduplicate the class's own rows by canonical form (a one-row span
        # has nothing to drop).
        span = self.spans[class_id]
        if len(span) > 1:
            row_key = self._row_key
            seen: Dict[Key, int] = {}
            for row in span:
                seen.setdefault(row_key(row), row)
            if len(seen) != len(span):
                self._num_nodes -= len(span) - len(seen)
                self.spans[class_id] = list(seen.values())

    def _row_key(self, row: int) -> Key:
        """The canonical hashcons key of node row ``row``."""
        uf = self.union_find
        parent = uf.parent
        start = self.child_start[row]
        arity = self.child_start[row + 1] - start
        if arity == 2:
            a = self.child_class[start]
            b = self.child_class[start + 1]
            return (
                self.node_op[row],
                a if parent[a] == a else uf.find(a),
                b if parent[b] == b else uf.find(b),
            )
        if arity == 1:
            a = self.child_class[start]
            return (self.node_op[row], a if parent[a] == a else uf.find(a))
        payload = self.node_payload.get(row)
        return (self.node_op[row],) if payload is None else (self.node_op[row], payload)

    # -- queries ----------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        """Number of live (canonical) e-classes."""
        return self._num_classes

    @property
    def num_nodes(self) -> int:
        """Number of e-nodes across live classes (duplicates not yet repaired count)."""
        return self._num_nodes

    @property
    def num_rows(self) -> int:
        """Number of node rows ever appended: one per e-class ever created.

        Rows are never removed, so the count only grows; the class count
        rises with it and falls by one per effective union.
        """
        return len(self.node_op)

    def rows_since(self, start: int) -> Iterator[Tuple[int, ENode]]:
        """``(class id, e-node)`` for each row appended since :attr:`num_rows`
        read ``start``, in creation order: row ``n`` was created with class
        ``n``, and its children are the ids they had then (not re-canonicalized)."""
        child_start = self.child_start
        child_class = self.child_class
        for row in range(start, len(self.node_op)):
            children = tuple(child_class[child_start[row] : child_start[row + 1]])
            yield row, ENode(_OPS[self.node_op[row]], children, self.node_payload.get(row))

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
        """Iterate (class id, canonical e-node) pairs over all canonical classes
        (span order, duplicates kept)."""
        for cid, span in enumerate(self.spans):
            if span is not None:
                for row in span:
                    yield cid, self._enode(row)

    def class_rows(self) -> Iterator[Tuple[int, List[ENode]]]:
        """Every canonical class, in ascending id order, with its distinct
        canonical e-nodes: the first row of each canonical form, in span
        order.  The frozen extraction snapshot's reader: a root fast-path
        find per child, a key per row only in classes with several rows,
        and an :class:`ENode` per distinct row only."""
        uf = self.union_find
        parent = uf.parent
        find = uf.find
        node_op = self.node_op
        child_start = self.child_start
        child_class = self.child_class
        payloads = self.node_payload
        ops = _OPS
        for cid, span in enumerate(self.spans):
            if span is None:
                continue
            seen: Optional[Set[Key]] = set() if len(span) > 1 else None
            nodes: List[ENode] = []
            for row in span:
                oid = node_op[row]
                start = child_start[row]
                arity = child_start[row + 1] - start
                payload = None
                if arity == 2:
                    a = child_class[start]
                    b = child_class[start + 1]
                    kids: Tuple[int, ...] = (
                        a if parent[a] == a else find(a),
                        b if parent[b] == b else find(b),
                    )
                elif arity == 1:
                    a = child_class[start]
                    kids = (a if parent[a] == a else find(a),)
                else:
                    kids = ()
                    payload = payloads.get(row)
                if seen is not None:
                    key = (oid, *kids) if payload is None else (oid, payload)
                    if key in seen:
                        continue
                    seen.add(key)
                nodes.append(ENode(ops[oid], kids, payload))
            yield cid, nodes

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
        uf = self.union_find
        parent = uf.parent
        find = uf.find
        for row in self.spans[class_id]:
            oid = node_op[row]
            start = child_start[row]
            arity = child_start[row + 1] - start
            if arity == 2:
                a = child_class[start]
                b = child_class[start + 1]
                children: Tuple[int, ...] = (
                    a if parent[a] == a else find(a),
                    b if parent[b] == b else find(b),
                )
            elif arity == 1:
                a = child_class[start]
                children = (a if parent[a] == a else find(a),)
            else:
                children = ()
                if oid == _VAR_ID:
                    payload = self.node_payload.get(row)
                    if payload is not None:
                        if view.var_payloads is _NO_PAYLOADS:
                            view.var_payloads = {payload}
                        else:
                            view.var_payloads.add(payload)
            bucket = by_op.get(oid)
            if bucket is None:
                by_op[oid] = [children]
            else:
                bucket.append(children)
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
