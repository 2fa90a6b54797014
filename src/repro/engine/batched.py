"""Batched e-matching: every rule pattern compiled into generated Python loops.

This is the saturation engine's only matcher.  The per-pattern reference
searches every rule independently: 29 rules mean every e-class's node list
is scanned up to 29 times per iteration, and every scan re-canonicalizes
children through the object model.  The batched matcher inverts the loop and
then compiles it:

* every rule LHS is compiled into a *slot-normalized key sequence* (pattern
  variables renamed to positional slots in first-occurrence preorder, so
  ``(AND ?a ?b)`` and ``(AND ?x ?y)`` compile identically);
* sequences sharing a root operator are merged into a **trie** — all
  AND-rooted rules share one enumeration of AND nodes, and rules whose first
  child keys coincide (e.g. the leading ``?a`` of ``and-comm``, ``and-idem``
  and ``absorb-and``) share the child match itself;
* the trie is **compiled into Python source**, once per rule set and
  process: one function per root operator loops over the classes holding
  that operator and their rows, and every trie edge becomes a plain loop or
  test whose pattern variables are locals.  Whether a slot is bound is known
  at compile time on every trie path, so a variable edge is an assignment or
  an equality test, a symbol edge is a ``var_payloads`` membership test, an
  all-variable operator key is one loop over the child class's rows of that
  operator, and a nested operator key is a generated helper returning its
  bind tuples;
* matching reads :class:`~repro.egraph.egraph.ClassView` class views, each
  built on first use and kept for one search, so the e-graph is traversed
  once per iteration instead of once per rule; a root row looks up its
  children's views once;
* before a nested key's loop, a **sibling guard** tests that every later
  sibling operator key has rows of its operator in its (already known)
  child class, so a loop that cannot reach a match is skipped.

Parity with the per-pattern reference (:func:`repro.egraph.pattern.search`)
is exact, not approximate.  Candidate classes are visited in sorted order
and rows in span order, and the generated loops run depth-first, so each
substitution frontier is produced in the reference's order.  The frontier
caps of :data:`~repro.egraph.pattern.MAX_SUBSTITUTIONS_PER_NODE` are exact
counters: one per operator edge per root row, and one per operator child
per (substitution, row) inside a nested key, so they cut the same prefix the
reference's capped fold keeps.  Per-rule ``limit`` truncation keeps the same
prefix too.  A batched run therefore applies the same matches in the same
order and lands on the same e-graph (pinned by ``tests/test_batched.py``).

A match is a ``(class id, slot tuple)`` pair: the rule's variable bindings
in :func:`compile_pattern` slot order, named by :attr:`BatchedMatcher.names`.
Rules banned by the :class:`~repro.engine.scheduler.BackoffScheduler` for an
iteration are pruned: an edge runs only while a rule below it is open.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph import pattern as _pattern
from repro.egraph.egraph import ClassView, EGraph, op_id
from repro.egraph.language import OPERATORS
from repro.egraph.pattern import Pattern, PatternNode
from repro.egraph.rewrite import Rewrite

#: A compiled subpattern key: ("var", slot) | ("sym", name) | ("op", op, (keys...)).
Key = Tuple

#: One match: the matched class id and the rule's slot values, in
#: :func:`compile_pattern` slot order.
SlotMatch = Tuple[int, Tuple[int, ...]]


def _key_of(node: PatternNode, slots: Dict[str, int], order: List[str]) -> Key:
    """Slot-normalize one pattern node (first-occurrence slot numbering)."""
    if node.kind == "pattern_var":
        slot = slots.get(node.name)
        if slot is None:
            slot = len(order)
            slots[node.name] = slot
            order.append(node.name)
        return ("var", slot)
    if node.kind == "symbol":
        return ("sym", node.name)
    return ("op", node.op, tuple(_key_of(child, slots, order) for child in node.children))


def compile_pattern(pattern: Pattern) -> Tuple[Optional[str], Tuple[Key, ...], Tuple[str, ...]]:
    """Compile an LHS into (root op, child keys, slot -> variable names).

    Returns ``root_op=None`` for patterns whose root is not an operator (a
    bare ``?x`` or symbol LHS) — those fall back to the per-pattern search.
    """
    slots: Dict[str, int] = {}
    order: List[str] = []
    root = pattern.root
    if root.kind != "op":
        return None, (), ()
    child_keys = tuple(_key_of(child, slots, order) for child in root.children)
    return root.op, child_keys, tuple(order)


def _key_slots(key: Key) -> Set[int]:
    """All variable slots occurring anywhere inside a structural key."""
    kind = key[0]
    if kind == "var":
        return {key[1]}
    if kind == "sym":
        return set()
    out: Set[int] = set()
    for child in key[2]:
        out |= _key_slots(child)
    return out


@dataclass
class _Terminal:
    """A rule completing at a trie node: index plus its slot -> name map."""

    rule_index: int
    names: Tuple[str, ...]


@dataclass
class _TrieNode:
    """One shared-prefix position: outgoing edges plus completed rules."""

    #: ``(structural key, child node)`` per edge, in registration order.
    edges: List[Tuple[Key, "_TrieNode"]] = field(default_factory=list)
    terminals: List[_Terminal] = field(default_factory=list)
    #: Every rule index reachable in this subtree (ban pruning reads this).
    rules: Set[int] = field(default_factory=set)

    def child(self, key: Key) -> "_TrieNode":
        """The edge for ``key``, created on first use (prefix sharing)."""
        for existing, node in self.edges:
            if existing == key:
                return node
        node = _TrieNode()
        self.edges.append((key, node))
        return node


class _Views(dict):
    """Class id -> :class:`ClassView`, each built on first access.

    One search's scratch: the views are frozen for the search, and the dict
    dies with it, so the next apply phase never carries class-sized state.
    """

    __slots__ = ("build",)

    def __init__(self, build: Callable[[int], ClassView]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, class_id: int) -> ClassView:
        view = self[class_id] = self.build(class_id)
        return view


def _later_ops(tnode: _TrieNode, position: int) -> List[FrozenSet[Tuple[int, int]]]:
    """Per rule path below ``tnode`` (whose edges match child ``position``),
    the ``(position, op id)`` pairs of its operator keys: the operator rows
    the path needs in the classes of the later children."""
    if not tnode.edges:
        return [frozenset()]
    paths: List[FrozenSet[Tuple[int, int]]] = []
    for key, child in tnode.edges:
        need = {(position, op_id(key[1]))} if key[0] == "op" else set()
        paths.extend(need | below for below in _later_ops(child, position + 1))
    return paths


def _op_positions(tnode: _TrieNode, position: int) -> Set[int]:
    """The child positions an operator key matches anywhere below ``tnode``."""
    out: Set[int] = set()
    for key, child in tnode.edges:
        if key[0] == "op":
            out.add(position)
        out |= _op_positions(child, position + 1)
    return out


def _sibling_test(paths: Sequence[FrozenSet[Tuple[int, int]]], ops_of: Callable[[int], str]) -> Optional[str]:
    """Source of a test that some path's later sibling operator keys each
    find rows of their operator in their child's class (``ops_of(i)`` is
    the source of child ``i``'s ``by_op``), or None when some path needs
    none.  Failing it proves that no match can come out of the nested key's
    loop, so skipping the loop changes no output, counter or memo value."""
    if not paths or not all(paths):
        return None
    terms = sorted({" and ".join(f"{oid} in {ops_of(i)}" for i, oid in sorted(path)) for path in paths})
    if len(terms) == 1:
        return terms[0]
    return " or ".join(f"({term})" for term in terms)


def _pad(depth: int) -> str:
    return "    " * depth


def _tuple_text(items: Sequence[str]) -> str:
    """Source of a tuple display (``()``, ``(a,)``, ``(a, b)``)."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


def _targets(items: Sequence[str]) -> str:
    """Source of an assignment or ``for`` target unpacking ``items``."""
    if not items:
        return "_"
    return f"{items[0]}," if len(items) == 1 else ", ".join(items)


def _any_open(rules: Iterable[int]) -> str:
    return " or ".join(f"o{r}" for r in sorted(rules))


class _Codegen:
    """Emits the matcher source for one trie (see :class:`BatchedMatcher`).

    Generated names: ``s<k>`` holds slot ``k``; ``out<r>``/``o<r>`` are rule
    ``r``'s match list and open flag; ``c<i>`` is a root row's child ``i``
    and ``B<i>`` its view's ``by_op``; ``x<i>`` is a helper row's child ``i``;
    ``n<e>``/``m<i>`` are frontier counters; ``_h<j>`` is a nested-key
    helper and ``_m<j>`` its per-search memo.  No pattern text reaches the
    source: operator ids, slots and the cap are integers, and symbol names
    are constants of the exec namespace.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.namespace: Dict[str, object] = {"__builtins__": {}, "len": len}
        self.symbols: Dict[str, str] = {}
        self.helpers: Dict[Tuple, Tuple[str, Optional[str], Tuple[int, ...], Tuple[int, ...]]] = {}
        self.helper_lines: List[str] = []
        self.serial = 0
        #: Class name -> the local holding its view's ``by_op`` (a root
        #: row's children, read once per row).
        self.hoisted: Dict[str, str] = {}

    def fresh(self, prefix: str) -> str:
        """A local name not used anywhere else in the source."""
        self.serial += 1
        return f"{prefix}{self.serial}"

    def ops_of(self, cls: str) -> str:
        """Source of class ``cls``'s per-operator rows (its view's ``by_op``)."""
        return self.hoisted.get(cls) or f"V[{cls}].by_op"

    def symbol(self, name: str) -> str:
        """The namespace constant holding VAR name ``name``."""
        const = self.symbols.get(name)
        if const is None:
            const = self.symbols[name] = f"_S{len(self.symbols)}"
            self.namespace[const] = name
        return const

    # -- one key ---------------------------------------------------------------

    def match_key(self, out, depth, key, cls, bound, counter, guard, body, siblings=None) -> None:
        """Emit the enumeration of ``key``'s matches against class ``cls``.

        ``bound`` is the set of slots bound on entry; ``body(depth, bound)``
        emits the code run once per match, with the key's slots bound.  An
        operator key increments ``counter`` per match and stops at the cap;
        ``guard`` re-checks the counter on entry when earlier loops may
        already have filled it.  Variable and symbol keys never multiply the
        frontier, so they need no counter.  ``siblings`` is the source of a
        test that later sibling keys can match at all (see
        :func:`_sibling_test`); a nested key's loop runs only when it holds.
        """
        kind = key[0]
        if kind == "var":
            slot = key[1]
            if slot in bound:
                out.append(f"{_pad(depth)}if {cls} == s{slot}:")
                body(depth + 1, bound)
            else:
                out.append(f"{_pad(depth)}s{slot} = {cls}")
                body(depth, bound | {slot})
            return
        if kind == "sym":
            out.append(f"{_pad(depth)}if {self.symbol(key[1])} in V[{cls}].var_payloads:")
            body(depth + 1, bound)
            return
        if guard:
            out.append(f"{_pad(depth)}if {counter} < {self.cap}:")
            depth += 1
        children = key[2]
        if all(child[0] == "var" for child in children):
            # Flat key: one loop over the class's rows of the operator, each
            # position binding or testing its slot.
            row = self.fresh("r")
            out.append(f"{_pad(depth)}for {row} in {self.ops_of(cls)}.get({op_id(key[1])}, ()):")
            depth += 1
            targets: List[str] = []
            tests: List[str] = []
            local = set(bound)
            for child in children:
                slot = child[1]
                if slot in local:
                    temp = self.fresh("t")
                    targets.append(temp)
                    tests.append(f"{temp} != s{slot}")
                else:
                    targets.append(f"s{slot}")
                    local.add(slot)
            if targets:
                out.append(f"{_pad(depth)}{_targets(targets)} = {row}")
            if tests:
                out.append(f"{_pad(depth)}if {' or '.join(tests)}:")
                out.append(f"{_pad(depth + 1)}continue")
        else:
            if siblings:
                out.append(f"{_pad(depth)}if {siblings}:")
                depth += 1
            name, memo, params, fresh_slots = self.helper(key, bound)
            if memo is not None:
                binds = self.fresh("b")
                out.append(f"{_pad(depth)}{binds} = {memo}.get({cls})")
                out.append(f"{_pad(depth)}if {binds} is None:")
                out.append(f"{_pad(depth + 1)}{binds} = {memo}[{cls}] = {name}({cls})")
                source = binds
            else:
                source = f"{name}({', '.join([cls] + [f's{p}' for p in params])})"
            out.append(f"{_pad(depth)}for {_targets([f's{k}' for k in fresh_slots])} in {source}:")
            depth += 1
        out.append(f"{_pad(depth)}{counter} += 1")
        body(depth, bound | _key_slots(key))
        out.append(f"{_pad(depth)}if {counter} >= {self.cap}:")
        out.append(f"{_pad(depth + 1)}break")

    def helper(self, key: Key, bound) -> Tuple[str, Optional[str], Tuple[int, ...], Tuple[int, ...]]:
        """The helper matching nested operator ``key`` (generated once).

        The helper takes a class id plus the values of the key's slots bound
        upstream, and returns the key's matches as tuples of its other slots,
        at most the cap of them: every consumer counts against a cap, so the
        tail is never read.  A key with no slot bound upstream gets a
        per-search ``class id -> bind tuples`` memo, since its matches then
        depend on the class alone.
        """
        slots = _key_slots(key)
        params = tuple(sorted(slots & bound))
        fresh_slots = tuple(sorted(slots - bound))
        found = self.helpers.get((key, params))
        if found is not None:
            return found
        index = len(self.helpers)
        name = f"_h{index}"
        memo = None if params else f"_m{index}"
        entry = self.helpers[(key, params)] = (name, memo, params, fresh_slots)
        children = key[2]
        lines = [
            f"def {name}({', '.join(['c'] + [f's{p}' for p in params])}):",
            "    V = views",
            "    found = []",
            f"    for r in V[c].by_op.get({op_id(key[1])}, ()):",
            f"        {_targets([f'x{i}' for i in range(len(children))])} = r",
        ]
        # Each operator child caps its own frontier per (substitution, row):
        # reset before the first child's loop, never inside an earlier one.
        counters = [f"m{i}" for i, child in enumerate(children) if child[0] == "op"]
        if counters:
            lines.append(f"        {' = '.join(counters)} = 0")

        def chain(i: int, depth: int, now_bound, multiplied: bool) -> None:
            if i == len(children):
                lines.append(f"{_pad(depth)}found.append({_tuple_text([f's{k}' for k in fresh_slots])})")
                lines.append(f"{_pad(depth)}if len(found) >= {self.cap}:")
                lines.append(f"{_pad(depth + 1)}return found")
                return
            child = children[i]
            is_op = child[0] == "op"
            later = frozenset(
                (j, op_id(sibling[1])) for j, sibling in enumerate(children) if j > i and sibling[0] == "op"
            )
            self.match_key(
                lines, depth, child, f"x{i}", now_bound,
                f"m{i}" if is_op else None, multiplied and is_op,
                lambda d, b: chain(i + 1, d, b, multiplied or is_op),
                _sibling_test([later], lambda j: self.ops_of(f"x{j}")),
            )

        chain(0, 2, frozenset(params), False)
        del chain  # chain holds itself through its closure cell: leave no cycle
        lines.append("    return found")
        self.helper_lines.extend(lines)
        return entry

    # -- the trie --------------------------------------------------------------

    def trie(self, out, depth, tnode, position, arity, bound, under_op, row_counters) -> None:
        """Emit one trie node: its terminals, then each edge in order."""
        for terminal in tnode.terminals:
            r = terminal.rule_index
            slots = _tuple_text([f"s{k}" for k in range(len(terminal.names))])
            out.append(f"{_pad(depth)}if o{r}:")
            out.append(f"{_pad(depth + 1)}out{r}.append((cid, {slots}))")
            out.append(f"{_pad(depth + 1)}if len(out{r}) >= limit:")
            out.append(f"{_pad(depth + 2)}o{r} = False")
        if position == arity:
            return
        for key, child in tnode.edges:
            edge_depth = depth
            if tnode.terminals or child.rules != tnode.rules:
                out.append(f"{_pad(depth)}if {_any_open(child.rules)}:")
                edge_depth += 1
            counter = None
            if key[0] == "op":
                counter = self.fresh("n")
                # An edge's frontier spans every substitution reaching it in
                # one root row: below another operator edge that is many
                # loop passes, so the counter is reset once per row.
                if under_op:
                    row_counters.append(counter)
                else:
                    out.append(f"{_pad(edge_depth)}{counter} = 0")
            self.match_key(
                out, edge_depth, key, f"c{position}", bound, counter, under_op,
                lambda d, b, child=child, key=key: self.trie(
                    out, d, child, position + 1, arity, b,
                    under_op or key[0] == "op", row_counters,
                ),
                _sibling_test(_later_ops(child, position + 1), lambda j: self.ops_of(f"c{j}")),
            )

    def root(self, index: int, op: str, tnode: _TrieNode) -> List[str]:
        """One root operator's search function."""
        arity = OPERATORS[op].arity
        any_open = _any_open(tnode.rules)
        lines = [f"def _root{index}(classes, outs, limit):", "    V = views"]
        for r in sorted(tnode.rules):
            lines.append(f"    out{r} = outs.get({r})")
            lines.append(f"    o{r} = out{r} is not None")
        lines += [
            f"    if not ({any_open}):",
            "        return",
            "    for cid in classes:",
            f"        for row in V[cid].by_op.get({op_id(op)}, ()):",
        ]
        if arity:
            lines.append(f"            {_targets([f'c{i}' for i in range(arity)])} = row")
        # A child read by an operator key is read by many edges: look its
        # view up once per row.
        for i in sorted(_op_positions(tnode, 0)):
            self.hoisted[f"c{i}"] = f"B{i}"
            lines.append(f"            B{i} = V[c{i}].by_op")
        body: List[str] = []
        row_counters: List[str] = []
        self.trie(body, 3, tnode, 0, arity, frozenset(), False, row_counters)
        self.hoisted = {}
        if row_counters:
            lines.append(f"            {' = '.join(row_counters)} = 0")
        lines += body
        lines += [f"        if not ({any_open}):", "            return"]
        return lines

    def module(self, roots: Sequence[Tuple[str, _TrieNode]]) -> str:
        """The whole source: ``_make(views)`` returns the root functions,
        closed over one search's views and memos."""
        root_lines: List[str] = []
        for index, (op, tnode) in enumerate(roots):
            root_lines += self.root(index, op, tnode)
        memos = [memo for _, memo, _, _ in self.helpers.values() if memo is not None]
        lines = ["def _make(views):"]
        lines += [f"    {memo} = {{}}" for memo in memos]
        lines += ["    " + line for line in self.helper_lines + root_lines]
        lines.append(f"    return {_tuple_text([f'_root{i}' for i in range(len(roots))])}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Program:
    """A compiled matcher: its source and the ``_make`` factory."""

    source: str
    make: Callable


#: The process-wide compile cache, keyed by everything the source depends
#: on: the cap and each rule's compiled LHS (root op, child keys, width).
_PROGRAMS: Dict[Tuple, _Program] = {}


def _compile(roots: Sequence[Tuple[str, _TrieNode]], cap: int) -> _Program:
    gen = _Codegen(cap)
    source = gen.module(roots)
    namespace = gen.namespace
    exec(compile(source, "<batched-matcher>", "exec"), namespace)
    return _Program(source=source, make=namespace["_make"])


class BatchedMatcher:
    """All rules' LHS patterns as one trie, compiled into generated loops.

    The source is generated once per process per rule set and cap (the cap
    is :data:`repro.egraph.pattern.MAX_SUBSTITUTIONS_PER_NODE`, read when the
    matcher is built); :attr:`source` keeps it for debugging.
    """

    def __init__(self, rules: Sequence[Rewrite]) -> None:
        self.rules = list(rules)
        #: Per rule, the variable name of each slot of its match tuples.
        self.names: List[Tuple[str, ...]] = []
        #: ``(root op, subtree)`` per distinct root operator.
        self.roots: List[Tuple[str, _TrieNode]] = []
        self.fallback: List[int] = []
        by_root: Dict[str, _TrieNode] = {}
        signature = []
        for index, rule in enumerate(self.rules):
            root_op, child_keys, names = compile_pattern(rule.lhs)
            if root_op is None:
                self.names.append(tuple(rule.lhs.variables))
                self.fallback.append(index)
                signature.append(None)
                continue
            self.names.append(names)
            signature.append((root_op, child_keys, len(names)))
            node = by_root.get(root_op)
            if node is None:
                node = by_root[root_op] = _TrieNode()
                self.roots.append((root_op, node))
            node.rules.add(index)
            for key in child_keys:
                node = node.child(key)
                node.rules.add(index)
            node.terminals.append(_Terminal(rule_index=index, names=names))
        cap = _pattern.MAX_SUBSTITUTIONS_PER_NODE
        cache_key = (cap, tuple(signature))
        program = _PROGRAMS.get(cache_key)
        if program is None:
            program = _PROGRAMS[cache_key] = _compile(self.roots, cap)
        self._make = program.make
        self.source = program.source

    def search(
        self,
        egraph: EGraph,
        active: Iterable[int],
        limit: Optional[int] = None,
    ) -> Dict[int, List[SlotMatch]]:
        """Match every active rule in one shared e-graph walk.

        ``active`` lists the rule indices the scheduler allows this iteration
        (banned rules' subtrees are pruned); ``limit`` is the per-rule match
        cap, truncating with the same prefix as the per-pattern reference.
        Rules whose LHS root is not an operator run the per-pattern search.
        Returns ``(class id, slot tuple)`` matches per rule index, each list
        in reference order.
        """
        active_set = set(active)
        out: Dict[int, List[SlotMatch]] = {index: [] for index in active_set}
        budget = sys.maxsize if limit is None else limit
        # Class views and memos are locals on purpose: they die when the
        # search returns, so the next apply phase never carries them.
        functions = self._make(_Views(egraph.class_view))
        for (root_op, tnode), function in zip(self.roots, functions):
            if not tnode.rules.isdisjoint(active_set):
                function(egraph.classes_with_op(root_op), out, budget)
        for index in self.fallback:
            if index in active_set:
                names = self.names[index]
                out[index] = [
                    (match.class_id, tuple(match.substitution[name] for name in names))
                    for match in self.rules[index].search(egraph, limit=limit)
                ]
        return out

    # -- introspection (tests, docs) -------------------------------------------

    def trie_stats(self) -> Dict[str, int]:
        """Sizes of the compiled trie (shared-prefix savings are visible as
        ``nodes`` being smaller than the sum of per-rule pattern sizes)."""
        nodes = 0
        edges = 0

        def walk(node: _TrieNode) -> None:
            nonlocal nodes, edges
            nodes += 1
            edges += len(node.edges)
            for _, child in node.edges:
                walk(child)

        for _, node in self.roots:
            walk(node)
        return {
            "roots": len(self.roots),
            "nodes": nodes,
            "edges": edges,
            "rules": len(self.rules) - len(self.fallback),
            "fallback_rules": len(self.fallback),
        }
