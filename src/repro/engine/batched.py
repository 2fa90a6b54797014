"""Batched e-matching: all rule patterns compiled into one shared-prefix trie.

This is the saturation engine's only matcher.  The per-pattern reference
searches every rule independently: 29 rules mean every e-class's node list
is scanned up to 29 times per iteration, and every scan re-canonicalizes
children through the object model.  The batched matcher inverts the loop:

* every rule LHS is compiled into a *slot-normalized key sequence* (pattern
  variables renamed to positional slots in first-occurrence preorder, so
  ``(AND ?a ?b)`` and ``(AND ?x ?y)`` compile identically);
* sequences sharing a root operator are merged into a **trie** — all
  AND-rooted rules share one enumeration of AND nodes, and rules whose first
  child keys coincide (e.g. the leading ``?a`` of ``and-comm``, ``and-idem``
  and ``absorb-and``) share the child-fold itself;
* matching runs over :class:`~repro.egraph.egraph.ClassView` class views:
  each class's row span is walked **once per iteration** to build a
  canonical per-op view, and every rule under every trie branch reads that
  view — the e-graph is traversed once total instead of once per rule;
* every trie edge is pre-compiled into a dispatch form (variable bind,
  symbol check, flat all-variable operator, or general nested operator) so
  the hot fold runs tight list loops instead of recursive generators.

Parity with the per-pattern reference (:func:`repro.egraph.pattern.search`)
is exact, not approximate: candidate classes are visited in sorted order,
root nodes in span order, child substitution frontiers are capped
at :data:`~repro.egraph.pattern.MAX_SUBSTITUTIONS_PER_NODE` with the same
fold semantics, and per-rule ``limit`` truncation keeps the same prefix — so
a batched run applies the same matches in the same order and lands on the
same e-graph (pinned by ``tests/test_batched.py``).

Scheduling hooks: rules banned by the
:class:`~repro.engine.scheduler.BackoffScheduler` for an iteration are pruned
from the trie walk (a branch whose subtree holds no active rule is skipped),
and branch order is a free knob — :func:`priorities_from_attribution` turns a
PR-7 rule-yield attribution payload (``emorphic explain``) into per-rule
priorities so branches whose rules historically produce surviving e-nodes
are walked first and fill their match budgets before low-yield ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import ClassView, EGraph, op_id
from repro.egraph.pattern import MAX_SUBSTITUTIONS_PER_NODE, Match, Pattern, PatternNode
from repro.egraph.rewrite import Rewrite

#: A compiled subpattern key: ("var", slot) | ("sym", name) | ("op", op, (keys...)).
Key = Tuple

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


def _compile_key(key: Key, bound: Set[int], memo_slots: Iterator[int]) -> Tuple:
    """Lower a structural key to its dispatch form for the hot loop.

    ``('v', slot)`` binds/checks a variable, ``('s', name)`` checks a symbol
    leaf, ``('f', oid, slots, memo)`` matches an operator whose children are
    all variables (the overwhelmingly common case — one tight loop, no
    recursion), and ``('d', oid, children, memo)`` is the general nested
    form.

    ``bound`` is the set of slots already bound by the time this key is
    matched (the path through the trie binds the same slots for every
    substitution that reaches it, so this is a compile-time fact).  An
    operator key whose slots are disjoint from ``bound`` is *cacheable*: its
    matches against a class are the incoming substitution extended by binds
    that depend only on (key, class), so one evaluation per (key, class) per
    search serves every substitution and every parent e-node reaching that
    class.  A cacheable key's ``memo`` is its own index into the per-search
    bind cache (drawn from ``memo_slots``); ``None`` marks a key that must be
    folded directly.
    """
    kind = key[0]
    if kind == "var":
        return ("v", key[1])
    if kind == "sym":
        return ("s", key[1])
    child_keys = key[2]
    memo = None if _key_slots(key) & bound else next(memo_slots)
    if all(ck[0] == "var" for ck in child_keys):
        return ("f", op_id(key[1]), tuple(ck[1] for ck in child_keys), memo)
    # Children fold left to right, so child i is matched with the slots of
    # children 0..i-1 (plus this key's inherited context) already bound.
    child_bound = set(bound)
    compiled_children = []
    for ck in child_keys:
        compiled_children.append(_compile_key(ck, child_bound, memo_slots))
        child_bound |= _key_slots(ck)
    return ("d", op_id(key[1]), tuple(compiled_children), memo)


#: A substitution in the hot loop: a fixed-width tuple indexed by slot, with
#: ``None`` marking an unbound slot.  Class ids are non-negative ints, so
#: ``None`` can never collide with a binding; tuple indexing and slicing beat
#: dict lookups and copies by a wide margin in the innermost fold.
Subst = Tuple

_BLANKS: Dict[int, Subst] = {}

#: The bind cache's one shared entry for every (key, class) with no binds,
#: so misses cost a dict slot instead of a fresh empty list each.
_NO_BINDS: Tuple = ()

#: The per-search bind cache: one ``class id -> binds`` dict per cacheable
#: compiled key, indexed by the key's ``memo`` slot.
BindCache = List[Dict[int, Sequence[Subst]]]


def _blank(width: int) -> Subst:
    """The interned all-unbound substitution tuple of a given slot width."""
    blank = _BLANKS.get(width)
    if blank is None:
        blank = _BLANKS[width] = (None,) * width
    return blank


def _match_many(
    compiled: Tuple,
    class_id: int,
    substs: Sequence[Subst],
    view_of,
    cap: int,
    cache: BindCache,
) -> Sequence[Subst]:
    """Fold a whole substitution frontier through one compiled key at once.

    Returns at most ``cap`` extended substitutions in the per-pattern
    reference's order: substitution-major, then the class's node-span order
    (the columnar, frontier-batched mirror of the
    ``for s in stack: for candidate in _match_node(...)`` capped fold in
    :func:`repro.egraph.pattern._match_node`).  Batching the frontier means
    the class view and node list are fetched once per (key, class) instead of
    once per substitution, and variable/symbol children inside nested keys
    never pay a function call.

    ``cache`` memoizes *cacheable* operator keys (slots disjoint from
    everything bound upstream — see :func:`_compile_key`) per (key, class)
    for the duration of one search: the cached binds touch only the key's
    own slots, so merging them into each incoming substitution reproduces
    the direct fold exactly, including candidate order and cap prefix.  The
    result may be a cached sequence, so callers must not mutate it.
    """
    tag = compiled[0]
    out: List[Subst] = []
    if tag == "v":
        # <=1 result per input and len(substs) <= cap, so no truncation.
        slot = compiled[1]
        for s in substs:
            bound = s[slot]
            if bound is None:
                out.append(s[:slot] + (class_id,) + s[slot + 1:])
            elif bound == class_id:
                out.append(s)
        return out
    if tag == "s":
        return list(substs) if compiled[1] in view_of(class_id).var_payloads else []
    memo = compiled[3]
    if memo is not None:
        # Cacheable operator key: binds depend only on (key, class).
        memo_of = cache[memo]
        binds = memo_of.get(class_id)
        if binds is None:
            binds = memo_of[class_id] = _match_many(
                (compiled[0], compiled[1], compiled[2], None),
                class_id, (_blank(len(substs[0])),), view_of, MAX_SUBSTITUTIONS_PER_NODE, cache,
            ) or _NO_BINDS
        if not binds:
            return []
        first = substs[0]
        if len(substs) == 1 and first.count(None) == len(first):
            return binds if len(binds) <= cap else binds[:cap]
        for s in substs:
            for bind in binds:
                out.append(tuple([a if b is None else b for a, b in zip(s, bind)]))
                if len(out) >= cap:
                    return out
        return out
    nodes = view_of(class_id).by_op.get(compiled[1])
    if not nodes:
        return []
    if tag == "f":
        slots = compiled[2]
        arity = len(slots)
        for s in substs:
            for children in nodes:
                if len(children) != arity:
                    continue
                cur = None  # list copy of ``s``, made on first new binding
                ok = True
                for i in range(arity):
                    cid = children[i]
                    sl = slots[i]
                    bound = s[sl] if cur is None else cur[sl]
                    if bound is None:
                        if cur is None:
                            cur = list(s)
                        cur[sl] = cid
                    elif bound != cid:
                        ok = False
                        break
                if ok:
                    out.append(s if cur is None else tuple(cur))
                    if len(out) >= cap:
                        return out
        return out
    # tag == "d": general nested operator.  Per (subst, node), the children
    # fold through an inner frontier with the reference's per-node cap.
    child_keys = compiled[2]
    arity = len(child_keys)
    inner_cap = MAX_SUBSTITUTIONS_PER_NODE
    for s in substs:
        for children in nodes:
            if len(children) != arity:
                continue
            stack = [s]
            for i in range(arity):
                ck = child_keys[i]
                ccid = children[i]
                ctag = ck[0]
                if ctag == "v":
                    slot = ck[1]
                    frontier = []
                    for t in stack:
                        bound = t[slot]
                        if bound is None:
                            frontier.append(t[:slot] + (ccid,) + t[slot + 1:])
                        elif bound == ccid:
                            frontier.append(t)
                elif ctag == "s":
                    frontier = stack if ck[1] in view_of(ccid).var_payloads else []
                else:
                    frontier = _match_many(ck, ccid, stack, view_of, inner_cap, cache)
                stack = frontier
                if not stack:
                    break
            else:
                out.extend(stack)
                if len(out) >= cap:
                    return out[:cap]
    return out


@dataclass
class _Terminal:
    """A rule completing at a trie node: index plus its slot -> name map."""

    rule_index: int
    names: Tuple[str, ...]


@dataclass
class _TrieNode:
    """One shared-prefix position: outgoing edges plus completed rules."""

    #: ``(structural key, compiled dispatch form, child node)`` per edge.
    edges: List[Tuple[Key, Tuple, "_TrieNode"]] = field(default_factory=list)
    terminals: List[_Terminal] = field(default_factory=list)
    #: Every rule index reachable in this subtree (ban pruning reads this).
    rules: Set[int] = field(default_factory=set)
    #: Per-search scratch: ``rules`` restricted to this search's active set
    #: (annotated by a prepass so the walk tests a precomputed set).
    active: Set[int] = field(default_factory=set)

    def child(self, key: Key, bound: Set[int], memo_slots: Iterator[int]) -> "_TrieNode":
        """The edge for ``key``, created on first use (prefix sharing).

        ``bound`` is the slots bound along the path to this node; a trie
        path is unique, so every rule sharing the edge passes the same set
        and the compiled form's cacheability is a property of the edge.
        ``memo_slots`` numbers the new edge's cacheable keys.
        """
        for existing, _, node in self.edges:
            if existing == key:
                return node
        node = _TrieNode()
        self.edges.append((key, _compile_key(key, bound, memo_slots), node))
        return node


def priorities_from_attribution(attribution) -> Dict[str, float]:
    """Per-rule branch priorities from a rule-yield attribution payload.

    Accepts either a ``RuleAttribution`` object or its ``to_dict`` form (what
    ``emorphic explain --json`` writes) and returns ``rule -> surviving ANDs``
    — the PR-7 yield signal.  Rules whose matches never survive extraction get
    priority 0 and sort last in the trie walk.
    """
    if hasattr(attribution, "to_dict"):
        attribution = attribution.to_dict()
    rules = attribution.get("rules", {})
    return {
        name: float(stats.get("surviving_ands", 0) or 0)
        for name, stats in rules.items()
        if name != "original"
    }


class BatchedMatcher:
    """All rules' LHS patterns as one trie over columnar class views.

    ``rule_priorities`` (optional, e.g. from
    :func:`priorities_from_attribution`) orders sibling branches by the best
    yield of any rule in their subtree; without it, branches keep rule
    registration order.  Ordering is purely a work-scheduling knob — each
    rule's match stream is independent of its siblings, so results are
    identical under any branch order.
    """

    def __init__(
        self,
        rules: Sequence[Rewrite],
        rule_priorities: Optional[Dict[str, float]] = None,
    ) -> None:
        self.rules = list(rules)
        #: ``(root op, subtree, blank substitution)`` per distinct root
        #: operator; the blank is the all-``None`` tuple sized to the widest
        #: rule under that root, so every substitution in the subtree shares
        #: one fixed slot layout.
        self.roots: List[Tuple[str, _TrieNode, Subst]] = []
        self.fallback: List[int] = []
        by_root: Dict[str, _TrieNode] = {}
        widths: Dict[str, int] = {}
        root_order: List[str] = []
        memo_slots = count()
        for index, rule in enumerate(self.rules):
            root_op, child_keys, names = compile_pattern(rule.lhs)
            if root_op is None:
                self.fallback.append(index)
                continue
            node = by_root.get(root_op)
            if node is None:
                node = by_root[root_op] = _TrieNode()
                root_order.append(root_op)
            widths[root_op] = max(widths.get(root_op, 0), len(names))
            node.rules.add(index)
            bound: Set[int] = set()
            for key in child_keys:
                node = node.child(key, bound, memo_slots)
                node.rules.add(index)
                bound |= _key_slots(key)
            node.terminals.append(_Terminal(rule_index=index, names=names))
        self.roots = [(op, by_root[op], _blank(widths[op])) for op in root_order]
        #: Number of cacheable compiled keys: the per-search bind cache has
        #: one ``class id -> binds`` dict per key.
        self.memo_count = next(memo_slots)
        if rule_priorities:
            self._order_branches(rule_priorities)

    def _order_branches(self, priorities: Dict[str, float]) -> None:
        """Stable-sort every edge list by descending best subtree yield."""

        def best(rules: Set[int]) -> float:
            return max((priorities.get(self.rules[i].name, 0.0) for i in rules), default=0.0)

        def order(node: _TrieNode) -> None:
            node.edges.sort(key=lambda edge: -best(edge[2].rules))
            for _, _, child in node.edges:
                order(child)

        self.roots.sort(key=lambda root: -best(root[1].rules))
        for _, node, _ in self.roots:
            order(node)

    def _annotate_active(self, active_set: Set[int]) -> None:
        """Prepass: stamp every trie node with its active subtree rules."""

        def walk(node: _TrieNode) -> None:
            node.active = node.rules & active_set
            if node.active:
                for _, _, child in node.edges:
                    walk(child)

        for _, node, _ in self.roots:
            walk(node)

    # -- the walk --------------------------------------------------------------

    def search(
        self,
        egraph: EGraph,
        active: Sequence[int],
        limit: Optional[int] = None,
    ) -> Dict[int, List[Match]]:
        """Match every active rule in one shared e-graph walk.

        ``active`` lists the rule indices the scheduler allows this iteration
        (banned rules' subtrees are pruned); ``limit`` is the per-rule match
        cap, truncating with the same prefix as the per-pattern reference.
        Rules whose LHS root is not an operator run the per-pattern search.
        Returns matches per rule index, each list in reference order.
        """
        active_set = set(active)
        out: Dict[int, List[Match]] = {index: [] for index in active_set}
        done: Set[int] = set()
        views: Dict[int, ClassView] = {}
        class_view = egraph.class_view

        def view_of(cid: int) -> ClassView:
            view = views.get(cid)
            if view is None:
                view = views[cid] = class_view(cid)
            return view

        self._annotate_active(active_set)
        # Per-search memo of cacheable operator-key evaluations, one dict per
        # compiled key keyed by class id; valid because class views are
        # frozen for the duration of one search.  Views and cache are locals
        # on purpose: both die when the search returns, so the next apply
        # phase and search never carry this search's class-sized scratch.
        cache: BindCache = [{} for _ in range(self.memo_count)]
        for root_op, tnode, blank in self.roots:
            if not tnode.active - done:
                continue
            oid = op_id(root_op)
            initial = [blank]
            for cid in egraph.classes_with_op(root_op):
                root_nodes = view_of(cid).by_op.get(oid)
                if not root_nodes:
                    continue
                for children in root_nodes:
                    self._descend(tnode, cid, children, 0, initial, done, out, limit, view_of, cache)
                if not tnode.active - done:
                    break
        for index in self.fallback:
            if index not in active_set:
                continue
            out[index] = self.rules[index].search(egraph, limit=limit)
        return out

    def _descend(
        self,
        tnode: _TrieNode,
        class_id: int,
        children: Tuple[int, ...],
        depth: int,
        substs: Sequence[Subst],
        done: Set[int],
        out: Dict[int, List[Match]],
        limit: Optional[int],
        view_of,
        cache: BindCache,
    ) -> None:
        """Fold one root node's children through the trie (shared prefixes
        fold once), emitting completed rules' substitutions along the way."""
        for terminal in tnode.terminals:
            index = terminal.rule_index
            if index not in tnode.active or index in done:
                continue
            matches = out[index]
            names = terminal.names
            for subst in substs:
                matches.append(
                    Match(class_id=class_id, substitution=dict(zip(names, subst)))
                )
                if limit is not None and len(matches) >= limit:
                    done.add(index)
                    break
        if depth >= len(children):
            return
        child_class = children[depth]
        cap = MAX_SUBSTITUTIONS_PER_NODE
        for _, compiled, child_node in tnode.edges:
            wanted = child_node.active
            if not wanted or (done and not wanted - done):
                continue
            tag = compiled[0]
            # The same frontier-with-cap fold as the reference matcher: the
            # survivors are exactly the first <=cap substitutions in DFS
            # order.  Variable edges are folded inline (each subst maps to at
            # most one survivor, so the incoming bound of ``cap`` holds).
            if tag == "v":
                slot = compiled[1]
                frontier = []
                for s in substs:
                    bound = s[slot]
                    if bound is None:
                        frontier.append(s[:slot] + (child_class,) + s[slot + 1:])
                    elif bound == child_class:
                        frontier.append(s)
            elif tag == "s":
                frontier = (
                    list(substs)
                    if compiled[1] in view_of(child_class).var_payloads
                    else []
                )
            elif compiled[3] is not None:
                # Cacheable operator edge: the per-(key, class) binds are
                # shared by every substitution and every parent e-node, so
                # the hot path is one dict probe plus a merge.
                memo_of = cache[compiled[3]]
                binds = memo_of.get(child_class)
                if binds is None:
                    binds = memo_of[child_class] = _match_many(
                        (compiled[0], compiled[1], compiled[2], None),
                        child_class, (_blank(len(substs[0])),), view_of, cap, cache,
                    ) or _NO_BINDS
                if not binds:
                    continue
                first = substs[0]
                if len(substs) == 1 and first.count(None) == len(first):
                    frontier = binds
                else:
                    frontier = []
                    for s in substs:
                        for bind in binds:
                            frontier.append(
                                tuple([a if b is None else b for a, b in zip(s, bind)])
                            )
                            if len(frontier) >= cap:
                                break
                        if len(frontier) >= cap:
                            break
            else:
                frontier = _match_many(compiled, child_class, substs, view_of, cap, cache)
            if frontier:
                self._descend(
                    child_node, class_id, children, depth + 1, frontier,
                    done, out, limit, view_of, cache,
                )

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
            for _, _, child in node.edges:
                walk(child)

        for _, node, _ in self.roots:
            walk(node)
        return {
            "roots": len(self.roots),
            "nodes": nodes,
            "edges": edges,
            "rules": len(self.rules) - len(self.fallback),
            "fallback_rules": len(self.fallback),
        }
