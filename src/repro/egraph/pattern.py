"""Patterns and e-matching.

Patterns are written in a tiny s-expression syntax, e.g. ``(AND ?a (OR ?b ?c))``,
where ``?x`` is a pattern variable binding an e-class.  Matching searches the
e-graph for every (class, substitution) pair where some e-node of the class
matches the pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import CONST0, CONST1, NOT, VAR, op_arity


@dataclass(frozen=True)
class PatternNode:
    """A node of a pattern tree.

    ``kind`` is "op", "pattern_var", or "symbol" (a concrete VAR leaf name).
    """

    kind: str
    op: str = ""
    name: str = ""
    children: Tuple["PatternNode", ...] = ()


@dataclass
class Pattern:
    """A parsed pattern with its variable list (in first-occurrence order)."""

    root: PatternNode
    variables: List[str] = field(default_factory=list)
    source: str = ""

    def __str__(self) -> str:
        return self.source or repr(self.root)


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_pattern(text: str) -> Pattern:
    """Parse ``(AND ?a (NOT ?b))``-style pattern syntax."""
    tokens = _TOKEN_RE.findall(text)
    pos = 0
    variables: List[str] = []

    def parse() -> PatternNode:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = tokens[pos].upper()
            pos += 1
            children = []
            while tokens[pos] != ")":
                children.append(parse())
            pos += 1
            expected = op_arity(op)
            if len(children) != expected:
                raise ValueError(f"operator {op} expects {expected} children in pattern {text!r}")
            return PatternNode(kind="op", op=op, children=tuple(children))
        if tok.startswith("?"):
            name = tok[1:]
            if name not in variables:
                variables.append(name)
            return PatternNode(kind="pattern_var", name=name)
        if tok.upper() in (CONST0, CONST1):
            return PatternNode(kind="op", op=tok.upper())
        return PatternNode(kind="symbol", name=tok)

    root = parse()
    del parse  # parse holds itself through its closure cell: leave no cycle
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in pattern {text!r}")
    return Pattern(root=root, variables=variables, source=text)


Substitution = Dict[str, int]

#: Cap on the substitution cross-product explored per e-node during matching.
MAX_SUBSTITUTIONS_PER_NODE = 200


def _match_node(egraph: EGraph, pattern: PatternNode, class_id: int, subst: Substitution) -> Iterator[Substitution]:
    """Yield all substitutions matching ``pattern`` against e-class ``class_id``."""
    class_id = egraph.find(class_id)
    if pattern.kind == "pattern_var":
        bound = subst.get(pattern.name)
        if bound is not None:
            if egraph.find(bound) == class_id:
                yield subst
            return
        new = dict(subst)
        new[pattern.name] = class_id
        yield new
        return
    if pattern.kind == "symbol":
        for enode in egraph.nodes_of(class_id):
            if enode.op == VAR and enode.payload == pattern.name:
                yield subst
                return
        return
    # Operator node: try every e-node of the class with the same operator.
    # The cross-product of child substitutions is capped so that dense classes
    # (thousands of commuted/associated variants) cannot blow up memory.
    for enode in egraph.nodes_of(class_id):
        if enode.op != pattern.op or len(enode.children) != len(pattern.children):
            continue
        stack = [subst]
        for child_pat, child_class in zip(pattern.children, enode.children):
            next_stack = []
            for s in stack:
                for candidate in _match_node(egraph, child_pat, child_class, s):
                    next_stack.append(candidate)
                    if len(next_stack) >= MAX_SUBSTITUTIONS_PER_NODE:
                        break
                if len(next_stack) >= MAX_SUBSTITUTIONS_PER_NODE:
                    break
            stack = next_stack
            if not stack:
                break
        for s in stack:
            yield s


@dataclass
class Match:
    """One successful pattern match."""

    class_id: int
    substitution: Substitution


def search(egraph: EGraph, pattern: Pattern, limit: Optional[int] = None) -> List[Match]:
    """Find matches of the pattern anywhere in the e-graph.

    This is the per-pattern reference matcher: saturation runs the batched
    trie (:mod:`repro.engine.batched`), which must reproduce these matches
    exactly; rules whose LHS root is not an operator fall back to it.
    Classes are visited in sorted order so that truncation under ``limit``
    keeps the same prefix in every process: seeded runs reproduce identical
    e-graphs regardless of set/dict iteration order.
    """
    matches: List[Match] = []
    for class_id in egraph.class_ids():
        for subst in _match_node(egraph, pattern.root, class_id, {}):
            matches.append(Match(class_id=class_id, substitution=subst))
            if limit is not None and len(matches) >= limit:
                return matches
    return matches


def instantiate(egraph: EGraph, pattern: PatternNode, subst: Substitution) -> int:
    """Build the pattern (under a substitution) into the e-graph; returns the class id."""
    if pattern.kind == "pattern_var":
        return egraph.find(subst[pattern.name])
    if pattern.kind == "symbol":
        return egraph.var(pattern.name)
    children = [instantiate(egraph, child, subst) for child in pattern.children]
    return egraph.add_term(pattern.op, children)
