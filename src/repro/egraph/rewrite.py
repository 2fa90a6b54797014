"""Rewrite rules over e-graphs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import Match, Pattern, instantiate, parse_pattern, search


@dataclass
class Rewrite:
    """A directed rewrite rule ``lhs => rhs``.

    An optional ``condition`` receives (egraph, match) and may veto the
    application; this is how conditional rules (e.g. guarded simplifications)
    are expressed.

    Every RHS variable must be bound by the LHS: construction raises
    ``ValueError`` otherwise, before any e-graph is touched.
    """

    name: str
    lhs: Pattern
    rhs: Pattern
    condition: Optional[Callable[[EGraph, Match], bool]] = None

    def __post_init__(self) -> None:
        unbound = [var for var in self.rhs.variables if var not in self.lhs.variables]
        if unbound:
            raise ValueError(
                f"rule {self.name!r}: right-hand side uses variables the left-hand side "
                f"does not bind: {', '.join('?' + var for var in unbound)}"
            )

    @classmethod
    def from_strings(
        cls,
        name: str,
        lhs: str,
        rhs: str,
        condition: Optional[Callable[[EGraph, Match], bool]] = None,
    ) -> "Rewrite":
        """Build a rule from pattern source text."""
        return cls(name=name, lhs=parse_pattern(lhs), rhs=parse_pattern(rhs), condition=condition)

    def search(self, egraph: EGraph, limit: Optional[int] = None) -> List[Match]:
        """The LHS matches in ``egraph`` (per-pattern search, sorted classes)."""
        return search(egraph, self.lhs, limit=limit)

    def apply(self, egraph: EGraph, matches: List[Match]) -> int:
        """Apply the rule to the given matches; returns the number of unions made."""
        applied = 0
        for match in matches:
            if self.condition is not None and not self.condition(egraph, match):
                continue
            new_class = instantiate(egraph, self.rhs.root, match.substitution)
            if egraph.find(new_class) != egraph.find(match.class_id):
                egraph.union(match.class_id, new_class)
                applied += 1
        return applied

    def __str__(self) -> str:
        return f"{self.name}: {self.lhs} => {self.rhs}"


def bidirectional(name: str, lhs: str, rhs: str) -> Tuple[Rewrite, Rewrite]:
    """Build a pair of rules for an equivalence that is useful in both directions."""
    return (
        Rewrite.from_strings(name, lhs, rhs),
        Rewrite.from_strings(name + "-rev", rhs, lhs),
    )
