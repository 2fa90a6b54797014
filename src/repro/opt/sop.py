"""Sum-of-products covers, ISOP computation, and algebraic factoring.

These primitives back refactoring and SOP balancing.  Cubes are represented
as (mask, polarity) pairs: bit *i* of ``mask`` says variable *i* appears in
the cube, and the corresponding bit of ``polarity`` gives its phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.opt.truth import FULL, VAR_MASKS, cofactors

#: Entries kept by each per-function cache below (ISOP covers, factored
#: forms and their literal counts, keyed by ``(truth, num_vars)``).  Cut
#: passes meet the same few thousand functions at every node and in every
#: round; cached values are immutable and never change a result.
FUNCTION_CACHE_SIZE = 1 << 13


@dataclass(frozen=True)
class Cube:
    """A product term over a fixed variable ordering."""

    mask: int
    polarity: int

    def literals(self) -> List[Tuple[int, bool]]:
        """Return (variable, is_positive) pairs."""
        out = []
        var = 0
        mask = self.mask
        while mask:
            if mask & 1:
                out.append((var, bool((self.polarity >> var) & 1)))
            mask >>= 1
            var += 1
        return out

    @property
    def num_literals(self) -> int:
        """Number of literals in the cube."""
        return bin(self.mask).count("1")

    def contains(self, other: "Cube") -> bool:
        """True if this cube covers the other (is a superset of its minterms)."""
        if self.mask & ~other.mask:
            return False
        return (self.polarity & self.mask) == (other.polarity & self.mask)

    def evaluate(self, minterm: int) -> bool:
        """True if the cube contains ``minterm``."""
        return (minterm & self.mask) == (self.polarity & self.mask)


def sop_evaluate(cubes: Sequence[Cube], minterm: int) -> bool:
    """Evaluate an SOP cover on one minterm."""
    return any(c.evaluate(minterm) for c in cubes)


def sop_truth(cubes: Sequence[Cube], num_vars: int) -> int:
    """Truth table of an SOP cover."""
    out = 0
    for minterm in range(1 << num_vars):
        if sop_evaluate(cubes, minterm):
            out |= 1 << minterm
    return out


# ---------------------------------------------------------------------------
# ISOP (irredundant sum of products) via the Minato-Morreale procedure
# ---------------------------------------------------------------------------


def isop(on_set: int, dc_upper: int, num_vars: int) -> List[Cube]:
    """Minato-Morreale ISOP: a cover F with ``on_set <= F <= dc_upper``.

    ``on_set`` is the function that must be covered; ``dc_upper`` is the
    largest function the cover is allowed to equal (on-set plus don't cares).
    """
    mask = FULL[num_vars]
    var_masks = VAR_MASKS[num_vars]
    on_set &= mask
    dc_upper &= mask

    def recurse(lower: int, upper: int, var: int) -> Tuple[List[Cube], int]:
        if lower == 0:
            return [], 0
        if upper == mask:
            return [Cube(0, 0)], mask
        if var < 0:
            raise RuntimeError("ISOP recursion exhausted variables (lower not within upper)")
        l_neg, l_pos = cofactors(lower, var, num_vars)
        u_neg, u_pos = cofactors(upper, var, num_vars)

        # Cubes that must contain the negative / positive literal of `var`.
        cubes_neg, cover_neg = recurse(l_neg & ~u_pos, u_neg, var - 1)
        cubes_pos, cover_pos = recurse(l_pos & ~u_neg, u_pos, var - 1)
        # Whatever remains uncovered in each cofactor is covered without `var`.
        lower_new = (l_neg & ~cover_neg) | (l_pos & ~cover_pos)
        cubes_both, cover_both = recurse(lower_new, u_neg & u_pos, var - 1)

        var_pos_mask = var_masks[var]
        var_neg_mask = mask ^ var_pos_mask
        result_cubes: List[Cube] = []
        cover = 0
        for cube in cubes_neg:
            result_cubes.append(Cube(cube.mask | (1 << var), cube.polarity))
        cover |= cover_neg & var_neg_mask
        for cube in cubes_pos:
            result_cubes.append(Cube(cube.mask | (1 << var), cube.polarity | (1 << var)))
        cover |= cover_pos & var_pos_mask
        result_cubes.extend(cubes_both)
        cover |= cover_both
        return result_cubes, cover

    cubes, cover = recurse(on_set, dc_upper, num_vars - 1)
    # Sanity: the cover must contain the on-set and stay below the upper bound.
    if cover & ~dc_upper or on_set & ~cover:
        raise RuntimeError("ISOP produced an invalid cover")
    return cubes


@lru_cache(maxsize=FUNCTION_CACHE_SIZE)
def isop_cover(truth: int, num_vars: int) -> Tuple[Cube, ...]:
    """ISOP of a completely specified function (memoized, so immutable)."""
    return tuple(isop(truth, truth, num_vars))


# ---------------------------------------------------------------------------
# Algebraic factoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorNode:
    """Node of a factored form: literal, AND, or OR."""

    kind: str  # "lit", "and", "or"
    var: int = -1
    positive: bool = True
    children: Tuple["FactorNode", ...] = ()

    def num_literals(self) -> int:
        """Literal leaves of the factored form."""
        if self.kind == "lit":
            return 1
        return sum(c.num_literals() for c in self.children)

    def depth(self) -> int:
        """AND/OR levels above the literals."""
        if self.kind == "lit":
            return 0
        return 1 + max(c.depth() for c in self.children)


def _make_and(children: List[FactorNode]) -> FactorNode:
    if len(children) == 1:
        return children[0]
    return FactorNode(kind="and", children=tuple(children))


def _make_or(children: List[FactorNode]) -> FactorNode:
    if len(children) == 1:
        return children[0]
    return FactorNode(kind="or", children=tuple(children))


def _most_common_literal(cubes: Sequence[Cube]) -> Optional[Tuple[int, bool]]:
    """The literal appearing in the most cubes (must appear in >= 2)."""
    counts: dict = {}
    for cube in cubes:
        for var, positive in cube.literals():
            counts[(var, positive)] = counts.get((var, positive), 0) + 1
    if not counts:
        return None
    lit, count = max(counts.items(), key=lambda kv: kv[1])
    return lit if count >= 2 else None


def _divide_by_literal(cubes: Sequence[Cube], var: int, positive: bool) -> Tuple[List[Cube], List[Cube]]:
    """Split cubes into (quotient with literal removed, remainder)."""
    quotient, remainder = [], []
    bit = 1 << var
    for cube in cubes:
        if cube.mask & bit and bool(cube.polarity & bit) == positive:
            quotient.append(Cube(cube.mask & ~bit, cube.polarity & ~bit))
        else:
            remainder.append(cube)
    return quotient, remainder


def factor(cubes: Sequence[Cube]) -> FactorNode:
    """Quick-factor an SOP cover into a factored form (literal-count heuristic)."""
    cubes = list(cubes)
    if not cubes:
        raise ValueError("cannot factor an empty (constant-0) cover")
    if len(cubes) == 1:
        lits = cubes[0].literals()
        if not lits:
            # constant 1 cube; represent as an empty AND which callers treat as const1
            return FactorNode(kind="and", children=())
        return _make_and([FactorNode(kind="lit", var=v, positive=p) for v, p in lits])
    best = _most_common_literal(cubes)
    if best is None:
        # No common literal: OR of per-cube ANDs.
        return _make_or([factor([c]) for c in cubes])
    var, positive = best
    quotient, remainder = _divide_by_literal(cubes, var, positive)
    lit_node = FactorNode(kind="lit", var=var, positive=positive)
    q_node = factor(quotient) if quotient and any(c.mask for c in quotient) else None
    if quotient and any(not c.mask for c in quotient):
        # Quotient contains the constant-1 cube: literal alone covers those.
        q_node = None
    divided = _make_and([lit_node, q_node]) if q_node is not None else lit_node
    if not remainder:
        return divided
    return _make_or([divided, factor(remainder)])


@lru_cache(maxsize=FUNCTION_CACHE_SIZE)
def factored_cover(truth: int, num_vars: int) -> FactorNode:
    """Quick-factored form of a function's ISOP (memoized, so immutable)."""
    return factor(isop_cover(truth, num_vars))


@lru_cache(maxsize=FUNCTION_CACHE_SIZE)
def factored_literal_count(truth: int, num_vars: int) -> int:
    """Literal count of the quick-factored form of a function (0 for constants)."""
    if truth == 0 or truth == FULL[num_vars]:
        return 0
    return factored_cover(truth, num_vars).num_literals()
