"""Choice computation (a simplified ABC ``dch``).

Alternative network structures are synthesised (balanced / rewritten
variants), strashed into one union AIG together with the original, and
candidate equivalent node pairs are detected by bit-parallel simulation and
confirmed by a budgeted SAT check on the pair's cone.  The resulting
equivalence classes ("choices") are consumed by the technology mapper, which
mitigates structural bias by covering across all the choices.

Compared to the real ``dch``, the detection is the same
(simulation + SAT) but candidates are restricted to same-polarity pairs and
the number of verified pairs is capped to keep the pure-Python runtime sane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.mapping.choices import ChoiceClasses
from repro.verify.cnf import Cnf, encode_miter_output, tseitin_encode
from repro.verify.sat import SatSolver

WORD_BITS = 64


@dataclass
class ChoiceAig:
    """A union AIG plus equivalence classes over its variables."""

    aig: Aig
    classes: ChoiceClasses
    num_variants: int = 1

    @property
    def num_choices(self) -> int:
        """Number of equivalence classes with more than one member."""
        return self.classes.num_classes_with_choices


def _append_variant(union: Aig, variant: Aig) -> Dict[int, int]:
    """Strash a variant (same PIs) into the union AIG; returns var map old->new lit."""
    old2new = {0: 0}
    for var_u, var_v in zip(union.pis, variant.pis):
        old2new[var_v] = var_u << 1
    for node in variant.and_nodes():
        f0 = old2new[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
        f1 = old2new[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
        old2new[node.var] = union.add_and(f0, f1)
    return old2new


def _simulation_signatures(aig: Aig, num_words: int, seed: int) -> Dict[int, Tuple[int, ...]]:
    """Per-variable simulation signatures over ``num_words`` random words."""
    rng = random.Random(seed)
    sigs: Dict[int, List[int]] = {var: [] for var in range(aig.num_nodes)}
    mask = (1 << WORD_BITS) - 1
    for _ in range(num_words):
        values = [0] * aig.num_nodes
        for var in aig.pis:
            values[var] = rng.getrandbits(WORD_BITS)
        for node in aig.and_nodes():
            v0 = values[lit_var(node.fanin0)]
            if lit_is_compl(node.fanin0):
                v0 ^= mask
            v1 = values[lit_var(node.fanin1)]
            if lit_is_compl(node.fanin1):
                v1 ^= mask
            values[node.var] = v0 & v1
        for var in range(aig.num_nodes):
            sigs[var].append(values[var])
    return {var: tuple(words) for var, words in sigs.items()}


def _cone_subaig(aig: Aig, roots: Sequence[int], max_nodes: int) -> Optional[Tuple[Aig, Dict[int, int]]]:
    """Extract the cone of ``roots`` as a standalone AIG (PIs become new PIs)."""
    needed: List[int] = []
    seen = set()
    stack = list(roots)
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        node = aig.node(var)
        if node.is_and:
            needed.append(var)
            stack.append(lit_var(node.fanin0))
            stack.append(lit_var(node.fanin1))
        if len(needed) > max_nodes:
            return None
    sub = Aig(name="cone")
    old2new: Dict[int, int] = {0: 0}
    for var in sorted(seen):
        node = aig.node(var)
        if node.is_pi:
            old2new[var] = sub.add_pi(node.name)
    for var in sorted(needed):
        node = aig.node(var)
        f0 = old2new[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
        f1 = old2new[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
        old2new[var] = sub.add_and(f0, f1)
    return sub, old2new


def _sat_equivalent(aig: Aig, var_a: int, var_b: int, max_cone: int, conflict_budget: int) -> str:
    """Budgeted SAT proof that two same-polarity variables are equivalent."""
    cone = _cone_subaig(aig, [var_a, var_b], max_cone)
    if cone is None:
        return "unknown"
    sub, old2new = cone
    cnf, var_map, _ = tseitin_encode(sub)

    def cnf_lit(old_var: int) -> int:
        lit = old2new[old_var]
        v = var_map[lit_var(lit)]
        return -v if lit_is_compl(lit) else v

    x = encode_miter_output(cnf, cnf_lit(var_a), cnf_lit(var_b))
    cnf.add_clause([x])
    result = SatSolver(cnf).solve(conflict_budget=conflict_budget)
    if result.status == "unsat":
        return "equivalent"
    if result.status == "sat":
        return "different"
    return "unknown"


def compute_choices(
    aig: Aig,
    variant_synthesizers: Optional[Sequence[Callable[[Aig], Aig]]] = None,
    sim_words: int = 8,
    max_pairs: int = 2000,
    max_cone: int = 300,
    conflict_budget: int = 500,
    seed: int = 2024,
    verify_with_sat: bool = True,
) -> ChoiceAig:
    """Compute a choice network for mapping (simplified ``dch``).

    ``variant_synthesizers`` default to AND-tree balancing and DAG-aware
    rewriting; each produces one alternative structure that is merged with the
    original into a union AIG.  Equivalence classes keep only pairs confirmed
    by SAT (or, when ``verify_with_sat`` is off, by simulation alone).
    """
    if variant_synthesizers is None:
        from repro.opt.balance import balance
        from repro.opt.rewrite import rewrite

        variant_synthesizers = (balance, rewrite)

    union = aig.clone()
    num_variants = 1
    for synthesize in variant_synthesizers:
        try:
            variant = synthesize(aig)
        except Exception:
            continue
        _append_variant(union, variant)
        num_variants += 1

    sigs = _simulation_signatures(union, num_words=sim_words, seed=seed)
    # Bucket AND nodes by signature; a bucket with both original and variant
    # members yields candidate choice pairs.
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for node in union.and_nodes():
        buckets.setdefault(sigs[node.var], []).append(node.var)

    classes = ChoiceClasses()
    pairs_checked = 0
    for members in buckets.values():
        if len(members) < 2:
            continue
        rep = min(members)
        confirmed = [rep]
        for var in members:
            if var == rep:
                continue
            if pairs_checked >= max_pairs:
                break
            pairs_checked += 1
            if verify_with_sat:
                verdict = _sat_equivalent(union, rep, var, max_cone=max_cone, conflict_budget=conflict_budget)
                if verdict != "equivalent":
                    continue
            confirmed.append(var)
        if len(confirmed) > 1:
            classes.members[rep] = confirmed
            for var in confirmed:
                classes.repr_of[var] = rep
    return ChoiceAig(aig=union, classes=classes, num_variants=num_variants)
