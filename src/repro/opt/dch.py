"""Choice computation (a simplified ABC ``dch``).

Alternative network structures are synthesised (balanced / rewritten
variants), strashed into one union AIG together with the original, and
candidate equivalent node pairs are detected by bit-parallel simulation and
confirmed by one SAT sweep over the union (:func:`repro.verify.sweep.sweep`),
which proves them bottom-up and merges each proven pair so the cones above it
shrink.  The resulting equivalence classes ("choices") are consumed by the
technology mapper, which mitigates structural bias by covering across all the
choices.

Compared to the real ``dch``, the detection is the same
(simulation + SAT) but candidates are restricted to same-polarity pairs and
the number of verified pairs is capped to keep the pure-Python runtime sane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.aig.graph import Aig, var_lit
from repro.aig.simulate import node_words
from repro.mapping.choices import ChoiceClasses
from repro.opt.balance import balance
from repro.opt.rewrite import rewrite
from repro.verify.sweep import sweep

#: Each synthesizer adds one alternative structure to the union AIG.
VARIANT_SYNTHESIZERS = (balance, rewrite)
#: Random simulation words per node signature, and their seed.
SIM_WORDS = 8
SEED = 2024
#: A candidate pair whose joint cone holds more AND nodes stays unproven.
MAX_CONE = 300


@dataclass
class ChoiceAig:
    """A union AIG plus equivalence classes over its variables.

    ``pairs_tried`` candidate pairs went to the SAT sweep and
    ``pairs_proved`` of them came back equivalent: ``structural`` settled
    by the sweep's strash, the rest by ``sat_calls`` prover calls that took
    ``conflicts`` conflicts in total.
    """

    aig: Aig
    classes: ChoiceClasses
    num_variants: int = 1
    pairs_tried: int = 0
    pairs_proved: int = 0
    conflicts: int = 0
    sat_calls: int = 0
    structural: int = 0


def candidate_pairs(union: Aig, max_pairs: int) -> List[Tuple[int, int]]:
    """The ``(representative, member)`` variable pairs the choices come from.

    AND nodes are bucketed by simulation signature in creation order; each
    bucket pairs its first (smallest) variable with every other member, and
    the first ``max_pairs`` pairs in bucket order are kept.
    """
    sigs = node_words(union, SIM_WORDS, SEED)
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for node in union.and_nodes():
        buckets.setdefault(sigs[node.var], []).append(node.var)
    pairs = [(members[0], var) for members in buckets.values() for var in members[1:]]
    return pairs[:max_pairs]


def compute_choices(aig: Aig, max_pairs: int = 2000, conflict_budget: int = 500) -> ChoiceAig:
    """Compute a choice network for mapping (simplified ``dch``).

    Each of ``VARIANT_SYNTHESIZERS`` (AND-tree balancing and DAG-aware
    rewriting) produces one alternative structure that is merged with the
    original into a union AIG.  Equivalence classes keep only pairs SAT
    proves equal within ``conflict_budget`` conflicts per prover call; at
    most ``max_pairs`` pairs are tried.
    """
    union = aig.clone()
    inputs = [var_lit(var) for var in union.pis]
    for synthesize in VARIANT_SYNTHESIZERS:
        union.append(synthesize(aig), inputs)

    pairs = candidate_pairs(union, max_pairs)
    lit_pairs = [(var_lit(rep), var_lit(var)) for rep, var in pairs]
    swept = sweep(union, lit_pairs, conflict_budget=conflict_budget, max_cone=MAX_CONE)
    classes = ChoiceClasses()
    for (rep, var), proof in zip(pairs, swept.proofs):
        if proof.status == "equivalent":
            classes.members.setdefault(rep, [rep]).append(var)
            classes.repr_of[rep] = classes.repr_of[var] = rep
    return ChoiceAig(
        aig=union,
        classes=classes,
        num_variants=1 + len(VARIANT_SYNTHESIZERS),
        pairs_tried=len(pairs),
        pairs_proved=sum(len(members) - 1 for members in classes.members.values()),
        conflicts=swept.conflicts,
        sat_calls=swept.sat_calls,
        structural=swept.structural,
    )
