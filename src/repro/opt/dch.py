"""Choice computation (a simplified ABC ``dch``).

Alternative network structures are synthesised (balanced / rewritten
variants), strashed into one union AIG together with the original, and
candidate equivalent node pairs are detected by bit-parallel simulation and
confirmed by a budgeted SAT proof on the pair's joint cone
(:func:`repro.verify.cec.prove_pair`).  The resulting equivalence classes
("choices") are consumed by the technology mapper, which mitigates
structural bias by covering across all the choices.

Compared to the real ``dch``, the detection is the same
(simulation + SAT) but candidates are restricted to same-polarity pairs and
the number of verified pairs is capped to keep the pure-Python runtime sane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var, var_lit
from repro.mapping.choices import ChoiceClasses
from repro.opt.balance import balance
from repro.opt.rewrite import rewrite
from repro.verify.cec import prove_pair

WORD_BITS = 64
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

    ``pairs_tried`` candidate pairs went to the SAT prover, ``pairs_proved``
    of them came back equivalent, and the proofs took ``conflicts``
    conflicts in total.
    """

    aig: Aig
    classes: ChoiceClasses
    num_variants: int = 1
    pairs_tried: int = 0
    pairs_proved: int = 0
    conflicts: int = 0

    @property
    def num_choices(self) -> int:
        """Number of equivalence classes with more than one member."""
        return self.classes.num_classes_with_choices


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


def compute_choices(aig: Aig, max_pairs: int = 2000, conflict_budget: int = 500) -> ChoiceAig:
    """Compute a choice network for mapping (simplified ``dch``).

    Each of ``VARIANT_SYNTHESIZERS`` (AND-tree balancing and DAG-aware
    rewriting) produces one alternative structure that is merged with the
    original into a union AIG.  Equivalence classes keep only pairs SAT
    proves equal within ``conflict_budget`` conflicts; at most ``max_pairs``
    pairs are tried.
    """
    union = aig.clone()
    inputs = [var_lit(var) for var in union.pis]
    for synthesize in VARIANT_SYNTHESIZERS:
        union.append(synthesize(aig), inputs)

    sigs = _simulation_signatures(union, num_words=SIM_WORDS, seed=SEED)
    # Bucket AND nodes by signature; a bucket with both original and variant
    # members yields candidate choice pairs.
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for node in union.and_nodes():
        buckets.setdefault(sigs[node.var], []).append(node.var)

    classes = ChoiceClasses()
    pairs_tried = pairs_proved = conflicts = 0
    for members in buckets.values():
        if len(members) < 2:
            continue
        rep = min(members)
        confirmed = [rep]
        for var in members:
            if var == rep:
                continue
            if pairs_tried >= max_pairs:
                break
            pairs_tried += 1
            proof = prove_pair(
                union, var_lit(rep), var_lit(var), conflict_budget=conflict_budget, max_cone=MAX_CONE
            )
            conflicts += proof.conflicts
            if proof.status == "equivalent":
                pairs_proved += 1
                confirmed.append(var)
        if len(confirmed) > 1:
            classes.members[rep] = confirmed
            for var in confirmed:
                classes.repr_of[var] = rep
    return ChoiceAig(
        aig=union,
        classes=classes,
        num_variants=1 + len(VARIANT_SYNTHESIZERS),
        pairs_tried=pairs_tried,
        pairs_proved=pairs_proved,
        conflicts=conflicts,
    )
