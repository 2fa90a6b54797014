"""NPN classification of small Boolean functions.

Two functions are NPN-equivalent if one can be obtained from the other by
Negating inputs, Permuting inputs, and/or Negating the output.  The canonical
representative is used to deduplicate cut functions during rewriting and to
bucket structures in the choice computation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Tuple

from repro.opt.truth import FULL, flip, permute


def truth_num_vars(truth: int, max_vars: int = 6) -> int:
    """Smallest variable count whose truth-table width can hold ``truth``."""
    for n in range(max_vars + 1):
        if truth < (1 << (1 << n)):
            return n
    raise ValueError("truth table too large")


def negate_output(truth: int, num_vars: int) -> int:
    """Complement the function (within its ``2 ** num_vars`` valid bits)."""
    return truth ^ FULL[num_vars]


def negate_input(truth: int, var: int, num_vars: int) -> int:
    """Swap the cofactors of ``var``."""
    return flip(truth, var, num_vars)


def permute_inputs(truth: int, perm: Tuple[int, ...], num_vars: int) -> int:
    """Apply an input permutation: new variable i reads old variable perm[i]."""
    return permute(truth & FULL[num_vars], tuple(perm))


@lru_cache(maxsize=65536)
def npn_canonical(truth: int, num_vars: int) -> int:
    """Exact NPN canonical form (minimum truth-table integer) for <= 4 vars.

    For 5 or 6 variables a semi-canonical form (output negation plus input
    negations only, no permutation) is used to keep runtime bounded.
    """
    truth &= FULL[num_vars]
    best = truth
    if num_vars <= 4:
        perms = list(permutations(range(num_vars)))
    else:
        perms = [tuple(range(num_vars))]
    for out_neg in (False, True):
        base = negate_output(truth, num_vars) if out_neg else truth
        for neg_mask in range(1 << num_vars):
            t = base
            for var in range(num_vars):
                if (neg_mask >> var) & 1:
                    t = negate_input(t, var, num_vars)
            for perm in perms:
                candidate = permute_inputs(t, perm, num_vars)
                if candidate < best:
                    best = candidate
    return best


def classify(truths: List[int], num_vars: int) -> Dict[int, List[int]]:
    """Group truth tables by NPN class; returns canonical -> member list."""
    classes: Dict[int, List[int]] = {}
    for t in truths:
        classes.setdefault(npn_canonical(t, num_vars), []).append(t)
    return classes


def is_npn_equivalent(truth_a: int, truth_b: int, num_vars: int) -> bool:
    """True if two functions are NPN-equivalent."""
    return npn_canonical(truth_a, num_vars) == npn_canonical(truth_b, num_vars)
