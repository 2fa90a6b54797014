"""Bit-parallel simulation of AIGs.

Simulation is used for quick equivalence filtering in CEC and for computing
truth tables of small cuts during rewriting and technology mapping.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


def simulate(aig: Aig, input_patterns: Sequence[int], width: int = WORD_BITS) -> List[int]:
    """Simulate the AIG with one bit-parallel pattern word per PI.

    ``input_patterns`` holds one integer per primary input; bit *i* of the
    word is the value of that input in simulation vector *i*.  Returns one
    word per primary output.
    """
    if len(input_patterns) != aig.num_pis:
        raise ValueError(f"expected {aig.num_pis} input patterns, got {len(input_patterns)}")
    mask = (1 << width) - 1
    values: List[int] = [0] * aig.num_nodes
    for var, pattern in zip(aig.pis, input_patterns):
        values[var] = pattern & mask
    for node in aig.and_nodes():
        v0 = values[lit_var(node.fanin0)]
        if lit_is_compl(node.fanin0):
            v0 ^= mask
        v1 = values[lit_var(node.fanin1)]
        if lit_is_compl(node.fanin1):
            v1 ^= mask
        values[node.var] = v0 & v1
    outs = []
    for lit, _ in aig.pos:
        v = values[lit_var(lit)]
        if lit_is_compl(lit):
            v ^= mask
        outs.append(v & mask)
    return outs


def random_simulate(aig: Aig, num_words: int = 1, seed: int = 0, width: int = WORD_BITS) -> List[List[int]]:
    """Simulate with random patterns; returns ``num_words`` lists of PO words."""
    rng = random.Random(seed)
    results = []
    for _ in range(num_words):
        patterns = [rng.getrandbits(width) for _ in range(aig.num_pis)]
        results.append(simulate(aig, patterns, width))
    return results


def exhaustive_truth_tables(aig: Aig) -> List[int]:
    """Exhaustively compute PO truth tables for AIGs with up to 16 PIs."""
    n = aig.num_pis
    if n > 16:
        raise ValueError("exhaustive simulation limited to 16 inputs")
    width = 1 << n
    patterns = []
    for i in range(n):
        word = 0
        for minterm in range(width):
            if (minterm >> i) & 1:
                word |= 1 << minterm
        patterns.append(word)
    return simulate(aig, patterns, width)


def node_words(aig: Aig, num_words: int, seed: int) -> List[Tuple[int, ...]]:
    """Per-variable simulation signatures: ``num_words`` random 64-bit words each.

    Each word draws one ``getrandbits(64)`` per PI, in PI order, from a
    ``random.Random(seed)``; entry ``var`` holds that variable's words.
    """
    rng = random.Random(seed)
    ands = [(node.var, node.fanin0, node.fanin1) for node in aig.and_nodes()]
    rows = []
    for _ in range(num_words):
        values = [0] * aig.num_nodes
        for var in aig.pis:
            values[var] = rng.getrandbits(WORD_BITS)
        for var, f0, f1 in ands:
            v0 = values[f0 >> 1] ^ (WORD_MASK if f0 & 1 else 0)
            v1 = values[f1 >> 1] ^ (WORD_MASK if f1 & 1 else 0)
            values[var] = v0 & v1
        rows.append(values)
    return list(zip(*rows)) if rows else [()] * aig.num_nodes
