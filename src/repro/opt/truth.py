"""Truth tables as words: the one module that knows their bit layout.

A function of ``n <= MAX_VARS`` inputs is an ``int`` with ``2 ** n`` valid
bits: bit ``m`` is the value on minterm ``m``, and input ``i`` is bit ``i``
of ``m``.  Every operation here is a few big-integer operations on
precomputed variable masks (the word-parallel layout of ABC's truth-table
routines) instead of a loop over the ``2 ** n`` minterms.

``stretch`` and ``permute`` are memoized on their arguments alone (function,
leaf positions or permutation, width), never on AIG variables, so one entry
serves every node and circuit that meets the same function.  The caches are
bounded, live one per process and hold only ints, so they never change a
result: a pool worker simply starts with empty ones.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

#: Widest function the kernels handle (cut enumeration's ``k`` bound).
MAX_VARS = 8
#: Entries kept by the ``stretch`` cache (cut merging: one per distinct
#: function, leaf-position tuple and width).
STRETCH_CACHE_SIZE = 1 << 14
#: Entries kept by the ``permute`` cache (choice cuts remapped to class
#: representatives, and the library's match table).
PERMUTE_CACHE_SIZE = 1 << 13


def _var_masks(n: int) -> Tuple[int, ...]:
    """Truth table of every input over ``n`` inputs, built by doubling."""
    masks: List[int] = []
    for var in range(n):
        half = 1 << var
        word = ((1 << half) - 1) << half  # one period: 2**var zeros, 2**var ones
        for width in range(var + 1, n):
            word |= word << (1 << width)
        masks.append(word)
    return tuple(masks)


#: ``FULL[n]``: all ``2 ** n`` valid bits set (the constant-1 function).
FULL: Tuple[int, ...] = tuple((1 << (1 << n)) - 1 for n in range(MAX_VARS + 1))
#: ``VAR_MASKS[n][i]``: minterms of ``n`` inputs where input ``i`` is 1.
VAR_MASKS: Tuple[Tuple[int, ...], ...] = tuple(_var_masks(n) for n in range(MAX_VARS + 1))


def _swap_masks(n: int) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """``[i][j]`` for ``i < j``: (bits kept, bits moving up, shift) of a swap."""
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            if j <= i:
                row.append((0, 0, 0))
                continue
            shift = (1 << j) - (1 << i)
            up = VAR_MASKS[n][i] & ~VAR_MASKS[n][j]  # x_i = 1, x_j = 0
            row.append((FULL[n] & ~(up | (up << shift)), up, shift))
        table.append(tuple(row))
    return tuple(table)


_SWAPS = tuple(_swap_masks(n) for n in range(MAX_VARS + 1))


def flip(truth: int, var: int, n: int) -> int:
    """Negate input ``var``: swap the function's two cofactors of ``var``."""
    mask = VAR_MASKS[n][var]
    shift = 1 << var
    return ((truth & mask) >> shift) | ((truth & (FULL[n] ^ mask)) << shift)


def cofactors(truth: int, var: int, n: int) -> Tuple[int, int]:
    """(negative, positive) cofactor of ``var``, each over all ``n`` inputs."""
    mask = VAR_MASKS[n][var]
    shift = 1 << var
    neg = truth & (FULL[n] ^ mask)
    pos = truth & mask
    return neg | (neg << shift), pos | (pos >> shift)


def _swap(truth: int, i: int, j: int, n: int) -> int:
    """Exchange inputs ``i < j``."""
    keep, up, shift = _SWAPS[n][i][j]
    return (truth & keep) | ((truth & up) << shift) | ((truth >> shift) & up)


@lru_cache(maxsize=STRETCH_CACHE_SIZE)
def stretch(truth: int, positions: Tuple[int, ...], n: int) -> int:
    """Re-express a function of ``len(positions)`` inputs over ``n`` inputs.

    Input ``j`` of ``truth`` becomes input ``positions[j]``; ``positions``
    ascends, as the positions of a sorted leaf tuple inside a sorted
    superset do.  The other inputs are don't-cares of the result.
    """
    size = len(positions)
    word = truth & FULL[size]
    for width in range(size, n):
        word |= word << (1 << width)
    # Inputs size..n-1 are free; move the top input out first so that every
    # target position is free when its input arrives.
    for j in range(size - 1, -1, -1):
        if positions[j] != j:
            word = _swap(word, j, positions[j], n)
    return word


@lru_cache(maxsize=PERMUTE_CACHE_SIZE)
def permute(truth: int, perm: Tuple[int, ...]) -> int:
    """Permute inputs: input ``i`` of the result reads input ``perm[i]``."""
    n = len(perm)
    word = truth & FULL[n]
    where = list(range(n))  # where[v]: position input v of ``truth`` sits at
    held = list(range(n))  # held[p]: input of ``truth`` at position p
    for i, old in enumerate(perm):
        at = where[old]
        if at != i:  # positions below i are final, so i < at
            word = _swap(word, i, at, n)
            other = held[i]
            held[i], held[at] = old, other
            where[old], where[other] = i, at
    return word
