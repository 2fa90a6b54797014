"""Arithmetic benchmark circuit generators.

All generators build AIGs directly from gate-level descriptions of the
classic datapath structures: ripple/carry adders, array multipliers,
restoring dividers, non-restoring square roots, and fixed-point polynomial
approximations for log2/sin/hyp.  Widths are parameters so tests can use
small instances while benchmarks use larger ones.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.aig.graph import Aig, lit_not


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def full_adder(aig: Aig, a: int, b: int, cin: int) -> Tuple[int, int]:
    """(sum, carry-out) of a full adder."""
    s = aig.add_xor(aig.add_xor(a, b), cin)
    cout = aig.add_maj(a, b, cin)
    return s, cout


def ripple_adder(aig: Aig, a: Sequence[int], b: Sequence[int], cin: int = 0) -> Tuple[List[int], int]:
    """Ripple-carry addition of two equal-width vectors; returns (sum bits, carry)."""
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    sums = []
    carry = cin
    for ai, bi in zip(a, b):
        s, carry = full_adder(aig, ai, bi, carry)
        sums.append(s)
    return sums, carry


def subtractor(aig: Aig, a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], int]:
    """a - b via two's complement; returns (difference bits, borrow-free flag)."""
    b_inv = [lit_not(x) for x in b]
    diff, carry = ripple_adder(aig, list(a), b_inv, cin=1)
    return diff, carry  # carry == 1 means a >= b


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------


def adder(width: int = 32) -> Aig:
    """A ``width``-bit adder with carry-out (EPFL ``adder`` analogue)."""
    aig = Aig(name=f"adder{width}")
    a = [aig.add_pi(f"a{i}") for i in range(width)]
    b = [aig.add_pi(f"b{i}") for i in range(width)]
    sums, carry = ripple_adder(aig, a, b)
    for i, s in enumerate(sums):
        aig.add_po(s, f"sum{i}")
    aig.add_po(carry, "cout")
    return aig.cleanup()


def multiplier(width: int = 8) -> Aig:
    """A ``width`` x ``width`` array multiplier (EPFL ``multiplier`` analogue)."""
    aig = Aig(name=f"multiplier{width}")
    a = [aig.add_pi(f"a{i}") for i in range(width)]
    b = [aig.add_pi(f"b{i}") for i in range(width)]
    out_width = 2 * width
    acc = [0] * out_width
    for j in range(width):
        partial = [0] * out_width
        for i in range(width):
            if i + j < out_width:
                partial[i + j] = aig.add_and(a[i], b[j])
        acc, _ = ripple_adder(aig, acc, partial)
    for i, bit in enumerate(acc):
        aig.add_po(bit, f"p{i}")
    return aig.cleanup()


def square(width: int = 8) -> Aig:
    """x^2 of a ``width``-bit input (EPFL ``square`` analogue)."""
    aig = Aig(name=f"square{width}")
    a = [aig.add_pi(f"a{i}") for i in range(width)]
    out_width = 2 * width
    acc = [0] * out_width
    for j in range(width):
        partial = [0] * out_width
        for i in range(width):
            if i + j < out_width:
                partial[i + j] = aig.add_and(a[i], a[j])
        acc, _ = ripple_adder(aig, acc, partial)
    for i, bit in enumerate(acc):
        aig.add_po(bit, f"sq{i}")
    return aig.cleanup()


def divider(width: int = 8) -> Aig:
    """Restoring array divider: ``width``-bit dividend / ``width``-bit divisor.

    Produces quotient and remainder (EPFL ``div`` analogue).
    """
    aig = Aig(name=f"div{width}")
    dividend = [aig.add_pi(f"n{i}") for i in range(width)]
    divisor = [aig.add_pi(f"d{i}") for i in range(width)]
    remainder: List[int] = [0] * width
    quotient: List[int] = [0] * width
    for step in range(width - 1, -1, -1):
        # Shift the remainder left and bring down the next dividend bit.
        remainder = [dividend[step]] + remainder[:-1]
        diff, no_borrow = subtractor(aig, remainder, divisor)
        quotient[step] = no_borrow
        # Restoring step: keep the difference only if divisor fitted.
        remainder = [aig.add_mux(no_borrow, d, r) for d, r in zip(diff, remainder)]
    for i in range(width):
        aig.add_po(quotient[i], f"q{i}")
    for i in range(width):
        aig.add_po(remainder[i], f"r{i}")
    return aig.cleanup()


def sqrt(width: int = 12) -> Aig:
    """Integer square root of a ``width``-bit radicand (EPFL ``sqrt`` analogue).

    Digit-by-digit (restoring) method; the result has ``width // 2`` bits.
    """
    aig = Aig(name=f"sqrt{width}")
    if width % 2:
        width += 1
    x = [aig.add_pi(f"x{i}") for i in range(width)]
    half = width // 2
    root: List[int] = [0] * half
    remainder: List[int] = [0] * (half + 2)
    for step in range(half - 1, -1, -1):
        # Bring down two bits of the radicand.
        pair = [x[2 * step], x[2 * step + 1]]
        remainder = pair + remainder[:-2]
        # Trial subtrahend: (root << 2) | 01, shifted appropriately -> root*4 + 1
        trial = [1] + [0] + [root[i] for i in range(half)]
        trial = trial[: len(remainder)]
        diff, no_borrow = subtractor(aig, remainder, trial)
        remainder = [aig.add_mux(no_borrow, d, r) for d, r in zip(diff, remainder)]
        # Shift the root left by one and set the new LSB.
        root = [no_borrow] + root[:-1]
    for i in range(half):
        aig.add_po(root[i], f"s{i}")
    for i in range(len(remainder)):
        aig.add_po(remainder[i], f"rem{i}")
    return aig.cleanup()


def _poly_eval(aig: Aig, x_bits: List[int], coefficients: Sequence[int], width: int) -> List[int]:
    """Horner evaluation of a polynomial with constant coefficients (mod 2^width)."""
    def const_vector(value: int) -> List[int]:
        return [1 if (value >> i) & 1 else 0 for i in range(width)]

    def mul(a_bits: List[int], b_bits: List[int]) -> List[int]:
        acc = [0] * width
        for j in range(width):
            partial = [0] * width
            for i in range(width - j):
                partial[i + j] = aig.add_and(a_bits[i], b_bits[j])
            acc, _ = ripple_adder(aig, acc, partial)
        return acc

    result = const_vector(coefficients[-1])
    for coeff in reversed(coefficients[:-1]):
        result = mul(result, x_bits)
        result, _ = ripple_adder(aig, result, const_vector(coeff))
    return result


def log2_approx(width: int = 10) -> Aig:
    """Fixed-point polynomial approximation of log2 (EPFL ``log2`` analogue).

    The real EPFL log2 is a 32-bit CORDIC-style block; this generator keeps
    the same flavour (multiplier-and-adder dominated, deep carry chains) via
    a degree-3 polynomial on the mantissa plus a priority encoder for the
    integer part.
    """
    aig = Aig(name=f"log2_{width}")
    x = [aig.add_pi(f"x{i}") for i in range(width)]
    # Priority encoder: position of the leading one (integer part of log2).
    seen = 0
    position = [0] * max(1, (width - 1).bit_length())
    for i in range(width - 1, -1, -1):
        is_leader = aig.add_and(x[i], lit_not(seen))
        for b in range(len(position)):
            if (i >> b) & 1:
                position[b] = aig.add_or(position[b], is_leader)
        seen = aig.add_or(seen, x[i])
    # Fractional part: polynomial on the low bits.
    frac = _poly_eval(aig, x, coefficients=(3, 11, 7, 1), width=width)
    for i, bit in enumerate(position):
        aig.add_po(bit, f"int{i}")
    for i, bit in enumerate(frac):
        aig.add_po(bit, f"frac{i}")
    return aig.cleanup()


def sin_approx(width: int = 10) -> Aig:
    """Fixed-point polynomial approximation of sine (EPFL ``sin`` analogue)."""
    aig = Aig(name=f"sin_{width}")
    x = [aig.add_pi(f"x{i}") for i in range(width)]
    # Odd polynomial: x * (a0 + a1*x^2) — the classic small-angle approximation shape.
    result = _poly_eval(aig, x, coefficients=(1, 0, 21, 0, 5), width=width)
    for i, bit in enumerate(result):
        aig.add_po(bit, f"sin{i}")
    return aig.cleanup()


def hyp_approx(width: int = 8, stages: int = 3) -> Aig:
    """Hypotenuse-style iterative datapath (EPFL ``hyp`` analogue).

    ``hyp`` is by far the largest EPFL circuit (a chain of multiply-add
    CORDIC stages); this generator chains ``stages`` multiply-accumulate
    rounds over two operands to reproduce the same deep, multiplier-heavy
    structure at reduced width.
    """
    aig = Aig(name=f"hyp_{width}")
    a = [aig.add_pi(f"a{i}") for i in range(width)]
    b = [aig.add_pi(f"b{i}") for i in range(width)]

    def mul(a_bits: List[int], b_bits: List[int]) -> List[int]:
        acc = [0] * width
        for j in range(width):
            partial = [0] * width
            for i in range(width - j):
                partial[i + j] = aig.add_and(a_bits[i], b_bits[j])
            acc, _ = ripple_adder(aig, acc, partial)
        return acc

    xs, ys = a, b
    for _ in range(stages):
        xx = mul(xs, xs)
        yy = mul(ys, ys)
        total, _ = ripple_adder(aig, xx, yy)
        cross = mul(xs, ys)
        xs = total
        ys, _ = ripple_adder(aig, cross, ys)
    for i in range(width):
        aig.add_po(xs[i], f"h{i}")
    for i in range(width):
        aig.add_po(ys[i], f"g{i}")
    return aig.cleanup()


def max_unit(width: int = 16, num_inputs: int = 4) -> Aig:
    """Maximum of several unsigned words (EPFL ``max`` analogue, used in examples)."""
    aig = Aig(name=f"max{num_inputs}x{width}")
    words = [[aig.add_pi(f"w{j}_{i}") for i in range(width)] for j in range(num_inputs)]

    def greater_equal(a_bits: List[int], b_bits: List[int]) -> int:
        _, no_borrow = subtractor(aig, a_bits, b_bits)
        return no_borrow

    best = words[0]
    for word in words[1:]:
        keep = greater_equal(best, word)
        best = [aig.add_mux(keep, b, w) for b, w in zip(best, word)]
    for i, bit in enumerate(best):
        aig.add_po(bit, f"max{i}")
    return aig.cleanup()
