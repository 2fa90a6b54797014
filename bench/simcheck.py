"""Independent functional check of a mapped gate netlist against its input AIG.

The flow's own verdict (SAT CEC inside the program) is not trusted here: this
module re-derives every primary output by bit-parallel simulation of both
sides and compares them.  It reads the two data structures directly (AIG node
list and fanin literals; netlist gates, gate truth tables, constant nets) and
shares no code with the program's simulator or equivalence checker.

Primary inputs and outputs are matched by position.  Circuits with at most
``EXHAUSTIVE_MAX_PIS`` inputs are checked on every input pattern; larger ones
on ``RANDOM_PATTERNS`` seeded random patterns.  Each signal is one Python
integer whose bit ``j`` is the signal's value under pattern ``j``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

EXHAUSTIVE_MAX_PIS = 16
RANDOM_PATTERNS = 1 << 16


def input_patterns(num_pis: int, seed: int) -> tuple:
    """``(width, patterns)``: one ``width``-bit integer per primary input.

    Exhaustive when ``num_pis <= EXHAUSTIVE_MAX_PIS`` (input ``i`` of pattern
    ``j`` is bit ``i`` of ``j``), otherwise ``RANDOM_PATTERNS`` seeded random
    patterns.
    """
    if num_pis <= EXHAUSTIVE_MAX_PIS:
        width = 1 << num_pis
        full = (1 << width) - 1
        patterns = []
        for i in range(num_pis):
            half = 1 << i
            unit = ((1 << half) - 1) << half  # `half` zeros, then `half` ones
            patterns.append(unit * (full // ((1 << (2 * half)) - 1)))
        return width, patterns
    rng = random.Random(seed)
    return RANDOM_PATTERNS, [rng.getrandbits(RANDOM_PATTERNS) for _ in range(num_pis)]


def simulate_aig(aig, patterns: List[int], mask: int) -> List[int]:
    """Primary-output values of ``aig`` under ``patterns`` (one per PI, by position)."""
    values: List[int] = [0] * len(aig.nodes)
    for var, pattern in zip(aig.pis, patterns):
        values[var] = pattern

    def lit_value(lit: int) -> int:
        value = values[lit >> 1]
        return value ^ mask if lit & 1 else value

    for node in aig.nodes:
        if node.kind == "and":
            values[node.var] = lit_value(node.fanin0) & lit_value(node.fanin1)
    return [lit_value(lit) for lit, _ in aig.pos]


def gate_output(truth: int, inputs: List[int], mask: int) -> int:
    """Value of a gate with truth table ``truth`` (bit ``m`` is the output when
    pin ``i`` carries bit ``i`` of ``m``), by Shannon expansion on the last pin."""
    if not inputs:
        return mask if truth & 1 else 0
    *rest, last = inputs
    half = 1 << len(rest)
    low = gate_output(truth & ((1 << half) - 1), rest, mask)
    high = gate_output(truth >> half, rest, mask)
    return (high & last) | (low & ~last & mask)


def simulate_netlist(netlist, patterns: List[int], mask: int) -> List[int]:
    """Primary-output values of a mapped netlist (PIs by position)."""
    if len(netlist.primary_inputs) != len(patterns):
        raise ValueError(
            f"netlist has {len(netlist.primary_inputs)} inputs, expected {len(patterns)}"
        )
    nets: Dict[str, int] = dict(zip(netlist.primary_inputs, patterns))
    for net, value in netlist.constants.items():
        nets[net] = mask if value else 0
    for inst in netlist.gates:
        try:
            inputs = [nets[net] for net in inst.inputs]
        except KeyError as missing:
            raise ValueError(f"gate driving {inst.output} reads undriven net {missing}") from None
        nets[inst.output] = gate_output(inst.gate.truth, inputs, mask)
    try:
        return [nets[net] for net in netlist.primary_outputs]
    except KeyError as missing:
        raise ValueError(f"primary output reads undriven net {missing}") from None


def check_netlist(aig, netlist, seed: int = 1) -> Optional[str]:
    """``None`` when ``netlist`` computes the same outputs as ``aig``, else a
    one-line description of the first difference found."""
    width, patterns = input_patterns(len(aig.pis), seed)
    mask = (1 << width) - 1
    expected = simulate_aig(aig, patterns, mask)
    try:
        actual = simulate_netlist(netlist, patterns, mask)
    except ValueError as error:
        return str(error)
    if len(actual) != len(expected):
        return f"netlist has {len(actual)} outputs, expected {len(expected)}"
    for index, (want, got) in enumerate(zip(expected, actual)):
        diff = want ^ got
        if diff:
            pattern = (diff & -diff).bit_length() - 1
            return f"output {index} differs under input pattern {pattern} of {width}"
    return None
