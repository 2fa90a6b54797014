"""Standard-cell library with ASAP7-like relative area and delay figures.

The real evaluation in the paper uses the ASAP 7nm PDK.  Liberty files are
not redistributable here, so we provide a synthetic library whose *relative*
area and delay values follow the ASAP7 7.5-track cell family closely enough
for comparative experiments: an inverter is the unit cell, NAND/NOR are
cheap, complex AOI/OAI cells trade area for logic depth, and XOR/MAJ cells
are comparatively large and slow.

Areas are in square micrometres, delays in picoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from repro.opt.npn import npn_canonical
from repro.opt.truth import FULL, flip, permute


def _truth_from_expr(num_vars: int, func) -> int:
    """Build a truth table by evaluating ``func`` on every minterm."""
    truth = 0
    for minterm in range(1 << num_vars):
        bits = [(minterm >> i) & 1 for i in range(num_vars)]
        if func(*bits):
            truth |= 1 << minterm
    return truth


@dataclass(frozen=True)
class Gate:
    """A combinational standard cell."""

    name: str
    num_inputs: int
    truth: int  # truth table over num_inputs variables
    area: float  # um^2
    delay: float  # ps, single pin-to-pin worst-case figure

    @property
    def npn_class(self) -> int:
        """NPN canonical form of the gate function."""
        return npn_canonical(self.truth, self.num_inputs)


@dataclass(frozen=True)
class GateMatch:
    """One way to implement a cut function with a library gate.

    ``leaf_of_pin[i]`` is the cut-leaf index driving gate input pin *i* and
    ``pin_negated[i]`` says whether that pin needs an inverter;
    ``output_negated`` adds an inverter after the gate output.
    """

    gate: Gate
    leaf_of_pin: Tuple[int, ...]
    pin_negated: Tuple[bool, ...]
    output_negated: bool

    @property
    def num_inverters(self) -> int:
        """Inverters the match needs on its pins and output."""
        return sum(self.pin_negated) + int(self.output_negated)


@dataclass
class Library:
    """A collection of gates indexed by function for Boolean matching.

    Matching is phase- and permutation-complete: for every gate the table
    enumerates all input permutations, input negations and output negation,
    so any cut function whose NPN class is covered by some cell gets a match
    (with the required inverters made explicit in the :class:`GateMatch`).
    """

    name: str
    gates: List[Gate] = field(default_factory=list)
    _by_truth: Dict[Tuple[int, int], Gate] = field(default_factory=dict, repr=False)
    _match_table: Dict[Tuple[int, int], GateMatch] = field(default_factory=dict, repr=False)

    def add(self, gate: Gate) -> None:
        """Add a gate and enter all its pin/phase variants into the match table."""
        self.gates.append(gate)
        key = (gate.num_inputs, gate.truth)
        existing = self._by_truth.get(key)
        if existing is None or (gate.delay, gate.area) < (existing.delay, existing.area):
            self._by_truth[key] = gate
        self._index_gate(gate)

    def _index_gate(self, gate: Gate) -> None:
        n = gate.num_inputs
        # negated[neg_mask]: the gate function with the pins in neg_mask negated.
        negated = [gate.truth & FULL[n]]
        for neg_mask in range(1, 1 << n):
            low = neg_mask & -neg_mask
            negated.append(flip(negated[neg_mask ^ low], low.bit_length() - 1, n))
        for perm in permutations(range(n)):
            # Pin ``pin`` reads cut leaf perm[pin], so leaf i feeds pin inverse[i].
            inverse = tuple(sorted(range(n), key=perm.__getitem__))
            for neg_mask in range(1 << n):
                base = permute(negated[neg_mask], inverse)
                for out_neg in (False, True):
                    truth = base ^ FULL[n] if out_neg else base
                    match = GateMatch(
                        gate=gate,
                        leaf_of_pin=perm,
                        pin_negated=tuple(bool((neg_mask >> pin) & 1) for pin in range(n)),
                        output_negated=out_neg,
                    )
                    key = (n, truth)
                    existing = self._match_table.get(key)
                    if existing is None or self._match_rank(match) < self._match_rank(existing):
                        self._match_table[key] = match

    @staticmethod
    def _match_rank(match: GateMatch) -> Tuple[int, float, float]:
        return (match.num_inverters, match.gate.delay, match.gate.area)

    def match(self, truth: int, num_inputs: int) -> Optional[GateMatch]:
        """Find the best single-gate implementation of ``truth`` (with inverters)."""
        return self._match_table.get((num_inputs, truth))

    @property
    def inverter(self) -> Gate:
        """The fastest (then smallest) inverter; raises if the library has none."""
        gate = self._by_truth.get((1, 0b01))
        if gate is None:
            raise ValueError("library has no inverter")
        return gate

    @property
    def buffer(self) -> Optional[Gate]:
        """The fastest (then smallest) buffer, if any."""
        return self._by_truth.get((1, 0b10))

    def max_gate_inputs(self) -> int:
        """Largest gate input count."""
        return max(g.num_inputs for g in self.gates)

    def gate_by_name(self, name: str) -> Gate:
        """The gate called ``name``; raises ``KeyError`` otherwise."""
        for gate in self.gates:
            if gate.name == name:
                return gate
        raise KeyError(name)


_DEFAULT_LIBRARY: Optional[Library] = None


def default_library() -> Library:
    """A shared instance of the default library (building the match table is not free)."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = asap7_like_library()
    return _DEFAULT_LIBRARY


def asap7_like_library() -> Library:
    """The default synthetic library used by all experiments."""
    lib = Library(name="asap7_like")

    def add(name, n, func, area, delay):
        lib.add(Gate(name=name, num_inputs=n, truth=_truth_from_expr(n, func), area=area, delay=delay))

    # One-input cells.
    add("INVx1", 1, lambda a: not a, 0.054, 8.0)
    add("BUFx2", 1, lambda a: a, 0.081, 12.0)
    # Two-input cells.
    add("NAND2x1", 2, lambda a, b: not (a and b), 0.081, 11.0)
    add("NOR2x1", 2, lambda a, b: not (a or b), 0.081, 13.0)
    add("AND2x2", 2, lambda a, b: a and b, 0.108, 16.0)
    add("OR2x2", 2, lambda a, b: a or b, 0.108, 18.0)
    add("XOR2x1", 2, lambda a, b: a != b, 0.162, 22.0)
    add("XNOR2x1", 2, lambda a, b: a == b, 0.162, 22.0)
    # Three-input cells.
    add("NAND3x1", 3, lambda a, b, c: not (a and b and c), 0.108, 14.0)
    add("NOR3x1", 3, lambda a, b, c: not (a or b or c), 0.108, 17.0)
    add("AND3x1", 3, lambda a, b, c: a and b and c, 0.135, 19.0)
    add("OR3x1", 3, lambda a, b, c: a or b or c, 0.135, 21.0)
    add("AOI21x1", 3, lambda a, b, c: not ((a and b) or c), 0.108, 15.0)
    add("OAI21x1", 3, lambda a, b, c: not ((a or b) and c), 0.108, 15.0)
    add("MAJ3x1", 3, lambda a, b, c: (a + b + c) >= 2, 0.189, 24.0)
    add("MUX2x1", 3, lambda s, a, b: (a if s else b), 0.162, 20.0)
    add("XOR3x1", 3, lambda a, b, c: (a + b + c) % 2 == 1, 0.243, 30.0)
    # Four-input cells.
    add("NAND4x1", 4, lambda a, b, c, d: not (a and b and c and d), 0.135, 17.0)
    add("NOR4x1", 4, lambda a, b, c, d: not (a or b or c or d), 0.135, 21.0)
    add("AOI22x1", 4, lambda a, b, c, d: not ((a and b) or (c and d)), 0.135, 17.0)
    add("OAI22x1", 4, lambda a, b, c, d: not ((a or b) and (c or d)), 0.135, 17.0)
    add("AO22x1", 4, lambda a, b, c, d: (a and b) or (c and d), 0.162, 21.0)
    add("OA22x1", 4, lambda a, b, c, d: (a or b) and (c or d), 0.162, 21.0)
    add("AOI211x1", 4, lambda a, b, c, d: not ((a and b) or c or d), 0.135, 18.0)
    add("OAI211x1", 4, lambda a, b, c, d: not ((a or b) and c and d), 0.135, 18.0)
    return lib
