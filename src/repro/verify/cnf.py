"""CNF formulas and Tseitin encoding of AIG cones.

CNF literals use the DIMACS convention: positive integers for variables,
negative for their complements.  Variable numbering starts at 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig, lit_var


@dataclass
class Cnf:
    """A CNF formula: a list of clauses over integer literals."""

    num_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)

    def new_var(self) -> int:
        """Allocate the next variable and return it."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, clause: List[int]) -> None:
        """Append a clause; every literal must name an allocated variable."""
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"clause {clause} references unknown variable")
        self.clauses.append(list(clause))

    def to_dimacs(self) -> str:
        """The formula in DIMACS text format."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


def tseitin_encode(
    aig: Aig, roots: Sequence[int], max_ands: Optional[int] = None
) -> Optional[Tuple[Cnf, Dict[int, int], List[int]]]:
    """Tseitin-encode the cone of the literals ``roots``.

    CNF variable 1 is the constant, forced false.  The cone's PIs follow,
    then its AND nodes, each group in ascending AIG variable order.  Each
    AND's fanins come in the order ``Aig.add_and`` gives them in a
    standalone copy of the cone.  So the formula does not depend on where
    the cone sits in ``aig``.

    Returns ``(cnf, var_map, root_lits)``: ``var_map`` maps each cone
    variable to its CNF variable and ``root_lits`` holds one signed CNF
    literal per root.  Returns ``None`` when the cone holds more than
    ``max_ands`` AND nodes.
    """
    nodes = aig.nodes
    pis: List[int] = []
    ands: List[int] = []
    seen = set()
    stack = [lit_var(lit) for lit in roots]
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        node = nodes[var]
        if node.kind == "and":
            ands.append(var)
            if max_ands is not None and len(ands) > max_ands:
                return None
            stack.append(node.fanin0 >> 1)
            stack.append(node.fanin1 >> 1)
        elif node.kind == "pi":
            pis.append(var)
    ands.sort()
    var_map = {0: 1}
    for var in sorted(pis) + ands:
        var_map[var] = len(var_map) + 1

    def cnf_lit(aig_lit: int) -> int:
        v = var_map[aig_lit >> 1]
        return -v if aig_lit & 1 else v

    clauses = [[-1]]
    for var in ands:
        node = nodes[var]
        a, b = cnf_lit(node.fanin0), cnf_lit(node.fanin1)
        if (abs(a), a < 0) > (abs(b), b < 0):
            a, b = b, a
        out = var_map[var]
        # out <-> a & b
        clauses += ([-out, a], [-out, b], [out, -a, -b])
    cnf = Cnf(num_vars=len(var_map), clauses=clauses)
    return cnf, var_map, [cnf_lit(lit) for lit in roots]


def encode_miter_output(cnf: Cnf, lit_a: int, lit_b: int) -> int:
    """Add clauses for ``x = lit_a XOR lit_b`` and return CNF literal ``x``."""
    x = cnf.new_var()
    cnf.add_clause([-x, lit_a, lit_b])
    cnf.add_clause([-x, -lit_a, -lit_b])
    cnf.add_clause([x, -lit_a, lit_b])
    cnf.add_clause([x, lit_a, -lit_b])
    return x
