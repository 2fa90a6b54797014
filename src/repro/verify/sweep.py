"""SAT sweeping: prove candidate pairs bottom-up on a merged AIG.

:func:`sweep` is FRAIG-style sweeping (Mishchenko et al., "FRAIGs: A
Unifying Representation for Logic Synthesis and Verification", 2005).  It
walks an AIG in topological order and strashes each node into a *reduced*
AIG through the merges made so far.  A candidate pair is settled when the
walk reaches its later node:

* both sides already map to one reduced literal (or to complementary
  ones): settled by structure, no solver;
* a stored counterexample tells the two sides apart: ``different`` by
  simulation, no solver;
* otherwise :func:`repro.verify.cec.prove_pair` on the reduced AIG, with a
  fresh solver per query.

A proven pair merges its later node into the earlier side, so every node
above it strashes onto a smaller cone.  A ``different`` verdict's
assignment is kept as a simulation pattern, so later pairs it separates
never reach a solver.  The reduced AIG computes the same function at every
node as the input, since only proven pairs merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig
from repro.verify import cec


@dataclass
class SweepResult:
    """What :func:`sweep` settled.

    ``proofs`` holds one verdict per candidate pair, in input order; a
    ``different`` verdict's assignment maps PI variables of the *input* AIG
    to values.  ``lits`` maps each input variable to its literal in
    ``reduced``.  ``structural`` pairs were settled by the strash,
    ``simulated`` by a stored counterexample and ``sat_calls`` by the
    prover, which spent ``conflicts`` conflicts in total.
    """

    proofs: List[cec.PairProof]
    lits: List[int]
    reduced: Aig
    structural: int = 0
    simulated: int = 0
    sat_calls: int = 0
    conflicts: int = 0

    def reduced_lit(self, lit: int) -> int:
        """The reduced-AIG literal of an input-AIG literal."""
        return self.lits[lit >> 1] ^ (lit & 1)

    @property
    def proved(self) -> int:
        """Number of pairs proven equivalent."""
        return sum(1 for proof in self.proofs if proof.status == "equivalent")


def sweep(
    aig: Aig,
    pairs: Sequence[Tuple[int, int]],
    conflict_budget: Optional[int] = None,
    max_cone: Optional[int] = None,
) -> SweepResult:
    """Settle each candidate pair ``(lit_a, lit_b)`` of ``aig`` bottom-up.

    ``conflict_budget`` and ``max_cone`` bound each prover call as in
    :func:`repro.verify.cec.prove_pair`; a pair past either bound stays
    ``unknown`` and unmerged.  Pairs may name any literals (constants, PIs,
    complemented literals); a pair is settled when the walk reaches the
    later of its two variables, and pairs that share it go in input order.
    """
    reduced = Aig(name=f"{aig.name}_swept")
    lits = [0] * aig.num_nodes
    input_pi: Dict[int, int] = {}  # reduced PI variable -> input PI variable
    due: Dict[int, List[int]] = {}
    for index, (lit_a, lit_b) in enumerate(pairs):
        due.setdefault(max(lit_a >> 1, lit_b >> 1), []).append(index)
    proofs: List[Optional[cec.PairProof]] = [None] * len(pairs)
    patterns = _Patterns(reduced)
    result = SweepResult(proofs=proofs, lits=lits, reduced=reduced)
    add_and = reduced.add_and
    for node in aig.nodes:
        var = node.var
        if node.kind == "and":
            f0, f1 = node.fanin0, node.fanin1
            lits[var] = add_and(lits[f0 >> 1] ^ (f0 & 1), lits[f1 >> 1] ^ (f1 & 1))
        elif node.kind == "pi":
            lits[var] = reduced.add_pi(node.name)
            input_pi[lits[var] >> 1] = var
        for index in due.get(var, ()):
            lit_a, lit_b = pairs[index]
            red_a = lits[lit_a >> 1] ^ (lit_a & 1)
            red_b = lits[lit_b >> 1] ^ (lit_b & 1)
            if red_a == red_b or red_a == red_b ^ 1:
                result.structural += 1
                proof = cec.PairProof("equivalent") if red_a == red_b else cec.PairProof("different", assignment={})
            else:
                pattern = patterns.separating(red_a, red_b)
                if pattern is not None:
                    result.simulated += 1
                    proof = cec.PairProof("different", assignment=patterns.reported[pattern])
                else:
                    result.sat_calls += 1
                    proof = cec.prove_pair(
                        reduced, red_a, red_b, conflict_budget=conflict_budget, max_cone=max_cone
                    )
                    result.conflicts += proof.conflicts
                    if proof.status == "different":
                        reported = {input_pi[pi]: value for pi, value in proof.assignment.items()}
                        patterns.add(proof.assignment, reported)
                        proof.assignment = reported
                    elif proof.status == "equivalent":
                        # Merge the later node into the other side.
                        if lit_b >> 1 == var:
                            lits[var] = red_a ^ (lit_b & 1)
                        else:
                            lits[var] = red_b ^ (lit_a & 1)
            proofs[index] = proof
    return result


class _Patterns:
    """The counterexamples found so far, simulated lazily on the reduced AIG.

    Bit ``k`` of ``words[var]`` is reduced variable ``var``'s value under
    pattern ``k``; ``upto[var]`` patterns are simulated there.  A query
    brings only the two cones it reads up to date, so a pattern costs
    nothing until a later pair's cone is read.  ``reported[k]`` is pattern
    ``k`` as the input-AIG assignment a ``different`` verdict reports.
    """

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self.assignments: List[Dict[int, bool]] = []
        self.reported: List[Dict[int, bool]] = []
        self.words: List[int] = []
        self.upto: List[int] = []

    def add(self, assignment: Dict[int, bool], reported: Dict[int, bool]) -> None:
        """Store a reduced-AIG PI assignment, and its input-AIG form, as the next pattern."""
        self.assignments.append(assignment)
        self.reported.append(reported)

    def separating(self, lit_a: int, lit_b: int) -> Optional[int]:
        """The first stored pattern on which the two literals differ, if any."""
        count = len(self.assignments)
        if not count:
            return None
        mask = (1 << count) - 1
        diff = self._word(lit_a >> 1) ^ self._word(lit_b >> 1)
        if (lit_a ^ lit_b) & 1:
            diff ^= mask
        if not diff:
            return None
        return (diff & -diff).bit_length() - 1

    def _word(self, var: int) -> int:
        count = len(self.assignments)
        words, upto, nodes = self.words, self.upto, self.aig.nodes
        if len(upto) < len(nodes):
            grow = len(nodes) - len(upto)
            words += [0] * grow
            upto += [0] * grow
        if upto[var] == count:
            return words[var]
        mask = (1 << count) - 1
        stack = [var]
        while stack:
            top = stack[-1]
            if upto[top] == count:
                stack.pop()
                continue
            node = nodes[top]
            if node.kind == "and":
                f0, f1 = node.fanin0, node.fanin1
                if upto[f0 >> 1] != count:
                    stack.append(f0 >> 1)
                    continue
                if upto[f1 >> 1] != count:
                    stack.append(f1 >> 1)
                    continue
                w0 = words[f0 >> 1] ^ (mask if f0 & 1 else 0)
                w1 = words[f1 >> 1] ^ (mask if f1 & 1 else 0)
                words[top] = w0 & w1
            elif node.kind == "pi":
                word = words[top]
                for k in range(upto[top], count):
                    if self.assignments[k].get(top, False):
                        word |= 1 << k
                words[top] = word
            upto[top] = count
            stack.pop()
        return words[var]
