"""Combinational equivalence checking (ABC's ``cec``) and the SAT pair prover.

:func:`prove_pair` is the one SAT proof that two literals of an AIG are
equal: it encodes only their joint cone into a fresh solver.  The choice
computation calls it once per candidate pair.  :func:`check_equivalence`
first runs bit-parallel random simulation to look for a cheap
counterexample, then strashes both circuits into one union AIG over shared
PIs and calls the prover once per output pair.  Shared structure merges in
the strash, so an output pair that became one literal needs no SAT call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.aig.graph import Aig, lit_not
from repro.aig.simulate import random_simulate
from repro.obs import trace as obs
from repro.verify.cnf import encode_miter_output, tseitin_encode
from repro.verify.sat import SatSolver


@dataclass
class PairProof:
    """Verdict of :func:`prove_pair`.

    ``status`` is ``"equivalent"``, ``"different"`` or ``"unknown"``.  A
    ``"different"`` verdict carries ``assignment``, PI variable to value, on
    which the two literals differ; PIs it leaves out may take any value.
    """

    status: str
    conflicts: int = 0
    assignment: Optional[Dict[int, bool]] = None


def prove_pair(
    aig: Aig,
    lit_a: int,
    lit_b: int,
    conflict_budget: Optional[int] = None,
    max_cone: Optional[int] = None,
) -> PairProof:
    """Prove ``lit_a == lit_b`` in ``aig`` with SAT on their joint cone.

    Equal or complementary literals get their verdict without a solver.  A
    cone with more than ``max_cone`` AND nodes, or a solver run past
    ``conflict_budget`` conflicts, gives ``"unknown"``.
    """
    if lit_a == lit_b:
        return PairProof("equivalent")
    if lit_a == lit_not(lit_b):
        return PairProof("different", assignment={})
    encoded = tseitin_encode(aig, [lit_a, lit_b], max_ands=max_cone)
    if encoded is None:
        return PairProof("unknown")
    cnf, var_map, (a, b) = encoded
    cnf.add_clause([encode_miter_output(cnf, a, b)])
    result = SatSolver(cnf).solve(conflict_budget=conflict_budget)
    if result.status == "sat":
        assignment = {var: result.model[v] for var, v in var_map.items() if aig.nodes[var].kind == "pi"}
        return PairProof("different", result.conflicts, assignment)
    return PairProof("equivalent" if result.status == "unsat" else "unknown", result.conflicts)


@dataclass
class CecResult:
    """Result of a combinational equivalence check."""

    equivalent: bool
    status: str  # "equivalent", "counterexample", "unknown"
    counterexample: Optional[Dict[str, bool]] = None
    failing_output: Optional[int] = None
    conflicts: int = 0

    def __bool__(self) -> bool:
        return self.equivalent

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form for telemetry payloads (partition reports,
        orchestration results); the counterexample rides along when present."""
        data: Dict[str, object] = {
            "equivalent": self.equivalent,
            "status": self.status,
            "conflicts": self.conflicts,
        }
        if self.counterexample is not None:
            data["counterexample"] = dict(self.counterexample)
        if self.failing_output is not None:
            data["failing_output"] = self.failing_output
        return data


def check_equivalence(
    aig_a: Aig,
    aig_b: Aig,
    sim_words: int = 8,
    conflict_budget: Optional[int] = None,
) -> CecResult:
    """Check that two AIGs are functionally equivalent.

    ``sim_words`` random 64-pattern words filter cheap mismatches first (0
    skips the filter).  A ``conflict_budget`` bounds each output pair's SAT
    call, making the check incomplete: status ``"unknown"`` on timeout.
    Records one ``check equivalence`` span (category ``verify``).
    """
    if sim_words < 0:
        raise ValueError("cec needs sim_words >= 0")
    if conflict_budget is not None and conflict_budget < 0:
        raise ValueError("cec needs conflict_budget >= 0")
    with obs.span(
        "check equivalence", category="verify", outputs=aig_a.num_pos, structural=0, sat_calls=0
    ) as span:
        result = _check(aig_a, aig_b, sim_words, conflict_budget, span)
        span.set("conflicts", result.conflicts)
        span.set("status", result.status)
    return result


def _check(
    aig_a: Aig, aig_b: Aig, sim_words: int, conflict_budget: Optional[int], span: obs.Span
) -> CecResult:
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        return CecResult(equivalent=False, status="counterexample")

    sims_a = random_simulate(aig_a, num_words=sim_words, seed=99)
    sims_b = random_simulate(aig_b, num_words=sim_words, seed=99)
    for words_a, words_b in zip(sims_a, sims_b):
        for out_idx, (wa, wb) in enumerate(zip(words_a, words_b)):
            if wa != wb:
                return CecResult(equivalent=False, status="counterexample", failing_output=out_idx)

    union = Aig(name=f"union_{aig_a.name}_{aig_b.name}")
    pis = [union.add_pi() for _ in aig_a.pis]
    total_conflicts = 0
    for out_idx, (la, lb) in enumerate(zip(union.append(aig_a, pis), union.append(aig_b, pis))):
        if la == lb:
            span.add("structural")
            continue
        span.add("sat_calls")
        proof = prove_pair(union, la, lb, conflict_budget=conflict_budget)
        total_conflicts += proof.conflicts
        if proof.status == "different":
            cex = {
                aig_a.node(var).name or f"pi{i}": proof.assignment.get(union.pis[i], False)
                for i, var in enumerate(aig_a.pis)
            }
            return CecResult(
                equivalent=False,
                status="counterexample",
                counterexample=cex,
                failing_output=out_idx,
                conflicts=total_conflicts,
            )
        if proof.status == "unknown":
            return CecResult(equivalent=False, status="unknown", conflicts=total_conflicts)
    return CecResult(equivalent=True, status="equivalent", conflicts=total_conflicts)
