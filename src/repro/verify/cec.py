"""Combinational equivalence checking (ABC's ``cec``) and the SAT pair prover.

:func:`prove_pair` is the one SAT proof that two literals of an AIG are
equal: it encodes only their joint cone into a fresh solver.  The SAT sweep
(:mod:`repro.verify.sweep`) calls it once per candidate pair it cannot
settle by structure or simulation.  :func:`check_equivalence` first runs
bit-parallel random simulation to look for a cheap counterexample, then
strashes both circuits into one union AIG over shared PIs and proves each
output pair directly at a small budget.  Shared structure merges in the
strash, so an output pair that became one literal needs no SAT call.  From
the first output that stays ``unknown`` on, the outputs go through one
sweep of their cones and are proved on the reduced AIG with the caller's
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.aig.graph import Aig, lit_not, var_lit
from repro.aig.simulate import WORD_MASK, node_words, random_simulate
from repro.obs import trace as obs
from repro.verify.cnf import encode_miter_output, tseitin_encode
from repro.verify.sat import SatSolver
from repro.verify.sweep import sweep

#: Conflict budget (the caller's when that is smaller) and cone cap of the
#: direct proof each output pair gets first.  The first output it leaves
#: ``unknown`` (one whose joint cone is too large for a cheap attempt
#: included) and every output after it go through the sweep.
DIRECT_CONFLICT_BUDGET = 300
DIRECT_MAX_CONE = 5000
#: Conflict budget (the caller's when smaller) and cone cap of each
#: internal candidate pair the sweep proves.
SWEEP_CONFLICT_BUDGET = 100
SWEEP_MAX_CONE = 2000
#: Random simulation words per node signature of the sweep's candidate
#: pairs, and their seed.
SWEEP_SIM_WORDS = 8
SWEEP_SEED = 2024


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
        "check equivalence",
        category="verify",
        outputs=aig_a.num_pos,
        structural=0,
        sat_calls=0,
        sweep_pairs=0,
        sweep_proved=0,
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
    outputs = list(zip(union.append(aig_a, pis), union.append(aig_b, pis)))
    direct_budget = _smaller(conflict_budget, DIRECT_CONFLICT_BUDGET)
    conflicts = 0
    hard = []  # outputs left to the sweep
    for out_idx, (la, lb) in enumerate(outputs):
        if la == lb:
            span.add("structural")
            continue
        if hard:
            # One output needed the sweep, so the rest go through it too.
            hard.append(out_idx)
            continue
        span.add("sat_calls")
        proof = prove_pair(union, la, lb, conflict_budget=direct_budget, max_cone=DIRECT_MAX_CONE)
        conflicts += proof.conflicts
        if proof.status == "different":
            return _counterexample(aig_a, union, proof, out_idx, conflicts)
        if proof.status == "unknown":
            hard.append(out_idx)
    if not hard:
        return CecResult(equivalent=True, status="equivalent", conflicts=conflicts)

    pairs = _sweep_pairs(union, [lit for out_idx in hard for lit in outputs[out_idx]])
    swept = sweep(
        union,
        pairs,
        conflict_budget=_smaller(conflict_budget, SWEEP_CONFLICT_BUDGET),
        max_cone=SWEEP_MAX_CONE,
    )
    span.add("sweep_pairs", len(pairs))
    span.add("sweep_proved", swept.proved)
    span.add("sat_calls", swept.sat_calls)
    conflicts += swept.conflicts
    for out_idx in hard:
        la, lb = outputs[out_idx]
        reduced_a, reduced_b = swept.reduced_lit(la), swept.reduced_lit(lb)
        if reduced_a == reduced_b:
            continue
        span.add("sat_calls")
        aig, proof = swept.reduced, prove_pair(swept.reduced, reduced_a, reduced_b, conflict_budget)
        conflicts += proof.conflicts
        if proof.status == "unknown":
            # The per-output query at the caller's budget, so no output it
            # settles is lost.
            span.add("sat_calls")
            aig, proof = union, prove_pair(union, la, lb, conflict_budget)
            conflicts += proof.conflicts
        if proof.status == "different":
            return _counterexample(aig_a, aig, proof, out_idx, conflicts)
        if proof.status == "unknown":
            return CecResult(equivalent=False, status="unknown", conflicts=conflicts)
    return CecResult(equivalent=True, status="equivalent", conflicts=conflicts)


def _smaller(budget: Optional[int], cap: int) -> int:
    """``budget`` capped at ``cap`` (``None`` is no bound)."""
    return cap if budget is None else min(budget, cap)


def _sweep_pairs(union: Aig, roots: List[int]) -> List[Tuple[int, int]]:
    """Candidate pairs over the cone of ``roots``, in both polarities.

    The constant, PIs and ANDs of the cone are bucketed by simulation
    signature up to complement; each bucket pairs its first variable with
    every other member, each side in the polarity of the bucket's
    signature.
    """
    cone = {0}
    stack = [lit >> 1 for lit in roots]
    nodes = union.nodes
    while stack:
        var = stack.pop()
        if var in cone:
            continue
        cone.add(var)
        node = nodes[var]
        if node.kind == "and":
            stack.append(node.fanin0 >> 1)
            stack.append(node.fanin1 >> 1)
    sigs = node_words(union, SWEEP_SIM_WORDS, SWEEP_SEED)
    first: Dict[Tuple[int, ...], int] = {}
    pairs = []
    for var in sorted(cone):
        sig = sigs[var]
        phase = sig[0] & 1 if sig else 0
        if phase:
            sig = tuple(word ^ WORD_MASK for word in sig)
        lit = var_lit(var, bool(phase))
        rep = first.setdefault(sig, lit)
        if rep != lit:
            pairs.append((rep, lit))
    return pairs


def _counterexample(aig_a: Aig, aig: Aig, proof: PairProof, out_idx: int, conflicts: int) -> CecResult:
    """The ``counterexample`` result of a ``different`` proof on ``aig``,
    whose PIs stand for ``aig_a``'s in order."""
    cex = {
        aig_a.node(var).name or f"pi{i}": proof.assignment.get(aig.pis[i], False)
        for i, var in enumerate(aig_a.pis)
    }
    return CecResult(
        equivalent=False,
        status="counterexample",
        counterexample=cex,
        failing_output=out_idx,
        conflicts=conflicts,
    )
