"""The SAT pair prover, the SAT sweep and the CEC built on them, and ``Aig.append``.

The oracles below are the code the prover replaced.  The choice computation
used to strash each variant into the union with its own copy loop
(``append_variant_oracle``), copy each candidate pair's cone into a
standalone AIG (``cone_subaig_oracle``), Tseitin-encode that whole copy and
solve it (``sat_equivalent_oracle``), once per candidate pair.  The prover
must give the same verdict after the same number of conflicts on every such
query.  The choice computation now settles the same pairs with one sweep
that merges what it proves, so its classes must contain the oracle's, equal
them wherever the oracle settles every pair, and add only members that are
truly equivalent.
"""

from __future__ import annotations

import contextlib
import random
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig, lit_is_compl, lit_var, var_lit
from repro.aig.simulate import exhaustive_truth_tables, random_simulate, simulate
from repro.benchgen import epfl
from repro.opt import dch
from repro.opt.balance import balance
from repro.opt.dch import MAX_CONE, SEED, SIM_WORDS, VARIANT_SYNTHESIZERS, compute_choices
from repro.obs.trace import tracing
from repro.opt.rewrite import rewrite
from repro.verify import cec as cec_mod
from repro.verify.cec import check_equivalence, prove_pair
from repro.verify.cnf import Cnf, encode_miter_output
from repro.verify.sat import SatSolver
from repro.verify.sweep import sweep

TEST_CIRCUITS = epfl.available_circuits()


# --------------------------------------------------------------------------
# Oracles: the replaced per-pair sub-AIG proof and variant copy loop.


def append_variant_oracle(union: Aig, variant: Aig) -> Dict[int, int]:
    """Strash a variant (same PIs) into the union AIG; returns var map old->new lit."""
    old2new = {0: 0}
    for var_u, var_v in zip(union.pis, variant.pis):
        old2new[var_v] = var_u << 1
    for node in variant.and_nodes():
        f0 = old2new[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
        f1 = old2new[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
        old2new[node.var] = union.add_and(f0, f1)
    return old2new


def cone_subaig_oracle(
    aig: Aig, roots: Sequence[int], max_nodes: int
) -> Optional[Tuple[Aig, Dict[int, int]]]:
    """Extract the cone of ``roots`` as a standalone AIG (PIs become new PIs)."""
    needed: List[int] = []
    seen = set()
    stack = list(roots)
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        node = aig.node(var)
        if node.is_and:
            needed.append(var)
            stack.append(lit_var(node.fanin0))
            stack.append(lit_var(node.fanin1))
        if len(needed) > max_nodes:
            return None
    sub = Aig(name="cone")
    old2new: Dict[int, int] = {0: 0}
    for var in sorted(seen):
        node = aig.node(var)
        if node.is_pi:
            old2new[var] = sub.add_pi(node.name)
    for var in sorted(needed):
        node = aig.node(var)
        f0 = old2new[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
        f1 = old2new[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
        old2new[var] = sub.add_and(f0, f1)
    return sub, old2new


def tseitin_whole_oracle(aig: Aig) -> Tuple[Cnf, Dict[int, int]]:
    """Tseitin-encode every node of ``aig``: constant, PIs, then ANDs."""
    cnf = Cnf()
    var_map = {0: cnf.new_var()}
    cnf.add_clause([-var_map[0]])
    for var in aig.pis:
        var_map[var] = cnf.new_var()

    def cnf_lit(aig_lit: int) -> int:
        v = var_map[lit_var(aig_lit)]
        return -v if lit_is_compl(aig_lit) else v

    for node in aig.and_nodes():
        out = cnf.new_var()
        var_map[node.var] = out
        a, b = cnf_lit(node.fanin0), cnf_lit(node.fanin1)
        cnf.add_clause([-out, a])
        cnf.add_clause([-out, b])
        cnf.add_clause([out, -a, -b])
    return cnf, var_map


def sat_equivalent_oracle(aig: Aig, var_a: int, var_b: int, max_cone: int, conflict_budget: int):
    """Budgeted SAT proof that two same-polarity variables are equivalent.

    Returns ``(verdict, conflicts)``.
    """
    cone = cone_subaig_oracle(aig, [var_a, var_b], max_cone)
    if cone is None:
        return "unknown", 0
    sub, old2new = cone
    cnf, var_map = tseitin_whole_oracle(sub)

    def cnf_lit(old_var: int) -> int:
        lit = old2new[old_var]
        v = var_map[lit_var(lit)]
        return -v if lit_is_compl(lit) else v

    x = encode_miter_output(cnf, cnf_lit(var_a), cnf_lit(var_b))
    cnf.add_clause([x])
    result = SatSolver(cnf).solve(conflict_budget=conflict_budget)
    verdict = {"unsat": "equivalent", "sat": "different"}.get(result.status, "unknown")
    return verdict, result.conflicts


def oracle_union(aig: Aig) -> Aig:
    union = aig.clone()
    for synthesize in VARIANT_SYNTHESIZERS:
        append_variant_oracle(union, synthesize(aig))
    return union


def simulation_signatures_oracle(aig: Aig, num_words: int, seed: int) -> Dict[int, Tuple[int, ...]]:
    """Per-variable simulation signatures, as the choice computation first built them."""
    rng = random.Random(seed)
    sigs: Dict[int, List[int]] = {var: [] for var in range(aig.num_nodes)}
    mask = (1 << 64) - 1
    for _ in range(num_words):
        values = [0] * aig.num_nodes
        for var in aig.pis:
            values[var] = rng.getrandbits(64)
        for node in aig.and_nodes():
            v0 = values[lit_var(node.fanin0)]
            if lit_is_compl(node.fanin0):
                v0 ^= mask
            v1 = values[lit_var(node.fanin1)]
            if lit_is_compl(node.fanin1):
                v1 ^= mask
            values[node.var] = v0 & v1
        for var in range(aig.num_nodes):
            sigs[var].append(values[var])
    return {var: tuple(words) for var, words in sigs.items()}


def candidate_pairs_oracle(union: Aig, max_pairs: int) -> List[Tuple[int, int]]:
    """The (representative, member) queries the per-pair choice computation made, in order."""
    sigs = simulation_signatures_oracle(union, num_words=SIM_WORDS, seed=SEED)
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for node in union.and_nodes():
        buckets.setdefault(sigs[node.var], []).append(node.var)
    pairs = [
        (min(members), var)
        for members in buckets.values()
        if len(members) > 1
        for var in members
        if var != min(members)
    ]
    return pairs[:max_pairs]


def _shape(aig: Aig):
    return [(node.kind, node.fanin0, node.fanin1) for node in aig.nodes], list(aig.pos)


# --------------------------------------------------------------------------
# Exact parity with the oracles.


class TestOracleParity:
    @pytest.mark.parametrize("name", TEST_CIRCUITS)
    def test_sweep_classes_contain_oracle_classes(self, name, monkeypatch):
        aig = epfl.build(name, preset="test")
        union = oracle_union(aig)
        pairs = candidate_pairs_oracle(union, max_pairs=2000)
        assert dch.candidate_pairs(union, 2000) == pairs
        expected = {
            budget: [sat_equivalent_oracle(union, rep, var, MAX_CONE, budget) for rep, var in pairs]
            for budget in (300, 5, 0)
        }
        for budget in (300, 5, 0):
            got = [
                (proof.status, proof.conflicts)
                for proof in (
                    prove_pair(union, var_lit(rep), var_lit(var), conflict_budget=budget, max_cone=MAX_CONE)
                    for rep, var in pairs
                )
            ]
            assert got == expected[budget]
        # compute_choices sweeps exactly those pairs, in bucket order.
        swept = []

        def recording_sweep(aig_, pairs_, **kwargs):
            swept.append(list(pairs_))
            return sweep(aig_, pairs_, **kwargs)

        monkeypatch.setattr(dch, "sweep", recording_sweep)
        choice = compute_choices(aig, conflict_budget=300)
        assert _shape(choice.aig) == _shape(union)
        assert swept == [[(var_lit(rep), var_lit(var)) for rep, var in pairs]]
        assert choice.pairs_tried == len(pairs)
        extra = _assert_contains_oracle_classes(choice, pairs, expected[300])
        # The sweep proves every pair the per-pair prover left unknown here.
        assert len(extra) == {"hyp": 16, "log2": 13, "sin": 17}.get(name, 0)
        if extra:
            tables = _var_tables(union)
            for rep, var in extra:
                assert tables[rep] == tables[var], (rep, var)
        assert choice.pairs_proved == sum(verdict == "equivalent" for verdict, _ in expected[300]) + len(extra)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", TEST_CIRCUITS)
    def test_bench_preset_classes_contain_oracle_classes(self, name):
        aig = epfl.build(name, preset="bench")
        union = oracle_union(aig)
        pairs = candidate_pairs_oracle(union, max_pairs=2000)
        verdicts = [sat_equivalent_oracle(union, rep, var, MAX_CONE, 500) for rep, var in pairs]
        choice = compute_choices(aig)
        assert _shape(choice.aig) == _shape(union)
        extra = _assert_contains_oracle_classes(choice, pairs, verdicts)
        # Each extra member is truly equivalent: exhaustive truth tables
        # where the inputs allow, the oracle prover without a cone cap else.
        tables = _var_tables(union) if union.num_pis <= 16 else None
        for rep, var in extra:
            if tables is not None:
                assert tables[rep] == tables[var], (rep, var)
            else:
                assert sat_equivalent_oracle(union, rep, var, union.num_nodes, 100_000)[0] == "equivalent"


def _assert_contains_oracle_classes(choice, pairs, verdicts) -> List[Tuple[int, int]]:
    """``choice.classes`` contain the classes the oracle's verdicts give, equal
    them when the oracle settles every pair, and keep out every pair the
    oracle refutes.  Returns the members the oracle did not prove."""
    classes = choice.classes
    assert classes.repr_of == {var: rep for rep, group in classes.members.items() for var in group}
    extra = []
    for (rep, var), (verdict, _) in zip(pairs, verdicts):
        proved = classes.repr_of.get(var) == rep
        if verdict == "equivalent":
            assert proved, (rep, var)
        elif proved:
            assert verdict == "unknown", (rep, var, verdict)
            extra.append((rep, var))
    members: Dict[int, List[int]] = {}
    for rep, var in pairs:
        if classes.repr_of.get(var) == rep:
            members.setdefault(rep, [rep]).append(var)
    assert classes.members == members
    if all(verdict != "unknown" for verdict, _ in verdicts):
        assert not extra
    return extra


# --------------------------------------------------------------------------
# Properties of the prover on random AIGs.


@st.composite
def aig_and_pair(draw):
    """A random AIG over at most 8 PIs and two of its literals (constants,
    PIs and complemented literals included)."""
    aig = Aig()
    lits = [0] + [aig.add_pi() for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 24))):
        a = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
        b = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
        lits.append(aig.add_and(a, b))
    lit_a = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
    lit_b = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
    return aig, lit_a, lit_b


def _probe(aig: Aig, lits: Sequence[int]) -> Aig:
    probe = aig.clone()
    probe.pos = []
    for lit in lits:
        probe.add_po(lit)
    return probe


class TestProverProperties:
    @given(aig_and_pair())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_verdict_matches_truth_tables(self, case):
        aig, lit_a, lit_b = case
        probe = _probe(aig, [lit_a, lit_b])
        table_a, table_b = exhaustive_truth_tables(probe)
        trivial = lit_a >> 1 == lit_b >> 1
        solver_guard = mock.patch.object(cec_mod, "SatSolver", side_effect=AssertionError)
        with solver_guard if trivial else contextlib.nullcontext():
            proof = prove_pair(aig, lit_a, lit_b)
        assert proof.status == ("equivalent" if table_a == table_b else "different")
        if proof.status == "different":
            pattern = [int(proof.assignment.get(var, False)) for var in aig.pis]
            out_a, out_b = simulate(probe, pattern, width=1)
            assert out_a != out_b

    def test_cone_cap_gives_unknown_without_solver(self):
        aig = epfl.build("adder", preset="test")
        lit_a, lit_b = aig.po_lits()[-2:]
        with mock.patch.object(cec_mod, "SatSolver", side_effect=AssertionError):
            assert prove_pair(aig, lit_a, lit_b, max_cone=1).status == "unknown"


# --------------------------------------------------------------------------
# Properties of the sweep on random AIGs.


@st.composite
def aig_and_pairs(draw):
    """A random AIG over at most 5 PIs and candidate pairs over its literals;
    about half the pairs are drawn among variables of one function up to
    complement, so many of them are equivalent."""
    aig = Aig()
    lits = [0] + [aig.add_pi() for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 40))):
        a = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
        b = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
        lits.append(aig.add_and(a, b))
    tables = _var_tables(aig)
    mask = (1 << (1 << aig.num_pis)) - 1
    groups: Dict[int, List[int]] = {}
    for var, table in enumerate(tables):
        groups.setdefault(min(table, table ^ mask), []).append(var)
    pairs = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.booleans()):
            group = draw(st.sampled_from(list(groups.values())))
            var_a, var_b = draw(st.sampled_from(group)), draw(st.sampled_from(group))
        else:
            var_a = draw(st.integers(0, aig.num_nodes - 1))
            var_b = draw(st.integers(0, aig.num_nodes - 1))
        pairs.append((var_lit(var_a, draw(st.booleans())), var_lit(var_b, draw(st.booleans()))))
    return aig, pairs


def _var_tables(aig: Aig, lits: Optional[Sequence[int]] = None) -> List[int]:
    """Exhaustive truth tables of ``lits`` (every variable by default)."""
    if lits is None:
        lits = [var_lit(var) for var in range(aig.num_nodes)]
    return exhaustive_truth_tables(_probe(aig, lits))


class TestSweepProperties:
    @given(aig_and_pairs(), st.sampled_from([None, 0, 2]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_verdicts_match_truth_tables(self, case, budget):
        aig, pairs = case
        result = sweep(aig, pairs, conflict_budget=budget)
        assert len(result.proofs) == len(pairs)
        assert result.structural + result.simulated + result.sat_calls == len(pairs)
        tables = _var_tables(aig)
        mask = (1 << (1 << aig.num_pis)) - 1
        for (lit_a, lit_b), proof in zip(pairs, result.proofs):
            table_a = tables[lit_a >> 1] ^ (mask if lit_a & 1 else 0)
            table_b = tables[lit_b >> 1] ^ (mask if lit_b & 1 else 0)
            truth = "equivalent" if table_a == table_b else "different"
            assert proof.status in ((truth,) if budget is None else (truth, "unknown"))
            if proof.status == "different":
                pattern = [int(proof.assignment.get(var, False)) for var in aig.pis]
                value_a, value_b = simulate(_probe(aig, [lit_a, lit_b]), pattern, width=1)
                assert value_a != value_b
        # Merging only proven pairs keeps every node's function.
        assert _var_tables(result.reduced, result.lits) == tables

    def test_counterexample_refines_later_pairs_without_solver(self):
        # x0 & x1 and x0 | x1 differ on x0 != x1; so do their complements,
        # which the stored counterexample separates without a second query.
        aig = Aig()
        x0, x1 = aig.add_pi(), aig.add_pi()
        conj, disj = aig.add_and(x0, x1), aig.add_or(x0, x1)
        result = sweep(aig, [(conj, disj), (conj ^ 1, disj ^ 1)])
        assert [proof.status for proof in result.proofs] == ["different", "different"]
        assert (result.sat_calls, result.simulated) == (1, 1)
        assert result.proofs[1].assignment == result.proofs[0].assignment


# --------------------------------------------------------------------------
# CEC on the strashed union.


def _flip_fanin(aig: Aig, target: int) -> Aig:
    """A copy of ``aig`` with the first fanin of AND node ``target`` complemented."""
    mutant = Aig(name=f"{aig.name}_mutant")
    old2new = {0: 0}
    for var in aig.pis:
        old2new[var] = mutant.add_pi(aig.node(var).name)
    for node in aig.and_nodes():
        f0 = node.fanin0 ^ int(node.var == target)
        f1 = node.fanin1
        old2new[node.var] = mutant.add_and(old2new[f0 >> 1] ^ (f0 & 1), old2new[f1 >> 1] ^ (f1 & 1))
    for lit, name in aig.pos:
        mutant.add_po(old2new[lit >> 1] ^ (lit & 1), name)
    return mutant


class TestCecUnion:
    @pytest.mark.parametrize("name", TEST_CIRCUITS)
    def test_mutant_counterexample_differs_at_failing_output(self, name):
        aig = epfl.build(name, preset="test")
        rng = random.Random(name)
        ands = [node.var for node in aig.and_nodes()]
        found = 0
        for target in rng.sample(ands, 3):
            # sim_words=0: every counterexample comes from the SAT prover.
            result = check_equivalence(aig, _flip_fanin(aig, target), sim_words=0)
            assert result.status in ("equivalent", "counterexample")
            if result.status == "equivalent":
                continue
            found += 1
            pattern = [int(result.counterexample[aig.node(var).name]) for var in aig.pis]
            out_a = simulate(aig, pattern, width=1)
            out_b = simulate(_flip_fanin(aig, target), pattern, width=1)
            assert out_a[result.failing_output] != out_b[result.failing_output]
        assert found > 0

    @pytest.mark.parametrize(
        "name, preset",
        [(name, "test") for name in TEST_CIRCUITS] + [("hyp", "bench"), ("multiplier", "bench")],
    )
    def test_self_cec_needs_no_conflicts(self, name, preset):
        aig = epfl.build(name, preset=preset)
        with tracing() as tracer:
            result = check_equivalence(aig, aig.clone())
        assert result.status == "equivalent"
        assert result.conflicts == 0
        (span,) = [r for r in tracer.records if r.name == "check equivalence"]
        assert span.category == "verify"
        assert span.args == {
            "outputs": aig.num_pos,
            "structural": aig.num_pos,
            "sat_calls": 0,
            "sweep_pairs": 0,
            "sweep_proved": 0,
            "conflicts": 0,
            "status": "equivalent",
        }

    @pytest.mark.parametrize("name", ["multiplier", "div", "hyp"])
    def test_hard_check_ends_equivalent(self, name):
        # Each output pair needs more than the direct step's budget; the
        # per-output prover ended all three `unknown` at this budget.
        aig = epfl.build(name, preset="bench")
        with tracing() as tracer:
            result = check_equivalence(aig, balance(aig), conflict_budget=2000)
        assert result.status == "equivalent"
        (span,) = [r for r in tracer.records if r.name == "check equivalence"]
        assert span.args["sweep_proved"] > 0

    @pytest.mark.parametrize("name", ["multiplier", "sqrt", "square"])
    def test_counterexample_from_the_reduced_aig(self, name, monkeypatch):
        # With the direct step's cone cap at 0 every output goes through the
        # sweep, so each counterexample comes from the sweep's reduced AIG.
        monkeypatch.setattr(cec_mod, "DIRECT_MAX_CONE", 0)
        aig = epfl.build(name, preset="test")
        reference = balance(aig)
        rng = random.Random(name)
        ands = [node.var for node in reference.and_nodes()]
        found = 0
        for target in rng.sample(ands, 4):
            mutant = _flip_fanin(reference, target)
            result = check_equivalence(aig, mutant, sim_words=0)
            assert result.status in ("equivalent", "counterexample")
            if result.status == "equivalent":
                assert random_simulate(aig, 4, seed=5) == random_simulate(mutant, 4, seed=5)
                continue
            found += 1
            pattern = [int(result.counterexample[aig.node(var).name]) for var in aig.pis]
            out_a = simulate(aig, pattern, width=1)
            out_b = simulate(mutant, pattern, width=1)
            assert out_a[result.failing_output] != out_b[result.failing_output]
        assert found > 0

    @pytest.mark.parametrize("name", ["hyp", "multiplier"])
    def test_bench_mutant_counterexample_differs_at_failing_output(self, name):
        aig = epfl.build(name, preset="bench")
        rng = random.Random(name)
        ands = [node.var for node in aig.and_nodes()]
        checked = 0
        while checked < 2:
            mutant = _flip_fanin(aig, rng.choice(ands))
            if random_simulate(aig, 4, seed=5) == random_simulate(mutant, 4, seed=5):
                continue  # possibly an unobservable flip
            checked += 1
            # sim_words=0: the counterexample comes from the SAT prover.
            result = check_equivalence(aig, mutant, sim_words=0, conflict_budget=2000)
            assert result.status == "counterexample"
            pattern = [int(result.counterexample[aig.node(var).name]) for var in aig.pis]
            out_a = simulate(aig, pattern, width=1)
            out_b = simulate(mutant, pattern, width=1)
            assert out_a[result.failing_output] != out_b[result.failing_output]


class TestAppend:
    def test_append_onto_own_pis_adds_no_and_node(self, small_sqrt):
        aig = small_sqrt.clone()
        before = aig.num_nodes
        outputs = aig.append(aig, [var_lit(var) for var in aig.pis])
        assert aig.num_nodes == before
        assert outputs == aig.po_lits()

    def test_append_matches_variant_copy_loop(self, small_sqrt):
        variant = rewrite(small_sqrt)
        expected, got = small_sqrt.clone(), small_sqrt.clone()
        old2new = append_variant_oracle(expected, variant)
        outputs = got.append(variant, [var_lit(var) for var in got.pis])
        assert _shape(got) == _shape(expected)
        assert outputs == [old2new[lit >> 1] ^ (lit & 1) for lit in variant.po_lits()]

    def test_append_rejects_wrong_input_count(self, small_sqrt):
        with pytest.raises(ValueError, match="input literals"):
            Aig().append(small_sqrt, [])
