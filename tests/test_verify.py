"""Tests of the CNF encoding, the CDCL SAT solver, and equivalence checking."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig, aig_from_functions, lit_not
from repro.benchgen import epfl
from repro.opt.balance import balance
from repro.opt.rewrite import rewrite
from repro.verify.cec import check_equivalence, prove_pair
from repro.verify.cnf import Cnf, encode_miter_output, tseitin_encode
from repro.verify.sat import SatSolver, solve_cnf


class TestCnf:
    def test_new_var_and_add_clause(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, -b])
        assert cnf.num_vars == 2
        assert cnf.clauses == [[1, -2]]

    def test_bad_clause_rejected(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add_clause([2])
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_dimacs_output(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        text = cnf.to_dimacs()
        assert text.startswith("p cnf 2 1")
        assert "1 2 0" in text

    def test_tseitin_and_semantics(self):
        aig = aig_from_functions(2, lambda a, pis: a.add_and(pis[0], pis[1]))
        cnf, var_map, outs = tseitin_encode(aig, aig.po_lits())
        # Force output true: only satisfiable with both inputs true.
        cnf.add_clause([outs[0]])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.model[var_map[aig.pis[0]]] and result.model[var_map[aig.pis[1]]]


class TestSatSolver:
    def test_trivial_sat(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.model[a] is True

    def test_trivial_unsat(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        cnf.add_clause([-a])
        assert solve_cnf(cnf).is_unsat

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole.
        cnf = Cnf()
        p = [cnf.new_var() for _ in range(2)]
        cnf.add_clause([p[0]])
        cnf.add_clause([p[1]])
        cnf.add_clause([-p[0], -p[1]])
        assert solve_cnf(cnf).is_unsat

    def test_assumptions(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        assert solve_cnf(cnf, assumptions=[-a]).is_sat
        cnf.add_clause([-b])
        assert solve_cnf(cnf, assumptions=[-a]).is_unsat

    def test_conflict_budget_returns_unknown_or_answer(self):
        cnf = _random_3sat(num_vars=30, num_clauses=128, seed=5)
        result = SatSolver(cnf).solve(conflict_budget=1)
        assert result.status in ("sat", "unsat", "unknown")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_3sat_models_are_valid(self, seed):
        cnf = _random_3sat(num_vars=12, num_clauses=40, seed=seed)
        result = solve_cnf(cnf)
        if result.is_sat:
            for clause in cnf.clauses:
                assert any(
                    (lit > 0) == result.model[abs(lit)] for lit in clause
                ), f"clause {clause} falsified"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_bruteforce(self, seed):
        cnf = _random_3sat(num_vars=8, num_clauses=30, seed=seed)
        expected = _bruteforce_sat(cnf)
        assert solve_cnf(cnf).is_sat == expected

    def test_encode_miter_output_xor_semantics(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        x = encode_miter_output(cnf, a, b)
        cnf.add_clause([x])
        cnf.add_clause([a])
        cnf.add_clause([b])
        assert solve_cnf(cnf).is_unsat  # a=b=1 -> xor=0, contradiction


def _random_3sat(num_vars: int, num_clauses: int, seed: int) -> Cnf:
    import random

    rng = random.Random(seed)
    cnf = Cnf()
    variables = [cnf.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        clause = []
        for var in rng.sample(variables, 3):
            clause.append(var if rng.random() < 0.5 else -var)
        cnf.add_clause(clause)
    return cnf


def _bruteforce_sat(cnf: Cnf) -> bool:
    for assignment in range(1 << cnf.num_vars):
        ok = True
        for clause in cnf.clauses:
            if not any(((assignment >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


class TestCec:
    def test_identical_circuits_equivalent(self, small_sqrt):
        result = check_equivalence(small_sqrt, small_sqrt.clone())
        assert result.equivalent
        assert result.status == "equivalent"
        assert bool(result)

    def test_optimized_circuit_equivalent(self, small_sqrt):
        optimized = rewrite(balance(small_sqrt))
        assert check_equivalence(small_sqrt, optimized).equivalent

    def test_detects_single_gate_difference(self):
        a = aig_from_functions(3, lambda g, p: g.add_and(g.add_and(p[0], p[1]), p[2]))
        b = aig_from_functions(3, lambda g, p: g.add_and(g.add_or(p[0], p[1]), p[2]))
        result = check_equivalence(a, b)
        assert not result.equivalent
        assert result.status == "counterexample"

    def test_detects_output_inversion(self):
        a = aig_from_functions(2, lambda g, p: g.add_and(p[0], p[1]))
        b = aig_from_functions(2, lambda g, p: lit_not(g.add_and(p[0], p[1])))
        assert not check_equivalence(a, b).equivalent

    def test_mismatched_interfaces_not_equivalent(self):
        a = aig_from_functions(2, lambda g, p: g.add_and(p[0], p[1]))
        b = aig_from_functions(3, lambda g, p: g.add_and(p[0], p[1]))
        assert not check_equivalence(a, b).equivalent

    def test_counterexample_when_simulation_misses(self):
        # Functions differing in exactly one minterm: random simulation with
        # few words may miss it, the SAT stage must still find it.
        n = 6

        def almost_and(g, p):
            # AND of all inputs, except output forced low for one extra minterm.
            all_and = g.add_and_multi(p)
            skip = g.add_and_multi([lit_not(p[0])] + p[1:])
            return g.add_or(all_and, skip)

        a = aig_from_functions(n, lambda g, p: g.add_and_multi(p))
        b = aig_from_functions(n, almost_and)
        result = check_equivalence(a, b, sim_words=1)
        assert not result.equivalent
        if result.counterexample:
            assert set(result.counterexample) == {f"pi{i}" for i in range(n)}

    def test_prove_equivalent_vars(self):
        aig = Aig()
        x, y = aig.add_pi("x"), aig.add_pi("y")
        f = aig.add_and(x, y)
        g = aig.add_and(y, x)  # strashed to the same node
        h = aig.add_and(x, lit_not(y))
        aig.add_po(f)
        aig.add_po(h)
        assert prove_pair(aig, f, g).status == "equivalent"
        assert prove_pair(aig, f, h).status == "different"
