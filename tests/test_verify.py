"""Tests of the CNF encoding, the CDCL SAT solver, and equivalence checking.

``OracleSatSolver`` below is the solver ``SatSolver`` replaced: the same CDCL
search over a dict of watch lists and a per-variable assignment, reached
through per-literal method calls.  ``SatSolver`` must follow its trajectory
exactly: equal status, conflicts, decisions and model, and equal clauses,
activities and ``var_inc`` afterwards.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig, aig_from_functions, lit_not, var_lit
from repro.benchgen import epfl
from repro.opt.balance import balance
from repro.opt.dch import MAX_CONE, candidate_pairs, compute_choices
from repro.opt.rewrite import rewrite
from repro.verify import cec as cec_mod
from repro.verify.cec import check_equivalence, prove_pair
from repro.verify.cnf import Cnf, encode_miter_output, tseitin_encode
from repro.verify.sat import SatResult, SatSolver, solve_cnf


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
    rng = random.Random(seed)
    cnf = Cnf()
    variables = [cnf.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        clause = []
        for var in rng.sample(variables, 3):
            clause.append(var if rng.random() < 0.5 else -var)
        cnf.add_clause(clause)
    return cnf


class TestSatInputChecks:
    def test_zero_literal_in_clause_raises(self):
        # -0 == 0, so a zero literal used to read as a tautology and drop its clause.
        with pytest.raises(ValueError, match="clause literal 0"):
            solve_cnf(Cnf(num_vars=1, clauses=[[1], [-1, 0]]))

    def test_literal_beyond_num_vars_raises(self):
        with pytest.raises(ValueError, match="clause literal -2"):
            SatSolver(Cnf(num_vars=1, clauses=[[-2]]))
        with pytest.raises(ValueError, match="clause literal 3"):
            SatSolver(Cnf(num_vars=2, clauses=[[1, 2], [2, 3, 1]]))

    def test_bad_assumption_raises(self):
        solver = SatSolver(Cnf(num_vars=2, clauses=[[1, 2]]))
        for lit in (5, -3, 0):
            with pytest.raises(ValueError, match=f"assumption literal {lit}"):
                solver.solve(assumptions=[1, lit])
        assert solver.solve(assumptions=[-1, 2]).is_sat

    def test_negative_budget_raises(self):
        with pytest.raises(ValueError, match="conflict_budget"):
            solve_cnf(Cnf(num_vars=1, clauses=[[1]]), conflict_budget=-1)
        assert solve_cnf(Cnf(num_vars=1, clauses=[[1]]), conflict_budget=0).is_sat

    def test_empty_formula(self):
        result = solve_cnf(Cnf(num_vars=0, clauses=[]))
        assert result.is_sat and result.model == {}
        assert solve_cnf(Cnf(num_vars=2, clauses=[[]])).is_unsat


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


# --------------------------------------------------------------------------
# Oracle: the solver ``SatSolver`` replaced.


class OracleSatSolver:
    def __init__(self, cnf: Cnf):
        self.num_vars = cnf.num_vars
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.assign: List[int] = [0] * (self.num_vars + 1)
        self.level: List[int] = [0] * (self.num_vars + 1)
        self.reason: List[Optional[int]] = [None] * (self.num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.activity: List[float] = [0.0] * (self.num_vars + 1)
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        for clause in cnf.clauses:
            self._add_clause(list(dict.fromkeys(clause)))

    def _add_clause(self, clause: List[int]) -> None:
        if not self.ok:
            return
        if any(-lit in clause for lit in clause):
            return
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.watches.setdefault(clause[0], []).append(idx)
        self.watches.setdefault(clause[1], []).append(idx)

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        if self._value(lit) == -1:
            return False
        if self._value(lit) == 1:
            return True
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        head = getattr(self, "_qhead", 0)
        while head < len(self.trail):
            lit = self.trail[head]
            head += 1
            false_lit = -lit
            watch_list = self.watches.get(false_lit, [])
            new_list = []
            i = 0
            while i < len(watch_list):
                ci = watch_list[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    new_list.append(ci)
                    continue
                found = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        found = True
                        break
                if found:
                    continue
                new_list.append(ci)
                if self._value(first) == -1:
                    new_list.extend(watch_list[i:])
                    self.watches[false_lit] = new_list
                    self._qhead = len(self.trail)
                    return ci
                self._enqueue(first, ci)
            self.watches[false_lit] = new_list
        self._qhead = head
        return None

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: int):
        learnt: List[int] = [0]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause_idx: Optional[int] = conflict
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        while True:
            clause = self.clauses[clause_idx] if clause_idx is not None else []
            for q in clause:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            clause_idx = self.reason[var]
            if counter == 0:
                break
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        return learnt, max(self.level[abs(q)] for q in learnt[1:])

    def _backtrack(self, level: int) -> None:
        while len(self.trail_lim) > level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                lit = self.trail.pop()
                var = abs(lit)
                self.assign[var] = 0
                self.reason[var] = None
        self._qhead = len(self.trail)

    def _decide(self) -> Optional[int]:
        best_var = None
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if self.assign[var] == 0 and self.activity[var] > best_act:
                best_var = var
                best_act = self.activity[var]
        return best_var

    def solve(self, assumptions=None, conflict_budget=None) -> SatResult:
        if not self.ok:
            return SatResult(status="unsat")
        self._qhead = 0
        conflicts = 0
        decisions = 0
        restart_limit = 64
        if self._propagate() is not None:
            return SatResult(status="unsat")
        for lit in list(assumptions or []):
            if self._value(lit) == -1:
                self._backtrack(0)
                return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
            if self._value(lit) == 0:
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                if self._propagate() is not None:
                    self._backtrack(0)
                    return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
        assumption_levels = len(self.trail_lim)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if conflict_budget is not None and conflicts > conflict_budget:
                    self._backtrack(0)
                    return SatResult(status="unknown", conflicts=conflicts, decisions=decisions)
                if len(self.trail_lim) <= assumption_levels:
                    self._backtrack(0)
                    return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(max(back_level, assumption_levels))
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._backtrack(0)
                        return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                else:
                    high = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
                    learnt[1], learnt[high] = learnt[high], learnt[1]
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches.setdefault(learnt[0], []).append(idx)
                    self.watches.setdefault(learnt[1], []).append(idx)
                    self._enqueue(learnt[0], idx)
                self.var_inc /= self.var_decay
                if conflicts % restart_limit == 0:
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(assumption_levels)
            else:
                var = self._decide()
                if var is None:
                    model = {v: self.assign[v] == 1 for v in range(1, self.num_vars + 1)}
                    self._backtrack(0)
                    return SatResult(status="sat", model=model, conflicts=conflicts, decisions=decisions)
                decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(var, None)


def _trajectory(result: SatResult):
    return result.status, result.conflicts, result.decisions, result.model


def _assert_same_run(cnf: Cnf, calls, var_inc: float = 1.0) -> List[SatResult]:
    """Run both solvers through ``calls`` (``solve`` keyword dicts) on one
    instance each; every result and the learnt state must agree."""
    solver, oracle = SatSolver(cnf), OracleSatSolver(cnf)
    solver.var_inc = oracle.var_inc = var_inc
    results = []
    for kwargs in calls:
        result = solver.solve(**kwargs)
        assert _trajectory(result) == _trajectory(oracle.solve(**kwargs))
        assert solver.clauses == oracle.clauses
        assert solver.activity == oracle.activity and solver.var_inc == oracle.var_inc
        results.append(result)
    return results


class TestSatOracle:
    def test_dch_cnfs_match_oracle(self, monkeypatch):
        # Every choice candidate pair's proof on the union (the per-pair
        # queries, before the sweep merged anything), replayed on both solvers.
        queries = []

        class Recording(SatSolver):
            def __init__(self, cnf):
                super().__init__(cnf)
                self.cnf = Cnf(cnf.num_vars, [list(clause) for clause in cnf.clauses])

            def solve(self, assumptions=None, conflict_budget=None):
                queries.append((self.cnf, conflict_budget))
                return super().solve(assumptions, conflict_budget)

        monkeypatch.setattr(cec_mod, "SatSolver", Recording)
        for name in ("adder", "sqrt", "multiplier", "mem_ctrl"):
            union = compute_choices(epfl.build(name, preset="test"), max_pairs=0).aig
            for rep, var in candidate_pairs(union, 400):
                prove_pair(union, var_lit(rep), var_lit(var), conflict_budget=300, max_cone=MAX_CONE)
        assert len(queries) > 200
        statuses = set()
        for cnf, budget in queries:
            for conflict_budget in {budget, 0, 5}:
                (result,) = _assert_same_run(cnf, [dict(conflict_budget=conflict_budget)])
                statuses.add(result.status)
        assert statuses == {"unsat", "unknown"}

    def test_random_3sat_crosses_restarts(self):
        crossed = 0
        for seed in range(24):
            num_vars = 20 + 40 * (seed % 4) // 3
            cnf = _random_3sat(num_vars=num_vars, num_clauses=int(4.26 * num_vars), seed=seed)
            (result,) = _assert_same_run(cnf, [{}])
            crossed += result.conflicts > 64
        assert crossed >= 3

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_budgets(self, budget):
        for seed in range(8):
            cnf = _random_3sat(num_vars=50, num_clauses=213, seed=seed)
            (result,) = _assert_same_run(cnf, [dict(conflict_budget=budget)])
            assert result.conflicts <= budget + 1

    def test_assumptions_units_duplicates_tautologies(self):
        rng = random.Random(3)
        for seed in range(40):
            cnf = _random_3sat(num_vars=30, num_clauses=110, seed=100 + seed)
            for clause in rng.sample(cnf.clauses, 10):
                clause.append(clause[0])  # a repeated literal
            for clause in rng.sample(cnf.clauses, 5):
                clause.append(-clause[1])  # a tautology
            for _ in range(rng.randint(0, 3)):
                cnf.clauses.append([rng.choice([-1, 1]) * rng.randint(1, 30)])
            cnf.clauses.append([4, 4])
            cnf.clauses.append([5, -6, 5])
            cnf.clauses.append([-7, 8, 8, -7, 9])
            assumptions = [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
            _assert_same_run(cnf, [dict(assumptions=assumptions)])
        empty = _random_3sat(num_vars=10, num_clauses=20, seed=1)
        empty.clauses.insert(5, [])
        assert _assert_same_run(empty, [{}])[0].is_unsat

    def test_two_solves_on_one_solver(self):
        for seed in range(12):
            cnf = _random_3sat(num_vars=40, num_clauses=170, seed=200 + seed)
            _assert_same_run(cnf, [dict(assumptions=[1, -2]), dict(conflict_budget=20), {}])

    def test_forced_rescale(self):
        rescaled = 0
        for seed in range(6):
            cnf = _random_3sat(num_vars=40, num_clauses=170, seed=300 + seed)
            (result,) = _assert_same_run(cnf, [{}], var_inc=1e99)
            rescaled += result.conflicts > 0
        assert rescaled
