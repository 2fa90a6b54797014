"""A CDCL SAT solver with two-watched-literal propagation.

Feature set: first-UIP clause learning, VSIDS-style activity with decay,
Luby-free geometric restarts, and an optional conflict budget so callers
(e.g. the choice computation) can bail out on hard instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.verify.cnf import Cnf


@dataclass
class SatResult:
    """Outcome of a SAT call."""

    status: str  # "sat", "unsat", or "unknown" (budget exhausted)
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0

    @property
    def is_sat(self) -> bool:
        """True when the formula is satisfiable (``model`` is set)."""
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        """True when the formula is proven unsatisfiable."""
        return self.status == "unsat"


class SatSolver:
    """CDCL solver over a fixed CNF."""

    def __init__(self, cnf: Cnf):
        self.num_vars = cnf.num_vars
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.assign: List[int] = [0] * (self.num_vars + 1)  # 0 unassigned, 1 true, -1 false
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

    # -- clause management ----------------------------------------------------

    def _add_clause(self, clause: List[int]) -> None:
        if not self.ok:
            return
        if any(-lit in clause for lit in clause):
            return  # tautology
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

    # -- assignment -----------------------------------------------------------

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
        """Unit propagation; returns a conflicting clause index or None."""
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
                # Ensure the false literal is in position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    new_list.append(ci)
                    continue
                # Look for a new literal to watch.
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
                    # Conflict: restore remaining watches and report.
                    new_list.extend(watch_list[i:])
                    self.watches[false_lit] = new_list
                    self._qhead = len(self.trail)
                    return ci
                self._enqueue(first, ci)
            self.watches[false_lit] = new_list
        self._qhead = head
        return None

    # -- conflict analysis ----------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[List[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        learnt: List[int] = [0]  # placeholder for the asserting literal
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
            # Find the next literal to resolve on.
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
        back_level = max(self.level[abs(q)] for q in learnt[1:])
        return learnt, back_level

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
        if best_var is None:
            return None
        return best_var  # default polarity: positive

    # -- main search ----------------------------------------------------------

    def solve(self, assumptions: Optional[List[int]] = None, conflict_budget: Optional[int] = None) -> SatResult:
        """Solve the formula, optionally under assumptions and a conflict budget."""
        if not self.ok:
            return SatResult(status="unsat")
        self._qhead = 0
        conflicts = 0
        decisions = 0
        restart_limit = 64

        if self._propagate() is not None:
            return SatResult(status="unsat")
        root_trail = len(self.trail)

        assumptions = list(assumptions or [])
        for lit in assumptions:
            if self._value(lit) == -1:
                self._backtrack_to_root(root_trail)
                return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
            if self._value(lit) == 0:
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                if self._propagate() is not None:
                    self._backtrack_to_root_full(root_trail)
                    return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
        assumption_levels = len(self.trail_lim)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if conflict_budget is not None and conflicts > conflict_budget:
                    self._backtrack_to_root_full(root_trail)
                    return SatResult(status="unknown", conflicts=conflicts, decisions=decisions)
                if len(self.trail_lim) <= assumption_levels:
                    self._backtrack_to_root_full(root_trail)
                    return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(max(back_level, assumption_levels))
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._backtrack_to_root_full(root_trail)
                        return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                else:
                    # Watch the asserting literal and the highest-level other
                    # literal, preserving the two-watched-literal invariant
                    # across future backtracking.
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
                    self._backtrack_to_root_full(root_trail)
                    return SatResult(status="sat", model=model, conflicts=conflicts, decisions=decisions)
                decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(var, None)

    def _backtrack_to_root_full(self, root_trail: int) -> None:
        self._backtrack(0)
        # Keep root-level assignments (units learned before assumptions).
        del root_trail

    def _backtrack_to_root(self, root_trail: int) -> None:
        self._backtrack(0)
        del root_trail


def solve_cnf(cnf: Cnf, assumptions: Optional[List[int]] = None, conflict_budget: Optional[int] = None) -> SatResult:
    """Convenience wrapper: build a solver and solve once."""
    return SatSolver(cnf).solve(assumptions=assumptions, conflict_budget=conflict_budget)
