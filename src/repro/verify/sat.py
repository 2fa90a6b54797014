"""A CDCL SAT solver with two-watched-literal propagation.

Feature set: first-UIP clause learning, VSIDS-style activity with decay,
Luby-free geometric restarts, and an optional conflict budget so callers
(e.g. the choice computation) can bail out on hard instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import not_
from typing import Dict, List, Optional, Tuple

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
    """CDCL solver over a fixed CNF.

    Assignment values and watch lists are indexed by literal: ``val[lit]``
    is 1 (true), -1 (false) or 0 (unassigned), and a negative literal
    indexes from the end of the list, so ``val[-lit] == -val[lit]`` always.
    ``level``, ``reason`` and ``activity`` are indexed by variable.  A
    literal outside ``±1..num_vars`` raises ``ValueError``: a negative
    index would otherwise alias another literal silently.
    """

    def __init__(self, cnf: Cnf):
        n = self.num_vars = cnf.num_vars
        _check_literals(list(chain.from_iterable(cnf.clauses)), n, "clause")
        self.clauses: List[List[int]] = []
        self.watches: List[List[int]] = [[] for _ in range(2 * n + 1)]
        self.val: List[int] = [0] * (2 * n + 1)
        self.level: List[int] = [0] * (n + 1)
        self.reason: List[Optional[int]] = [None] * (n + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.activity: List[float] = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        self._qhead = 0
        clauses, watches, val, trail = self.clauses, self.watches, self.val, self.trail
        for clause in cnf.clauses:
            # Drop repeated literals (first occurrence kept) and tautologies;
            # 2- and 3-literal clauses by comparison, longer ones generically.
            size = len(clause)
            if size == 2:
                a, b = clause
                if a == -b:
                    continue
                if a != b:
                    watches[a].append(len(clauses))
                    watches[b].append(len(clauses))
                    clauses.append([a, b])
                    continue
                lits = [a]
            elif size == 3:
                a, b, c = clause
                if a == -b or a == -c or b == -c:
                    continue
                if a != b and a != c and b != c:
                    watches[a].append(len(clauses))
                    watches[b].append(len(clauses))
                    clauses.append([a, b, c])
                    continue
                lits = [a] if a == b == c else [a, c] if a == b else [a, b]
            else:
                lits = list(dict.fromkeys(clause))
                if any(-lit in lits for lit in lits):
                    continue
                if not lits:
                    self.ok = False
                    break
            if len(lits) == 1:
                lit = lits[0]
                if val[lit] == -1:
                    self.ok = False
                    break
                if val[lit] == 0:
                    val[lit], val[-lit] = 1, -1
                    trail.append(lit)
                continue
            watches[lits[0]].append(len(clauses))
            watches[lits[1]].append(len(clauses))
            clauses.append(lits)

    # -- assignment -----------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        val = self.val
        if val[lit] == -1:
            return False
        if val[lit] == 1:
            return True
        val[lit], val[-lit] = 1, -1
        var = lit if lit > 0 else -lit
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.

        Each clause watches its first two literals.  Visiting the watchers of
        a false literal keeps their order: a kept watcher stays, a moved one
        is appended to its new literal's list, and after a conflict the
        unvisited watchers are kept and the queue jumps to the trail's end.
        """
        trail, val, watches, clauses = self.trail, self.val, self.watches, self.clauses
        level, reason = self.level, self.reason
        depth = len(self.trail_lim)
        head = self._qhead
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watchers = watches[false_lit]
            kept: List[int] = []
            moved = 0
            for ci in watchers:
                clause = clauses[ci]
                # Ensure the false literal is in position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if val[first] == 1:
                    kept.append(ci)
                    continue
                # Look for a new literal to watch.
                j = 2
                size = len(clause)
                while j < size:
                    lit = clause[j]
                    if val[lit] != -1:
                        clause[1], clause[j] = lit, clause[1]
                        watches[lit].append(ci)
                        moved += 1
                        break
                    j += 1
                else:
                    kept.append(ci)
                    if val[first] == -1:
                        kept.extend(watchers[len(kept) + moved :])
                        watches[false_lit] = kept
                        self._qhead = len(trail)
                        return ci
                    val[first], val[-first] = 1, -1
                    var = first if first > 0 else -first
                    level[var] = depth
                    reason[var] = ci
                    trail.append(first)
            watches[false_lit] = kept
        self._qhead = head
        return None

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level).

        Every variable seen at a non-zero level gets its activity bumped by
        ``var_inc``; above 1e100 all activities and ``var_inc`` are scaled
        by 1e-100.
        """
        clauses, level, reason, trail = self.clauses, self.level, self.reason, self.trail
        activity = self.activity
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        var_inc = self.var_inc
        counter = 0
        lit = 0
        clause_idx: Optional[int] = conflict
        index = len(trail) - 1
        current_level = len(self.trail_lim)

        while True:
            for q in clauses[clause_idx] if clause_idx is not None else ():
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    activity[var] += var_inc
                    if activity[var] > 1e100:
                        for v in range(1, self.num_vars + 1):
                            activity[v] *= 1e-100
                        var_inc = self.var_inc = var_inc * 1e-100
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find the next literal to resolve on.
            while not seen[abs(trail[index])]:
                index -= 1
            lit = trail[index]
            var = lit if lit > 0 else -lit
            seen[var] = False
            counter -= 1
            index -= 1
            clause_idx = reason[var]
            if counter == 0:
                break
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        back_level = max(level[abs(q)] for q in learnt[1:])
        return learnt, back_level

    def _backtrack(self, level: int) -> None:
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) > level:
            val, reason = self.val, self.reason
            limit = trail_lim[level]
            for lit in trail[limit:]:
                val[lit] = val[-lit] = 0
                reason[lit if lit > 0 else -lit] = None
            del trail[limit:], trail_lim[level:]
        self._qhead = len(trail)

    def _decide(self) -> Optional[int]:
        """The unassigned variable of highest activity (the lowest on ties)."""
        n = self.num_vars
        free = compress(range(1, n + 1), map(not_, self.val[1 : n + 1]))
        return max(free, key=self.activity.__getitem__, default=None)

    # -- main search ----------------------------------------------------------

    def solve(self, assumptions: Optional[List[int]] = None, conflict_budget: Optional[int] = None) -> SatResult:
        """Solve the formula, optionally under assumptions and a conflict budget.

        Raises ``ValueError`` for a negative ``conflict_budget`` or an
        assumption outside ``±1..num_vars``.
        """
        if conflict_budget is not None and conflict_budget < 0:
            raise ValueError(f"conflict_budget must be >= 0, got {conflict_budget}")
        assumptions = list(assumptions or [])
        _check_literals(assumptions, self.num_vars, "assumption")
        if not self.ok:
            return SatResult(status="unsat")
        val, level, trail_lim = self.val, self.level, self.trail_lim
        self._qhead = 0
        conflicts = 0
        decisions = 0
        restart_limit = 64

        if self._propagate() is not None:
            return SatResult(status="unsat")

        for lit in assumptions:
            if val[lit] == -1:
                self._backtrack(0)
                return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
            if val[lit] == 0:
                trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                if self._propagate() is not None:
                    self._backtrack(0)
                    return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
        assumption_levels = len(trail_lim)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if conflict_budget is not None and conflicts > conflict_budget:
                    self._backtrack(0)
                    return SatResult(status="unknown", conflicts=conflicts, decisions=decisions)
                if len(trail_lim) <= assumption_levels:
                    self._backtrack(0)
                    return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(max(back_level, assumption_levels))
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._backtrack(0)
                        return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                else:
                    # Watch the asserting literal and the highest-level other
                    # literal, preserving the two-watched-literal invariant
                    # across future backtracking.
                    high = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
                    learnt[1], learnt[high] = learnt[high], learnt[1]
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(idx)
                    self.watches[learnt[1]].append(idx)
                    self._enqueue(learnt[0], idx)
                self.var_inc /= self.var_decay
                if conflicts % restart_limit == 0:
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(assumption_levels)
            else:
                var = self._decide()
                if var is None:
                    model = {v: val[v] == 1 for v in range(1, self.num_vars + 1)}
                    self._backtrack(0)
                    return SatResult(status="sat", model=model, conflicts=conflicts, decisions=decisions)
                decisions += 1
                trail_lim.append(len(self.trail))
                self._enqueue(var, None)


def _check_literals(literals: List[int], num_vars: int, role: str) -> None:
    """Raise ``ValueError`` naming the first literal that is 0 or beyond ``num_vars``."""
    if literals and (min(literals) < -num_vars or max(literals) > num_vars or 0 in literals):
        bad = next(lit for lit in literals if lit == 0 or not -num_vars <= lit <= num_vars)
        raise ValueError(f"{role} literal {bad} is outside ±1..{num_vars}")


def solve_cnf(cnf: Cnf, assumptions: Optional[List[int]] = None, conflict_budget: Optional[int] = None) -> SatResult:
    """Convenience wrapper: build a solver and solve once."""
    return SatSolver(cnf).solve(assumptions=assumptions, conflict_budget=conflict_budget)
