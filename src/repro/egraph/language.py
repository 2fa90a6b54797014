"""The Boolean term language used by the e-graph.

Operators mirror the equation format used between ABC and E-morphic:
``AND``/``OR`` (binary), ``NOT`` (unary), ``VAR`` (a named input) and the two
constants.  XOR/MUX are intentionally not primitive: the AIG conversion
expresses them through AND/NOT, matching the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

AND = "AND"
OR = "OR"
NOT = "NOT"
VAR = "VAR"
CONST0 = "CONST0"
CONST1 = "CONST1"


@dataclass(frozen=True)
class OpSpec:
    """Arity and default extraction cost of an operator."""

    name: str
    arity: int
    cost: float


OPERATORS: Dict[str, OpSpec] = {
    AND: OpSpec(AND, 2, 1.0),
    OR: OpSpec(OR, 2, 1.0),
    NOT: OpSpec(NOT, 1, 0.0),
    VAR: OpSpec(VAR, 0, 0.0),
    CONST0: OpSpec(CONST0, 0, 0.0),
    CONST1: OpSpec(CONST1, 0, 0.0),
}


def op_arity(op: str) -> int:
    """Number of children an ``op`` e-node takes."""
    return OPERATORS[op].arity


def op_cost(op: str) -> float:
    """Default extraction cost of one ``op`` e-node."""
    return OPERATORS[op].cost


def is_leaf_op(op: str) -> bool:
    """Whether ``op`` takes no children (VAR and the constants)."""
    return OPERATORS[op].arity == 0
