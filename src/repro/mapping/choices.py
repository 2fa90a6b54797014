"""Structural-choice equivalence classes shared between ``dch`` and the mapper.

Kept in its own dependency-free module so that the choice computation
(:mod:`repro.opt.dch`) and the mapper (:mod:`repro.mapping.cut_mapping`) can
both import it without creating an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ChoiceClasses:
    """Equivalence classes over AIG variables (same polarity).

    ``repr_of`` maps every variable to its class representative (the earliest
    variable in topological order); ``members`` maps a representative to all
    members of its class, representative included.
    """

    repr_of: Dict[int, int] = field(default_factory=dict)
    members: Dict[int, List[int]] = field(default_factory=dict)

    def representative(self, var: int) -> int:
        """Class representative of ``var`` (``var`` itself when unclassed)."""
        return self.repr_of.get(var, var)

    def class_members(self, var: int) -> List[int]:
        """Every member of ``var``'s class, representative first."""
        return self.members.get(self.representative(var), [var])
