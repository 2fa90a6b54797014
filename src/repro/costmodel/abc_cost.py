"""Quality-prioritized cost model: evaluate candidates by actually mapping them.

This mirrors the paper's ABC-static-library evaluator: the extracted circuit
is strashed, optionally lightly optimized, and run through the cut-based
technology mapper; the mapped delay is the primary cost (area is reported
too and used as a tie-breaker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.aig.graph import Aig
from repro.mapping.cut_mapping import map_aig
from repro.mapping.library import Library, default_library


@dataclass
class QoR:
    """Quality of result after technology mapping."""

    area: float
    delay: float
    levels: int
    num_gates: int

    def cost(self, delay_weight: float = 1.0, area_weight: float = 0.0) -> float:
        return delay_weight * self.delay + area_weight * self.area


class MappingCostModel:
    """Evaluate an AIG (or an extraction) by mapping it with the standard library."""

    def __init__(
        self,
        library: Optional[Library] = None,
        delay_weight: float = 1.0,
        area_weight: float = 0.5,
        pre_balance: bool = False,
        cache: bool = True,
        fast: bool = True,
    ):
        self.library = library or default_library()
        self.delay_weight = delay_weight
        self.area_weight = area_weight
        self.pre_balance = pre_balance
        self.fast = fast
        self._cache: Optional[Dict[int, QoR]] = {} if cache else None
        self.num_evaluations = 0

    def evaluate_aig(self, aig: Aig) -> QoR:
        """Map the AIG and return its QoR.

        In ``fast`` mode (the paper's "fast but rough mapping") the mapper
        skips area recovery and uses a smaller cut budget; the final
        candidate selection in the flow always re-maps with the full mapper.
        """
        if self._cache is not None:
            key = _aig_fingerprint(aig)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        self.num_evaluations += 1
        work = aig.strash()
        if self.pre_balance:
            from repro.opt.balance import balance

            work = balance(work)
        if self.fast:
            result = map_aig(work, self.library, cut_limit=4, area_recovery=False)
        else:
            result = map_aig(work, self.library)
        qor = QoR(area=result.area, delay=result.delay, levels=result.levels, num_gates=result.num_gates)
        if self._cache is not None:
            self._cache[key] = qor
        return qor

    def cost_of_aig(self, aig: Aig) -> float:
        qor = self.evaluate_aig(aig)
        return qor.cost(self.delay_weight, self.area_weight)


def _aig_fingerprint(aig: Aig) -> int:
    """A cheap structural fingerprint used for QoR caching."""
    acc = hash((aig.num_pis, aig.num_pos, aig.num_ands))
    for node in aig.and_nodes():
        acc = (acc * 1000003) ^ hash((node.fanin0, node.fanin1))
    for lit, _ in aig.pos:
        acc = (acc * 1000003) ^ lit
    return acc
