"""Quality-prioritized cost model: evaluate candidates by actually mapping them.

This mirrors the paper's ABC-static-library evaluator: the extracted circuit
is strashed and run through the cut-based technology mapper's fast path,
and the mapped delay, area, levels and gate count are its QoR.
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


class MappingCostModel:
    """Evaluate an AIG (or an extraction) by mapping it with the standard library."""

    def __init__(self, library: Optional[Library] = None):
        self.library = library or default_library()
        self._cache: Dict[int, QoR] = {}
        self.num_evaluations = 0

    def evaluate_aig(self, aig: Aig) -> QoR:
        """Map the AIG and return its QoR, cached by structure.

        The mapping is the paper's "fast but rough mapping": no area
        recovery and a cut budget of 4; the final candidate selection in the
        flow always re-maps with the full mapper.
        """
        key = _aig_fingerprint(aig)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.num_evaluations += 1
        result = map_aig(aig.strash(), self.library, cut_limit=4, area_recovery=False)
        qor = QoR(area=result.area, delay=result.delay, levels=result.levels, num_gates=result.num_gates)
        self._cache[key] = qor
        return qor


def _aig_fingerprint(aig: Aig) -> int:
    """A cheap structural fingerprint used for QoR caching."""
    acc = hash((aig.num_pis, aig.num_pos, aig.num_ands))
    for node in aig.and_nodes():
        acc = (acc * 1000003) ^ hash((node.fanin0, node.fanin1))
    for lit, _ in aig.pos:
        acc = (acc * 1000003) ^ lit
    return acc
