"""Random extraction: a randomised initial solution generator for SA.

Classes are processed bottom-up; among the e-nodes whose children are already
extractable, one is picked at random.  The result is always a valid (acyclic)
extraction, but usually far from optimal — which is exactly what the
simulated-annealing extractor wants as a diverse starting point.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.egraph.egraph import EGraph, ENode


def random_extract(egraph: EGraph, seed: int = 0, bias_small: bool = True) -> Dict[int, ENode]:
    """Pick a random valid e-node per class (bottom-up).

    ``bias_small`` makes leaf/NOT nodes slightly more likely, which keeps the
    random solutions from exploding in size on large graphs.
    """
    rng = random.Random(seed)
    chosen: Dict[int, ENode] = {}
    remaining = {cid: egraph.nodes_of(cid) for cid in egraph.class_ids()}

    progress = True
    while remaining and progress:
        progress = False
        for cid in list(remaining.keys()):
            candidates = [
                enode for enode in remaining[cid] if all(c in chosen for c in enode.children)
            ]
            if not candidates:
                continue
            if bias_small:
                weights = [1.0 if enode.children else 3.0 for enode in candidates]
                chosen[cid] = rng.choices(candidates, weights=weights, k=1)[0]
            else:
                chosen[cid] = rng.choice(candidates)
            del remaining[cid]
            progress = True
    return chosen
