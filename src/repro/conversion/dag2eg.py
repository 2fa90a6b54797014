"""Direct DAG-to-DAG conversion: AIG -> e-graph.

Every AIG variable maps to one e-class; complemented edges become NOT
e-nodes.  Because the mapping is id-to-id (no flattening into trees), the
conversion is linear in the circuit size — this is the key efficiency
improvement over the S-expression path of E-Syn (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.egraph.egraph import EGraph
from repro.egraph.language import AND, CONST0, CONST1, NOT


@dataclass
class CircuitEGraph:
    """An e-graph plus the bookkeeping needed to get a circuit back out.

    ``output_classes`` holds one e-class id per primary output (already
    including any output complementation); ``input_names`` preserves PI order.
    ``original_choice`` records, per e-class, the e-node that came from the
    original circuit — extractors use it to seed an "identity" solution whose
    area matches the pre-resynthesis structure.
    """

    egraph: EGraph
    output_classes: List[int] = field(default_factory=list)
    output_names: List[str] = field(default_factory=list)
    input_names: List[str] = field(default_factory=list)
    var_to_class: Dict[int, int] = field(default_factory=dict)
    original_choice: Dict[int, "object"] = field(default_factory=dict)

    def original_extraction(self) -> Dict[int, "object"]:
        """The identity extraction (original structure), re-canonicalised.

        Saturation can merge two original classes (e.g. absorption proving
        ``x AND (x OR y) == x``), after which the recorded choice for the
        merged class may reference itself through the union-find — a cyclic
        extraction that no longer denotes a circuit.  The result is therefore
        *repaired* to an acyclic extraction: original choices are kept
        wherever they are realizable bottom-up, and the few classes whose
        original choice became cyclic fall back to a greedy alternative.
        """
        uf = self.egraph.union_find
        find = self.egraph.find
        preferred: Dict[int, object] = {}
        for cid, enode in self.original_choice.items():
            preferred.setdefault(find(cid), enode.canonicalize(uf))
        # Bottom-up closure over the preferred choices only.  Original classes
        # are closed under (canonicalised) children, so anything not realized
        # by the fixpoint sits on a cycle introduced by a merge.
        realized: Dict[int, object] = {}
        changed = True
        while changed and len(realized) < len(preferred):
            changed = False
            for cid, enode in preferred.items():
                if cid in realized:
                    continue
                if all(find(c) in realized for c in enode.children):
                    realized[cid] = enode
                    changed = True
        if len(realized) < len(preferred):
            # Greedy choices are acyclic among themselves and never reference
            # classes realized above (those only reference each other), so the
            # overlay stays acyclic.  The whole greedy cover is merged because
            # a repaired choice may reach classes outside the original set.
            from repro.extraction.greedy import greedy_extract

            for cid, enode in greedy_extract(self.egraph).items():
                realized.setdefault(cid, enode)
        return realized


def aig_to_egraph(aig: Aig) -> CircuitEGraph:
    """Convert an AIG to an e-graph with one e-class per AIG variable."""
    egraph = EGraph()
    var_to_class: Dict[int, int] = {}
    original_choice: Dict[int, object] = {}

    def record(class_id: int) -> int:
        if class_id not in original_choice:
            original_choice[class_id] = egraph.nodes_of(class_id)[0]
        return class_id

    const0 = record(egraph.add_term(CONST0))
    var_to_class[0] = const0
    input_names = []
    for i, var in enumerate(aig.pis):
        name = aig.node(var).name or f"pi{i}"
        input_names.append(name)
        var_to_class[var] = record(egraph.var(name))

    # Cache NOT wrappers so each complemented edge re-uses one e-class.
    not_cache: Dict[int, int] = {}

    def lit_class(lit: int) -> int:
        base = var_to_class[lit_var(lit)]
        if not lit_is_compl(lit):
            return base
        base = egraph.find(base)
        if base not in not_cache:
            not_cache[base] = record(egraph.add_term(NOT, [base]))
        return not_cache[base]

    for node in aig.and_nodes():
        c0 = lit_class(node.fanin0)
        c1 = lit_class(node.fanin1)
        var_to_class[node.var] = record(egraph.add_term(AND, [c0, c1]))

    output_classes = []
    output_names = []
    for i, (lit, name) in enumerate(aig.pos):
        output_classes.append(lit_class(lit))
        output_names.append(name or f"po{i}")
    return CircuitEGraph(
        egraph=egraph,
        output_classes=output_classes,
        output_names=output_names,
        input_names=input_names,
        var_to_class=var_to_class,
        original_choice=original_choice,
    )
