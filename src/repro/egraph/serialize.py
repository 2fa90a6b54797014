"""The intermediate DSL for direct e-graph <-> circuit conversion (Fig. 7).

The format is a JSON document of the shape::

    {"egraph": {"3": {"id": 3, "nodes": [{"Symbol": "a"}], "parents": [7, 8]},
                "7": {"id": 7, "nodes": [{"AND": [3, 4]}], "parents": [6, 9]},
                ...}}

Each entry is one e-class, identified by a numeric id; ``nodes`` lists its
e-nodes with child class ids; ``parents`` lists the classes that reference
it.  Because sharing is expressed through ids, the representation grows
linearly with the circuit, unlike the S-expression path of E-Syn.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Dict, List, Tuple, Union

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import AND, CONST0, CONST1, NOT, OR, VAR

_OP_TO_DSL = {AND: "AND", OR: "OR", NOT: "NOT"}
_DSL_TO_OP = {v: k for k, v in _OP_TO_DSL.items()}


def _enode_to_dsl(enode: ENode) -> Dict[str, Union[str, List[int]]]:
    if enode.op == VAR:
        return {"Symbol": enode.payload or ""}
    if enode.op == CONST0:
        return {"Const": "0"}
    if enode.op == CONST1:
        return {"Const": "1"}
    return {_OP_TO_DSL[enode.op]: list(enode.children)}


def _enode_from_dsl(entry: Dict[str, Union[str, List[int]]]) -> ENode:
    if len(entry) != 1:
        raise ValueError(f"malformed e-node entry: {entry!r}")
    key, value = next(iter(entry.items()))
    if key == "Symbol":
        return ENode(op=VAR, payload=str(value))
    if key == "Const":
        return ENode(op=CONST1 if str(value) == "1" else CONST0)
    if key not in _DSL_TO_OP:
        raise ValueError(f"unknown operator {key!r} in DSL")
    children = tuple(int(c) for c in value)  # type: ignore[union-attr]
    return ENode(op=_DSL_TO_OP[key], children=children)


def egraph_to_dsl(egraph: EGraph, indent: int | None = None) -> str:
    """Serialize the e-graph into the intermediate DSL (JSON text)."""
    classes = [(cid, egraph.nodes_of(cid)) for cid in egraph.class_ids()]
    parents: Dict[int, List[int]] = {}
    for cid, nodes in classes:
        for enode in nodes:
            for child in enode.children:
                parents.setdefault(child, []).append(cid)
    doc: Dict[str, Dict[str, object]] = {
        str(cid): {
            "id": cid,
            "nodes": [_enode_to_dsl(n) for n in nodes],
            "parents": sorted(set(parents.get(cid, []))),
        }
        for cid, nodes in classes
    }
    return json.dumps({"egraph": doc}, indent=indent, sort_keys=True)


def egraph_digest(egraph: EGraph) -> str:
    """Stable content hash of an e-graph (hex digest of its canonical DSL).

    Two e-graphs with identical canonical classes and e-nodes hash equally
    (``egraph_to_dsl`` sorts keys), so the digest can answer "did saturation
    change anything?" or content-address an e-graph snapshot.
    """
    return hashlib.sha256(egraph_to_dsl(egraph).encode("utf-8")).hexdigest()


def egraph_from_dsl(text: str) -> Tuple[EGraph, Dict[int, int]]:
    """Parse the intermediate DSL back into an e-graph.

    Returns (egraph, id_map) where ``id_map`` maps DSL class ids to e-class
    ids in the reconstructed graph.  Saturated e-graphs are cyclic, so the
    loader works node by node rather than class by class: a node waits until
    each of its child classes has a built node, ready nodes are built in
    ascending DSL class id (then position) and unioned into their class, and
    only a class none of whose nodes can ever be built raises ``ValueError``.
    """
    doc = json.loads(text)
    if "egraph" not in doc:
        raise ValueError("missing top-level 'egraph' key")
    entries = {int(key): [_enode_from_dsl(n) for n in value["nodes"]] for key, value in doc["egraph"].items()}
    egraph = EGraph()
    id_map: Dict[int, int] = {}
    # Per node (dsl id, position): how many distinct child classes are unbuilt.
    waiting: Dict[Tuple[int, int], int] = {}
    users: Dict[int, List[Tuple[int, int]]] = {}
    ready: List[Tuple[int, int]] = []
    for dsl_id, nodes in entries.items():
        if not nodes:
            raise ValueError(f"DSL class {dsl_id} has no nodes")
        for position, enode in enumerate(nodes):
            kids = set(enode.children)
            unknown = kids - entries.keys()
            if unknown:
                raise ValueError(f"DSL class {dsl_id} references unknown class {min(unknown)}")
            waiting[dsl_id, position] = len(kids)
            for child in kids:
                users.setdefault(child, []).append((dsl_id, position))
            if not kids:
                ready.append((dsl_id, position))
    heapq.heapify(ready)
    while ready:
        dsl_id, position = heapq.heappop(ready)
        enode = entries[dsl_id][position]
        new_id = egraph.add_term(enode.op, [id_map[c] for c in enode.children], enode.payload)
        if dsl_id in id_map:
            egraph.union(id_map[dsl_id], new_id)
            continue
        id_map[dsl_id] = new_id
        for user in users.get(dsl_id, ()):
            waiting[user] -= 1
            if not waiting[user]:
                heapq.heappush(ready, user)
    unbuilt = entries.keys() - id_map.keys()
    if unbuilt:
        raise ValueError(
            f"DSL class {min(unbuilt)} cannot be built: each of its nodes needs a class "
            "that only cyclic nodes define"
        )
    egraph.rebuild()
    return egraph, {k: egraph.find(v) for k, v in id_map.items()}
