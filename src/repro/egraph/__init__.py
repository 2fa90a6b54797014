"""An egg-style e-graph engine for Boolean terms.

Provides the e-graph (hashconsed canonical e-nodes stored as integer rows,
union-find over e-classes, congruence-closure rebuilding), pattern-based
e-matching (the test oracle of the saturation engine in
:mod:`repro.engine`), the Boolean rule set of the paper (Table I), and the
intermediate serialization format used for direct DAG-to-DAG conversion
(Fig. 7).
"""

from repro.egraph.egraph import EGraph, ENode, op_id, op_name
from repro.egraph.language import AND, CONST0, CONST1, NOT, OR, VAR, OpSpec
from repro.egraph.pattern import Pattern, PatternNode, parse_pattern
from repro.egraph.rewrite import Rewrite
from repro.egraph.rules import boolean_rules, rule_names
from repro.egraph.serialize import egraph_from_dsl, egraph_to_dsl
from repro.egraph.unionfind import UnionFind

__all__ = [
    "EGraph",
    "ENode",
    "op_id",
    "op_name",
    "AND",
    "OR",
    "NOT",
    "VAR",
    "CONST0",
    "CONST1",
    "OpSpec",
    "Pattern",
    "PatternNode",
    "parse_pattern",
    "Rewrite",
    "boolean_rules",
    "rule_names",
    "egraph_from_dsl",
    "egraph_to_dsl",
    "UnionFind",
]
