"""Provenance-aware saturation: who created every e-node, and what it earned.

While a recorder is installed, each saturation run records, for every e-node
it creates, the ``(rule, iteration, matched class, substitution digest)``
that produced it: the e-nodes present when the run starts are tagged
``"original"``, each union a rule makes records its rule, and each merge
congruence ``rebuild`` makes is tagged ``"rebuild"``.  The engine is the one
writer: it fills a fresh :class:`ProvenanceLog` per run from the rows and
merges the e-graph reports back, and grafts it into the installed recorder
when the run returns.  Recording follows the tracer-off idiom of
:mod:`repro.obs.trace`: a module-global recorder is installed explicitly
(``with recording() as log: ...``), and the common un-recorded run builds
no log at all.

Cross-process safety mirrors trace spans exactly: :mod:`repro.obs.channel`
installs a fresh local :class:`ProvenanceLog` around each pool task and ships
it back, pickled, to the parent, which appends its records with
:meth:`ProvenanceLog.graft` — every record carries the recording process's
``pid``.

Attribution (:func:`attribute_extraction`) closes the loop: it walks the
chosen e-nodes of a final extraction back through the log and emits a
:class:`RuleAttribution` report — per rule: matches → applications → nodes
surviving into the final circuit → net ``(ands, levels)`` contribution vs
the seed extraction (estimated by reverting the rule's surviving choices to
the seed structure and re-realizing).  One canonicalization subtlety makes
this work: a node record keeps the children its row was created with, and
congruence ``rebuild`` later merges those ids, so records are matched to
chosen nodes by re-canonicalizing both under the e-graph's **final**
union-find (:meth:`ProvenanceLog.canonical_index`) instead of by
creation-time identity.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import Slot

__all__ = [
    "MergeRecord",
    "NodeRecord",
    "ProvenanceLog",
    "RuleAttribution",
    "RuleYield",
    "attribute_extraction",
    "current_recorder",
    "recording",
    "recording_enabled",
    "subst_digest",
]

#: The rule tag of the e-nodes present when a recorded run starts (the seed circuit).
ORIGINAL = "original"

#: The rule tag of the merges congruence ``rebuild`` makes (no rule applied).
REBUILD = "rebuild"

ATTRIBUTION_SCHEMA = 1
DERIVATION_SCHEMA = 1


def subst_digest(substitution: Dict[str, int]) -> str:
    """A short process-stable digest of a match substitution.

    ``hash()`` is randomized per process, which would make cross-process
    provenance buffers disagree with inline runs; CRC32 of the sorted items
    is deterministic everywhere and cheap enough for the recording path.
    """
    text = repr(sorted(substitution.items()))
    return "%08x" % (zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF)


class NodeRecord:
    """One e-node creation event: what was built and which rule built it."""

    __slots__ = (
        "class_id",
        "op",
        "children",
        "payload",
        "rule",
        "iteration",
        "matched_class",
        "subst",
        "pid",
        "extra",
    )

    def __init__(
        self,
        class_id: int,
        op: str,
        children: Tuple[int, ...],
        payload: Optional[str],
        rule: str,
        iteration: int,
        matched_class: Optional[int],
        subst: Optional[str],
        pid: int,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.class_id = class_id
        self.op = op
        self.children = children
        self.payload = payload
        self.rule = rule
        self.iteration = iteration
        self.matched_class = matched_class
        self.subst = subst
        self.pid = pid
        self.extra = extra or {}

    def __reduce__(self):
        # Pickle as the constructor's arguments, not as a slot-state dict: a
        # pool worker's log then pickles in under half the time and size.
        return NodeRecord, (
            self.class_id,
            self.op,
            self.children,
            self.payload,
            self.rule,
            self.iteration,
            self.matched_class,
            self.subst,
            self.pid,
            self.extra,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "class_id": self.class_id,
            "op": self.op,
            "children": list(self.children),
            "payload": self.payload,
            "rule": self.rule,
            "iteration": self.iteration,
            "matched_class": self.matched_class,
            "subst": self.subst,
            "pid": self.pid,
            "extra": dict(self.extra),
        }


class MergeRecord:
    """One union event: which classes merged and under which rule context."""

    __slots__ = ("root", "other", "rule", "iteration", "pid", "extra")

    def __init__(
        self,
        root: int,
        other: int,
        rule: str,
        iteration: int,
        pid: int,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.root = root
        self.other = other
        self.rule = rule
        self.iteration = iteration
        self.pid = pid
        self.extra = extra or {}

    def __reduce__(self):
        return MergeRecord, (self.root, self.other, self.rule, self.iteration, self.pid, self.extra)

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "other": self.other,
            "rule": self.rule,
            "iteration": self.iteration,
            "pid": self.pid,
            "extra": dict(self.extra),
        }


class ProvenanceLog:
    """Creation/union provenance of one (or several merged) saturation runs.

    A saturation run writes its own log: :meth:`seed` tags every e-node
    already in the graph as ``"original"``, so the log is total over the
    graph (any chosen node either has a rule record or is provably seed
    structure), then :meth:`add_nodes` and :meth:`add_merges` append the
    run's records.  Everything in the log is plain picklable data.
    """

    def __init__(self) -> None:
        self.nodes: List[NodeRecord] = []
        self.merges: List[MergeRecord] = []

    def seed(self, egraph) -> None:
        """Tag every e-node in ``egraph`` as ``original``."""
        self.add_nodes(egraph.enodes(), ORIGINAL, -1, None, None)

    def add_nodes(
        self,
        nodes: Iterable[Tuple[int, object]],
        rule: str,
        iteration: int,
        matched_class: Optional[int],
        subst: Optional[str],
    ) -> None:
        """One node record per ``(class id, e-node)``, built by ``rule``."""
        pid = os.getpid()
        self.nodes.extend(
            NodeRecord(cid, node.op, node.children, node.payload, rule, iteration, matched_class, subst, pid)
            for cid, node in nodes
        )

    def add_merges(self, pairs: Iterable[Tuple[int, int]], rule: str, iteration: int) -> None:
        """One merge record per ``(root, merged-away class)`` pair."""
        pid = os.getpid()
        self.merges.extend(MergeRecord(root, other, rule, iteration, pid) for root, other in pairs)

    def stamp(self, **tags) -> None:
        """Write ``tags`` (e.g. ``window=3``) into each record's ``extra`` in
        place with ``setdefault``, so a tag a record already carries stays."""
        for records in (self.nodes, self.merges):
            for record in records:
                for key, value in tags.items():
                    record.extra.setdefault(key, value)

    def graft(self, other: "ProvenanceLog") -> None:
        """Append another log's records to this log.

        ``other`` is a saturation run's log or a pool worker's.  The record
        objects move as they are, so both logs share them: a later
        :meth:`stamp` on ``other`` reaches this log too.  The recording
        ``pid`` is already in each record.
        """
        self.nodes.extend(other.nodes)
        self.merges.extend(other.merges)

    def export(self) -> Dict[str, List[Dict[str, object]]]:
        """Every node and merge record as a plain dict (the derivation JSON)."""
        return {
            "nodes": [record.to_dict() for record in self.nodes],
            "merges": [record.to_dict() for record in self.merges],
        }

    # -- lookup ---------------------------------------------------------------

    def canonical_index(self, egraph) -> Dict[object, NodeRecord]:
        """Map every recorded e-node, canonicalized under the graph's *final*
        union-find, to its creation record.

        A record keeps its row's creation-time children, which later merges
        remap, so creation-time identity is not stable; re-canonicalizing
        both sides at lookup time is.  The first writer wins on collisions —
        seed records are appended before rule records, so a node that
        existed originally stays ``original`` even if a rule re-derived it.
        Records whose ids do not belong to this e-graph (a merged log
        spanning several graphs) are skipped.
        """
        from repro.egraph.egraph import ENode

        uf = egraph.union_find
        limit = len(uf)
        index: Dict[object, NodeRecord] = {}
        for record in self.nodes:
            if record.class_id >= limit or any(c >= limit for c in record.children):
                continue
            node = ENode(record.op, tuple(record.children), record.payload).canonicalize(uf)
            index.setdefault(node, record)
        return index


# -- the installed recorder ----------------------------------------------------

RECORDER = Slot()


def current_recorder() -> Optional[ProvenanceLog]:
    return RECORDER.current


def recording_enabled() -> bool:
    return RECORDER.current is not None


def recording():
    """Context manager: install a fresh recorder, yield it, restore the old one.

    Each saturation run under it grafts its own log, which never spans two
    e-graphs' id spaces, into the recorder when the run returns.
    """
    return RECORDER.scoped(ProvenanceLog())


# -- attribution ---------------------------------------------------------------


@dataclass
class RuleYield:
    """One rule's funnel: matches → applications → survivors → net QoR."""

    rule: str
    matches: int = 0
    applications: int = 0
    #: Chosen e-nodes of the final extraction this rule created.
    surviving_nodes: int = 0
    #: The AND subset of ``surviving_nodes`` (the circuit-size currency).
    surviving_ands: int = 0
    #: ANDs the final circuit would grow by if this rule's surviving choices
    #: reverted to seed structure (positive = the rule earned that many ANDs).
    delta_ands: Optional[int] = None
    delta_levels: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "matches": self.matches,
            "applications": self.applications,
            "surviving_nodes": self.surviving_nodes,
            "surviving_ands": self.surviving_ands,
            "delta_ands": self.delta_ands,
            "delta_levels": self.delta_levels,
        }


def _sum_optional(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


@dataclass
class RuleAttribution:
    """Where the final circuit's structure came from, rule by rule.

    Node accounting is over the realized extraction DAG: the chosen e-nodes
    reachable from the circuit outputs.  By construction the per-rule
    ``surviving_ands`` of non-``original`` rules sum to
    ``total_ands - original_ands`` — the final circuit's non-original AND
    count.  ``final_ands``/``final_levels`` are measured on the strashed
    realized AIG (structural hashing can fold a chosen ``x AND x`` away, so
    they may sit at or below ``total_ands``).
    """

    total_nodes: int = 0
    total_ands: int = 0
    original_nodes: int = 0
    original_ands: int = 0
    seed_ands: Optional[int] = None
    seed_levels: Optional[int] = None
    final_ands: Optional[int] = None
    final_levels: Optional[int] = None
    rules: Dict[str, RuleYield] = field(default_factory=dict)
    #: Derivation chains of the deepest surviving nodes (outermost first).
    derivations: List[List[Dict[str, object]]] = field(default_factory=list)
    #: Windows aggregated into this report (1 for a monolithic flow).
    windows: int = 1

    @property
    def derived_ands(self) -> int:
        """ANDs of the final extraction that did not exist in the seed."""
        return self.total_ands - self.original_ands

    def rule_yields(self) -> List[RuleYield]:
        """Non-original yields, most-surviving first (stable on name)."""
        yields = [y for name, y in self.rules.items() if name != ORIGINAL]
        return sorted(yields, key=lambda y: (-y.surviving_ands, -y.surviving_nodes, y.rule))

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "total_nodes": self.total_nodes,
            "total_ands": self.total_ands,
            "original_nodes": self.original_nodes,
            "original_ands": self.original_ands,
            "derived_ands": self.derived_ands,
            "seed_ands": self.seed_ands,
            "seed_levels": self.seed_levels,
            "final_ands": self.final_ands,
            "final_levels": self.final_levels,
            "windows": self.windows,
            "rules": {name: y.to_dict() for name, y in sorted(self.rules.items())},
            "derivations": [list(chain) for chain in self.derivations],
        }

    @classmethod
    def aggregate(cls, parts: Iterable["RuleAttribution"]) -> "RuleAttribution":
        """Sum per-window attributions into one report (window-index order).

        Counters and per-rule yields add; QoR fields add None-aware (a window
        whose realization failed contributes nothing).  Derivation chains are
        concatenated in order and capped.
        """
        total = cls(windows=0)
        for part in parts:
            total.windows += part.windows
            total.total_nodes += part.total_nodes
            total.total_ands += part.total_ands
            total.original_nodes += part.original_nodes
            total.original_ands += part.original_ands
            total.seed_ands = _sum_optional(total.seed_ands, part.seed_ands)
            total.seed_levels = _sum_optional(total.seed_levels, part.seed_levels)
            total.final_ands = _sum_optional(total.final_ands, part.final_ands)
            total.final_levels = _sum_optional(total.final_levels, part.final_levels)
            for name, y in part.rules.items():
                into = total.rules.setdefault(name, RuleYield(rule=name))
                into.matches += y.matches
                into.applications += y.applications
                into.surviving_nodes += y.surviving_nodes
                into.surviving_ands += y.surviving_ands
                into.delta_ands = _sum_optional(into.delta_ands, y.delta_ands)
                into.delta_levels = _sum_optional(into.delta_levels, y.delta_levels)
            if len(total.derivations) < 3:
                total.derivations.extend(part.derivations[: 3 - len(total.derivations)])
        return total

    def render(self) -> str:
        """The rule-yield table ``emorphic explain`` prints."""

        def opt(value: Optional[int], signed: bool = False) -> str:
            if value is None:
                return "-"
            return f"{value:+d}" if signed else str(value)

        lines = [
            "rule yield (chosen e-nodes surviving into the final extraction):",
            f"  {'rule':24s} {'matches':>8s} {'applied':>8s} {'nodes':>6s} {'ands':>6s} "
            f"{'Δands':>6s} {'Δlev':>5s}",
        ]
        original = self.rules.get(ORIGINAL)
        if original is not None:
            lines.append(
                f"  {ORIGINAL:24s} {'-':>8s} {'-':>8s} {original.surviving_nodes:6d} "
                f"{original.surviving_ands:6d} {'-':>6s} {'-':>5s}"
            )
        for y in self.rule_yields():
            if y.matches == 0 and y.applications == 0 and y.surviving_nodes == 0:
                continue  # never fired: noise in the table, still in to_dict()
            lines.append(
                f"  {y.rule:24s} {y.matches:8d} {y.applications:8d} {y.surviving_nodes:6d} "
                f"{y.surviving_ands:6d} {opt(y.delta_ands, signed=True):>6s} "
                f"{opt(y.delta_levels, signed=True):>5s}"
            )
        window_note = f" across {self.windows} windows" if self.windows > 1 else ""
        lines.append(
            f"  extraction{window_note}: {self.total_nodes} nodes / {self.total_ands} ands "
            f"({self.derived_ands} from rules, {self.original_ands} original)"
        )
        if self.seed_ands is not None or self.final_ands is not None:
            lines.append(
                f"  seed (ands, levels) = ({opt(self.seed_ands)}, {opt(self.seed_levels)}) "
                f"-> final ({opt(self.final_ands)}, {opt(self.final_levels)})"
            )
        for chain in self.derivations:
            if not chain:
                continue
            head = chain[0]
            lines.append(
                f"  deepest derivation (class {head.get('class')}, depth {head.get('depth')}):"
            )
            for hop in chain:
                if hop.get("rule") == ORIGINAL:
                    lines.append(f"    c{hop.get('class')} {hop.get('op')}: original")
                else:
                    lines.append(
                        f"    c{hop.get('class')} {hop.get('op')} <- {hop.get('rule')}"
                        f"@{hop.get('iteration')} (matched c{hop.get('matched')}, "
                        f"subst {hop.get('subst')})"
                    )
        return "\n".join(lines)


def _reachable_extraction(egraph, extraction, roots) -> Dict[int, object]:
    """Canonical ``class id -> chosen node`` over classes reachable from roots."""
    find = egraph.find
    uf = egraph.union_find
    canonical: Dict[int, object] = {}
    for cid, node in extraction.items():
        canonical.setdefault(find(cid), node.canonicalize(uf))
    reachable: Dict[int, object] = {}
    stack = [find(root) for root in roots]
    while stack:
        cid = stack.pop()
        if cid in reachable:
            continue
        node = canonical.get(cid)
        if node is None:
            continue  # missing choice: realization would fail loudly elsewhere
        reachable[cid] = node
        stack.extend(find(child) for child in node.children)
    return reachable


def _and_depths(egraph, chosen: Dict[int, object]) -> Dict[int, int]:
    """AND-depth per chosen class (iterative; cycles collapse to depth 0)."""
    from repro.egraph.language import AND

    find = egraph.find
    depths: Dict[int, int] = {}
    for root in chosen:
        stack = [(root, False)]
        onstack = set()
        while stack:
            cid, expanded = stack.pop()
            if cid in depths:
                continue
            node = chosen.get(cid)
            if node is None:
                depths[cid] = 0
                continue
            children = [find(c) for c in node.children]
            if not expanded:
                if cid in onstack:
                    depths[cid] = 0  # defensive: a cyclic choice set
                    continue
                onstack.add(cid)
                stack.append((cid, True))
                stack.extend((c, False) for c in children if c not in depths)
                continue
            onstack.discard(cid)
            child_depth = max((depths.get(c, 0) for c in children), default=0)
            depths[cid] = child_depth + (1 if node.op == AND else 0)
    return depths


def _derivation_chain(
    egraph,
    chosen: Dict[int, object],
    index: Dict[object, NodeRecord],
    start: int,
    depth: int,
    limit: int = 12,
) -> List[Dict[str, object]]:
    """Follow ``matched_class`` links from ``start`` down to seed structure."""
    find = egraph.find
    chain: List[Dict[str, object]] = []
    visited = set()
    cid = start
    while cid is not None and cid not in visited and len(chain) < limit:
        visited.add(cid)
        node = chosen.get(cid)
        if node is None:
            break
        record = index.get(node)
        rule = record.rule if record is not None else ORIGINAL
        hop: Dict[str, object] = {"class": cid, "op": node.op, "rule": rule}
        if not chain:
            hop["depth"] = depth
        if record is None or rule == ORIGINAL:
            chain.append(hop)
            break
        hop["iteration"] = record.iteration
        hop["matched"] = record.matched_class
        hop["subst"] = record.subst
        chain.append(hop)
        cid = None if record.matched_class is None else find(record.matched_class)
    return chain


def attribute_extraction(
    circuit,
    extraction: Dict[int, object],
    log: ProvenanceLog,
    profile=None,
    final_aig=None,
    compute_deltas: bool = True,
    max_chains: int = 1,
) -> RuleAttribution:
    """Walk a final extraction back through a provenance log.

    ``circuit`` is the :class:`~repro.conversion.dag2eg.CircuitEGraph` the
    extraction was chosen from, ``profile`` the run's ``SaturationProfile``
    (supplies the matches/applications columns), ``final_aig`` the already
    realized (strashed) extraction when the caller has one.  QoR deltas are
    estimated fail-soft: a rule whose ablated extraction cannot be realized
    (cyclic after reverting) reports ``None`` deltas instead of raising.
    """
    from repro.aig.levels import logic_depth
    from repro.conversion.eg2dag import extraction_to_aig
    from repro.egraph.language import AND

    egraph = circuit.egraph
    chosen = _reachable_extraction(egraph, extraction, circuit.output_classes)
    index = log.canonical_index(egraph)

    report = RuleAttribution()
    by_rule: Dict[str, List[int]] = {}
    for cid, node in chosen.items():
        record = index.get(node)
        rule = record.rule if record is not None else ORIGINAL
        y = report.rules.setdefault(rule, RuleYield(rule=rule))
        y.surviving_nodes += 1
        report.total_nodes += 1
        if node.op == AND:
            y.surviving_ands += 1
            report.total_ands += 1
        by_rule.setdefault(rule, []).append(cid)
    original = report.rules.get(ORIGINAL)
    if original is not None:
        report.original_nodes = original.surviving_nodes
        report.original_ands = original.surviving_ands

    if profile is not None:
        for name, stats in profile.rules.items():
            y = report.rules.setdefault(name, RuleYield(rule=name))
            y.matches = stats.matches_found
            y.applications = stats.applications

    # Seed / final QoR (fail-soft: a non-realizable side reports None).
    seed_extraction = None
    try:
        seed_extraction = circuit.original_extraction()
        seed_aig = extraction_to_aig(circuit, seed_extraction, name="seed").strash()
        report.seed_ands = seed_aig.num_ands
        report.seed_levels = logic_depth(seed_aig)
    except (ValueError, KeyError):
        seed_extraction = None
    try:
        if final_aig is None:
            final_aig = extraction_to_aig(circuit, chosen, name="final").strash()
        report.final_ands = final_aig.num_ands
        report.final_levels = logic_depth(final_aig)
    except (ValueError, KeyError):
        final_aig = None

    if compute_deltas and seed_extraction is not None and final_aig is not None:
        find = egraph.find
        seed_canonical = {find(cid): node for cid, node in seed_extraction.items()}
        for rule, class_ids in by_rule.items():
            if rule == ORIGINAL:
                continue
            ablated = dict(chosen)
            reverted = 0
            for cid in class_ids:
                fallback = seed_canonical.get(cid)
                if fallback is not None:
                    ablated[cid] = fallback
                    reverted += 1
            if reverted == 0:
                continue
            # Reverted choices may reach seed classes outside the chosen set.
            for cid, node in seed_canonical.items():
                ablated.setdefault(cid, node)
            try:
                ablated_aig = extraction_to_aig(circuit, ablated, name="ablated").strash()
            except (ValueError, KeyError):
                continue  # reverting created a cycle: contribution not separable
            y = report.rules[rule]
            y.delta_ands = ablated_aig.num_ands - report.final_ands
            y.delta_levels = logic_depth(ablated_aig) - report.final_levels

    if max_chains > 0:
        depths = _and_depths(egraph, chosen)
        derived = [
            cid
            for cid, node in chosen.items()
            if index.get(node) is not None and index[node].rule != ORIGINAL
        ]
        derived.sort(key=lambda cid: (-depths.get(cid, 0), cid))
        for cid in derived[:max_chains]:
            chain = _derivation_chain(egraph, chosen, index, cid, depths.get(cid, 0))
            if chain:
                report.derivations.append(chain)
    return report
