"""The saturation engine: batched e-matching, scheduling, dedup, telemetry.

:class:`SaturationEngine` supersedes the naive pre-engine runner loop while
preserving its semantics exactly when configured with the
:class:`~repro.engine.scheduler.SimpleScheduler`:

* iterations are two-phase (search every eligible rule against the frozen
  e-graph, then apply rule by rule), so the legacy runner is the special case
  ``SimpleScheduler`` + all classes as candidates;
* e-matching is one :class:`~repro.engine.batched.BatchedMatcher` walk per
  iteration: every rule LHS compiled into a shared-prefix trie, and the trie
  into generated loops over the e-graph's integer rows, whose per-operator
  class buckets play the op-index role.  Its matches equal the per-pattern
  reference (:func:`repro.egraph.pattern.search`) in count, content and
  order, so the engine lands on the e-graph the legacy loop would;
* a match stays a ``(class id, slot tuple)`` pair from search to apply: the
  scheduler truncates the lists, dedup keys are built from the tuples, and
  each RHS runs as a post-order program compiled once per engine
  (:func:`_compile_rhs`).  A :class:`~repro.egraph.pattern.Match` is built
  only for a rule's ``condition``;
* **match deduplication** remembers every (rule, canonical class, canonical
  substitution) triple that was already instantiated and skips it in later
  iterations.  A skipped re-instantiation could at most have re-created
  transient duplicate nodes that congruence repair merges right back, so
  dedup preserves every equivalence the legacy loop discovers (graphs can
  differ structurally once a node budget truncates growth, which is why the
  parity-exact configuration runs with dedup off);
* the **rebuild** after each apply phase stays worklist-driven: only classes
  dirtied by unions (and their congruent parents) are repaired, and the
  e-graph's O(1) class/node counters keep the per-rule budget checks out of
  the profile.

**Provenance**: while a recorder is installed, a run writes its own
:class:`~repro.obs.provenance.ProvenanceLog` (``engine.provenance``) from the
rows and union each applied match made and the merges ``rebuild`` returns,
and grafts it into the recorder when the run returns.

Memory: an iteration's matches are dropped before the next search starts,
and the matcher's class views and memos live only inside one search, so
peak memory is one iteration's scratch on top of the e-graph.

``run`` returns a :class:`~repro.engine.telemetry.SaturationProfile` with
per-rule and per-iteration telemetry; the legacy stop reasons
(``saturated`` / ``iteration_limit`` / ``node_limit`` / ``class_limit`` /
``time_limit``) are unchanged, except that a quiet iteration in which the
*scheduler* held something back (a banned rule, backoff-truncated matches)
does not count as saturation.  Truncation by the hard
``match_limit_per_rule`` cap deliberately keeps the legacy verdict: a quiet
iteration under the cap stopped the old runner too, and the sorted search
order re-finds the same prefix every iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.egraph.egraph import EGraph, op_id
from repro.egraph.language import op_arity
from repro.egraph.pattern import Match, PatternNode
from repro.egraph.rewrite import Rewrite
from repro.engine.batched import BatchedMatcher, SlotMatch
from repro.engine.scheduler import Scheduler, make_scheduler
from repro.engine.telemetry import IterationReport, RuleProfile, SaturationProfile
from repro.obs import provenance as obs_provenance
from repro.obs import resource as obs_resource
from repro.obs import trace as obs
from repro.obs.metrics import registry as obs_registry


@dataclass
class EngineLimits:
    """Stopping conditions for equality saturation."""

    max_iterations: int = 5
    max_nodes: int = 200_000
    max_classes: int = 100_000
    time_limit: float = 60.0
    match_limit_per_rule: int = 5_000

    def __post_init__(self) -> None:
        for name in ("max_iterations", "max_nodes", "max_classes", "time_limit"):
            if getattr(self, name) < 0:
                raise ValueError(f"EngineLimits.{name} must be >= 0, got {getattr(self, name)}")
        if self.match_limit_per_rule < 1:
            raise ValueError(
                f"EngineLimits.match_limit_per_rule must be >= 1, got {self.match_limit_per_rule}"
            )


#: Canonical dedup key: ``(rule name, canonical class, *substitution values)``
#: with the values in sorted variable-name order.  A rule always binds the
#: same names, so this one flat tuple is one-to-one with the
#: (rule, class, sorted substitution items) triple, which took a tuple per
#: variable plus two.
MatchKey = Tuple

#: RHS program steps, run in order on a stack of class ids: push the class of
#: a slot, push a VAR leaf, or pop an operator's children and push the class
#: of the operator node over them.
_SLOT, _SYMBOL, _OP = 0, 1, 2


def _compile_rhs(node: PatternNode, slot_of: Dict[str, int], program: List[Tuple]) -> List[Tuple]:
    """Lower an RHS pattern to its post-order program over match slots."""
    if node.kind == "pattern_var":
        program.append((_SLOT, slot_of[node.name], 0))
    elif node.kind == "symbol":
        program.append((_SYMBOL, node.name, 0))
    else:
        # Operator steps insert keys without add_term's check, so a node
        # built by hand (not by parse_pattern) is checked here, once.
        if len(node.children) != op_arity(node.op):
            raise ValueError(f"operator {node.op} expects {op_arity(node.op)} children, got {len(node.children)}")
        for child in node.children:
            _compile_rhs(child, slot_of, program)
        program.append((_OP, op_id(node.op), len(node.children)))
    return program


def _run_rhs(egraph: EGraph, program: Sequence[Tuple], slots: Tuple[int, ...]) -> int:
    """Build an RHS program into the e-graph; returns the canonical class id.

    :func:`repro.egraph.pattern.instantiate` without the tree walk: an
    operator step builds its canonical hashcons key from the stack (children
    are canonical: nothing between two pushes unions) and hands it to
    :meth:`~repro.egraph.egraph.EGraph.add_key`, which probes the hashcons
    once and creates the row on a miss.
    """
    uf = egraph.union_find
    parent = uf.parent
    add_key = egraph.add_key
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    for tag, arg, arity in program:
        if tag == _SLOT:
            slot = slots[arg]
            push(slot if parent[slot] == slot else uf.find(slot))
        elif tag == _SYMBOL:
            push(egraph.var(arg))
        elif arity == 2:
            b = pop()
            push(add_key((arg, pop(), b)))
        elif arity == 1:
            push(add_key((arg, pop())))
        else:
            push(add_key((arg,)))
    return stack[-1]


class SaturationEngine:
    """Applies a rule set to an e-graph until a stopping condition is met."""

    def __init__(
        self,
        egraph: EGraph,
        rules: Sequence[Rewrite],
        limits: Optional[EngineLimits] = None,
        scheduler: Union[str, Scheduler, None] = None,
        dedup_matches: bool = True,
    ) -> None:
        self.egraph = egraph
        self.rules = list(rules)
        self.limits = limits or EngineLimits()
        self.scheduler = make_scheduler(scheduler)
        self.dedup_matches = dedup_matches
        self.matcher = BatchedMatcher(self.rules)
        self.profile: Optional[SaturationProfile] = None
        #: The last run's provenance log; None when no recorder was installed.
        self.provenance: Optional[obs_provenance.ProvenanceLog] = None
        self._seen: Set[MatchKey] = set()
        #: Per rule: its RHS program, and the getter putting slot values in
        #: sorted-name order for the dedup key (None when already sorted).
        self._programs: List[List[Tuple]] = []
        self._sorters: List[Optional[itemgetter]] = []
        for rule, names in zip(self.rules, self.matcher.names):
            slot_of = {name: slot for slot, name in enumerate(names)}
            self._programs.append(_compile_rhs(rule.rhs.root, slot_of, []))
            order = sorted(range(len(names)), key=names.__getitem__)
            self._sorters.append(None if order == list(range(len(names))) else itemgetter(*order))

    # -- internals -------------------------------------------------------------

    def _apply_rule(
        self,
        index: int,
        matches: List[SlotMatch],
        stats: RuleProfile,
        iteration: int = 0,
        log: Optional[obs_provenance.ProvenanceLog] = None,
    ) -> int:
        """Apply one rule's matches (with dedup); returns unions performed.

        With a ``log``, each applied match's new rows and union are recorded.
        """
        egraph = self.egraph
        uf = egraph.union_find
        parent = uf.parent
        rule = self.rules[index]
        name = rule.name
        names = self.matcher.names[index]
        condition = rule.condition
        program = self._programs[index]
        sorter = self._sorters[index]
        seen = self._seen if self.dedup_matches else None
        applied = 0
        for class_id, slots in matches:
            if seen is not None:
                # Slot values are find-canonical at search time; skipping
                # the re-canonicalization keeps key construction cheap.  A
                # key staled by a later union just misses the seen-set, and
                # re-instantiating an applied match is harmless (see module
                # docstring).
                key = (name, class_id, *(slots if sorter is None else sorter(slots)))
                if key in seen:
                    stats.matches_deduped += 1
                    continue
            if condition is not None and not condition(
                egraph, Match(class_id=class_id, substitution=dict(zip(names, slots)))
            ):
                continue
            if seen is not None:
                seen.add(key)
            rows = egraph.num_rows if log is not None else 0
            new_class = _run_rhs(egraph, program, slots)
            root = class_id if parent[class_id] == class_id else uf.find(class_id)
            if log is not None and egraph.num_rows != rows:
                digest = obs_provenance.subst_digest(dict(zip(names, slots)))
                log.add_nodes(egraph.rows_since(rows), name, iteration, root, digest)
            if new_class != root:
                merged = egraph.union(root, new_class)
                applied += 1
                if log is not None:
                    log.add_merges([(merged, new_class if merged == root else root)], name, iteration)
        return applied

    # -- the loop --------------------------------------------------------------

    def run(self) -> SaturationProfile:
        """Saturate until a limit trips; returns the run's telemetry profile."""
        limits = self.limits
        scheduler = self.scheduler
        egraph = self.egraph
        self._seen = set()  # dedup is per run: a re-run starts fresh
        matcher = self.matcher
        # Provenance rides the installed-recorder gate, same as tracing: when
        # no recorder is installed (the common case) the run builds no log.
        recorder = obs_provenance.current_recorder()
        log = None
        if recorder is not None:
            log = obs_provenance.ProvenanceLog()
            log.seed(egraph)
        self.provenance = log
        # Resource sampling rides the same installed-observer gate: with no
        # sampler (the common case) the run and its to_dict payload are
        # byte-identical to an unsampled build.  A sampled run's curve is
        # read off the e-graph's own counters.
        start_counts = (egraph.num_rows, egraph.num_classes) if obs_resource.sampling_enabled() else None
        curve: List[Dict[str, int]] = []
        rule_stats: Dict[str, RuleProfile] = {
            rule.name: RuleProfile(name=rule.name) for rule in self.rules
        }
        iterations: List[IterationReport] = []
        stop_reason = "iteration_limit"
        # Spans are the single timing source: every wall-clock figure in the
        # profile (rule search/apply, iteration phases, total) is the duration
        # of the span that scoped it, so a `--trace` export and the JSON
        # telemetry can never disagree.
        run_span = obs.span("saturate", category="engine", scheduler=scheduler.name)
        start = time.perf_counter()
        with run_span:
            for iteration in range(limits.max_iterations):
                iter_start = time.perf_counter()
                if iter_start - start > limits.time_limit:
                    stop_reason = "time_limit"
                    break
                report = IterationReport(iteration=iteration)
                with obs.span(f"iteration {iteration}", category="saturation.iteration") as iter_span:
                    # Phase 1: search every eligible rule against the
                    # frozen graph.  ``restricted`` notes that the
                    # scheduler held something back this iteration (a
                    # banned rule, backoff-truncated matches): a quiet
                    # iteration under scheduler restriction is not
                    # saturation.  The hard match_limit_per_rule cap is
                    # *not* a restriction — quiet under the cap saturated
                    # the legacy runner too.
                    searched: List[Tuple[int, List[SlotMatch]]] = []
                    restricted = False
                    with obs.span("search", category="saturation.phase") as search_span:
                        # One shared trie walk for every active rule.
                        # Ban accounting first, so banned rules' trie
                        # branches are pruned from the walk itself.
                        active: List[int] = []
                        for rule_index, rule in enumerate(self.rules):
                            stats = rule_stats[rule.name]
                            if not scheduler.can_search(iteration, rule.name):
                                stats.banned_iterations += 1
                                report.banned.append(rule.name)
                                restricted = True
                            else:
                                active.append(rule_index)
                        with obs.span("batched-match", category="saturation.search") as walk_span:
                            per_rule = matcher.search(egraph, active, limit=limits.match_limit_per_rule)
                        # The walk is shared, so its cost cannot be split
                        # honestly per rule: iteration-level search_time
                        # carries the timing and per-rule search_time
                        # stays zero.
                        walk_span.set("rules", len(active))
                        for rule_index in active:
                            rule = self.rules[rule_index]
                            stats = rule_stats[rule.name]
                            matches = per_rule.pop(rule_index)
                            allowed = scheduler.allowed_matches(iteration, rule.name, len(matches))
                            if allowed < len(matches):
                                matches = matches[:allowed]
                                stats.times_banned += 1
                                restricted = True
                            stats.matches_found += len(matches)
                            report.matches_found += len(matches)
                            searched.append((rule_index, matches))
                        search_span.set("matches", report.matches_found)
                    report.search_time = search_span.duration

                    # Phase 2: apply rule by rule; the node budget is
                    # checked between rules, and rules past the trip point
                    # are recorded as skipped instead of silently dropped
                    # from ``applied``.
                    total_applied = 0
                    budget_tripped = False
                    with obs.span("apply", category="saturation.phase") as apply_span:
                        for rule_index, matches in searched:
                            rule = self.rules[rule_index]
                            stats = rule_stats[rule.name]
                            if budget_tripped:
                                report.skipped.append(rule.name)
                                stats.skipped_iterations += 1
                                continue
                            with obs.span(rule.name, category="saturation.apply") as rule_span:
                                deduped_before = stats.matches_deduped
                                count = self._apply_rule(rule_index, matches, stats, iteration, log)
                            stats.apply_time += rule_span.duration
                            rule_span.set("applications", count)
                            stats.applications += count
                            report.matches_deduped += stats.matches_deduped - deduped_before
                            report.applied[rule.name] = count
                            total_applied += count
                            if egraph.num_nodes > limits.max_nodes:
                                budget_tripped = True
                        apply_span.set("applications", total_applied)
                    report.apply_time = apply_span.duration
                    # This iteration's matches die here, before the
                    # rebuild and the next search allocate theirs: two
                    # iterations' match lists never coexist.
                    searched = matches = None

                    with obs.span("rebuild", category="saturation.phase") as rebuild_span:
                        rebuild_span.set("dirty", len(egraph.worklist))
                        merges = egraph.rebuild()
                        rebuild_span.set("merges", len(merges))
                    if log is not None:
                        log.add_merges(merges, obs_provenance.REBUILD, -1)
                    report.rebuild_time = rebuild_span.duration

                    report.num_classes = egraph.num_classes
                    report.num_nodes = egraph.num_nodes
                    if start_counts is not None:
                        curve.append(obs_resource.growth_point(iteration, egraph, start_counts))
                    iter_span.set("classes", egraph.num_classes)
                    iter_span.set("nodes", egraph.num_nodes)
                    iter_span.set("applications", total_applied)
                report.elapsed = iter_span.duration
                iterations.append(report)

                if total_applied == 0 and not restricted:
                    stop_reason = "saturated"
                    break
                if egraph.num_nodes > limits.max_nodes:
                    stop_reason = "node_limit"
                    break
                if egraph.num_classes > limits.max_classes:
                    stop_reason = "class_limit"
                    break
                if time.perf_counter() - start > limits.time_limit:
                    stop_reason = "time_limit"
                    break
            run_span.set("stop_reason", stop_reason)
            run_span.set("iterations", len(iterations))
        self.profile = SaturationProfile(
            stop_reason=stop_reason,
            iterations=iterations,
            total_time=run_span.duration,
            rules=rule_stats,
            scheduler=scheduler.name,
            dedup=self.dedup_matches,
            resource=None if start_counts is None else obs_resource.run_sample(curve),
        )
        if log is not None:
            recorder.graft(log)
        metrics = obs_registry()
        metrics.counter("saturation_runs_total", "saturation engine runs").inc()
        metrics.counter("saturation_matches_total", "matches found across runs").inc(
            self.profile.total_matches
        )
        metrics.counter("saturation_applications_total", "unions performed across runs").inc(
            self.profile.total_applications
        )
        metrics.gauge("egraph_classes", "classes after the last saturation run").set(
            egraph.num_classes
        )
        metrics.gauge("egraph_nodes", "e-nodes after the last saturation run").set(egraph.num_nodes)
        return self.profile


def saturate_engine(
    egraph: EGraph,
    rules: Sequence[Rewrite],
    limits: Optional[EngineLimits] = None,
    scheduler: Union[str, Scheduler, None] = None,
    dedup_matches: bool = True,
) -> SaturationProfile:
    """One-call helper: build a :class:`SaturationEngine` and run it.

    ``scheduler="simple", dedup_matches=False`` is the parity configuration:
    byte-for-byte the pre-engine runner loop.
    """
    return SaturationEngine(
        egraph,
        rules,
        limits=limits,
        scheduler=scheduler,
        dedup_matches=dedup_matches,
    ).run()
