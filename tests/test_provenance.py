"""Tests of the provenance layer: the gated recorder, rule attribution, the
derivation exporters, cross-process grafting (partition windows and
orchestrate jobs), the provenance-off parity guard, and the metrics-isolation
contract for forked workers."""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.benchgen import control, epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.egraph import EGraph
from repro.egraph.language import AND, NOT, OR
from repro.egraph.rewrite import Rewrite
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import DepthCost
from repro.extraction.greedy import greedy_extract
from repro.obs.export import to_derivation_dot, to_derivation_json, write_derivation_json
from repro.obs.metrics import MetricsRegistry, registry, reset_registry
from repro.obs.provenance import (
    ORIGINAL,
    REBUILD,
    ProvenanceLog,
    RuleAttribution,
    attribute_extraction,
    current_recorder,
    recording,
    recording_enabled,
    subst_digest,
)
from repro.obs.trace import tracing
from repro.partition import PartitionConfig, partitioned_optimize
from repro.pipeline import Pipeline

LIMITS = EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=30.0)
FIXTURES = Path(__file__).parent / "fixtures"

#: The flows pinned in ``tests/fixtures/provenance_derivation.json``, on test
#: ``mem_ctrl``: one monolithic saturation, and one partitioned flow on a
#: two-process pool whose records all carry their window's stamp.
PINNED_FLOWS = (
    "st; dag2eg; saturate(iters=1); extract(greedy)",
    "st; partition(k=30, workers=2); saturate(iters=1, max_nodes=2000); extract(greedy); stitch",
)


def pinned_derivations():
    """Each pinned flow's derivation JSON (pids zeroed) and attribution."""
    aig = epfl.build("mem_ctrl", preset="test")
    flows = []
    for script in PINNED_FLOWS:
        with recording() as log:
            result = Pipeline.from_script(script).run_flow(aig)
        derivation = to_derivation_json(log)
        for record in derivation["nodes"] + derivation["merges"]:
            record["pid"] = 0
        flows.append(
            {"script": script, "derivation": derivation, "attribution": result.attribution.to_dict()}
        )
    return {"circuit": "mem_ctrl", "preset": "test", "flows": flows}


def _circuit(seed: int = 3):
    aig = control.random_control(num_inputs=8, num_outputs=4, terms_per_output=3, seed=seed)
    return aig, aig_to_egraph(aig)


def _saturate(circuit):
    return SaturationEngine(circuit.egraph, boolean_rules(), LIMITS).run()


# --------------------------------------------------------------------------
# The recorder gate (tracer-off idiom).


class TestRecorderGate:
    def test_off_by_default(self):
        _, circuit = _circuit()
        assert not recording_enabled()
        assert current_recorder() is None
        engine = SaturationEngine(circuit.egraph, boolean_rules(), LIMITS)
        engine.run()
        # No recorder installed: the run builds no log at all.
        assert engine.provenance is None

    def test_recording_scopes_and_restores(self):
        assert not recording_enabled()
        with recording() as outer:
            assert current_recorder() is outer
            with recording() as inner:
                assert current_recorder() is inner
            assert current_recorder() is outer
        assert not recording_enabled()

    def test_engine_grafts_its_own_log(self):
        _, circuit = _circuit()
        engine = SaturationEngine(circuit.egraph, boolean_rules(), LIMITS)
        with recording() as log:
            engine.run()
        # The run's own log is grafted as it is: the installed recorder holds
        # the same record objects, in the same order.
        assert len(log.nodes) > 0
        assert len(log.merges) > 0
        for mine, installed in ((engine.provenance.nodes, log.nodes), (engine.provenance.merges, log.merges)):
            assert len(mine) == len(installed)
            assert all(a is b for a, b in zip(mine, installed))


# --------------------------------------------------------------------------
# Records.


class TestRecords:
    def test_seed_and_rule_tagging(self):
        _, circuit = _circuit()
        seed_nodes = circuit.egraph.num_nodes
        with recording() as log:
            _saturate(circuit)
        originals = [r for r in log.nodes if r.rule == ORIGINAL]
        derived = [r for r in log.nodes if r.rule != ORIGINAL]
        # Every pre-existing e-node is seed-tagged before observation starts.
        assert len(originals) == seed_nodes
        assert all(r.iteration == -1 and r.subst is None for r in originals)
        assert derived, "saturation created no rule-tagged nodes"
        rule_names = {rule.name for rule in boolean_rules()}
        assert all(r.rule in rule_names for r in derived)
        assert all(r.iteration >= 0 and r.subst is not None for r in derived)
        assert all(r.pid > 0 for r in log.nodes)

    def test_merges_are_the_runs_unions(self):
        # One merge per applied match under its rule and iteration, then one
        # per pair ``rebuild`` returned, tagged ``rebuild`` at iteration -1.
        _, circuit = _circuit()
        with tracing() as tracer, recording() as log:
            profile = _saturate(circuit)
        rebuilt = sum(r.args["merges"] for r in tracer.records if r.name == "rebuild")
        by_rules = [m for m in log.merges if m.rule != REBUILD]
        by_rebuild = [m for m in log.merges if m.rule == REBUILD]
        assert rebuilt > 0 and len(by_rebuild) == rebuilt
        assert all(m.iteration == -1 for m in by_rebuild)
        assert len(by_rules) == profile.total_applications
        assert all(m.iteration >= 0 for m in by_rules)

    def test_a_match_merged_away_earlier_in_the_phase_records_its_root(self):
        # and-to-or merges the AND class into the larger OR/NOT class before
        # and-comm applies its match on the AND class: and-comm's new node and
        # union are recorded against the root it applied under.
        egraph = EGraph()
        a, b = egraph.var("a"), egraph.var("b")
        x = egraph.add_term(AND, [a, b])
        y = egraph.union(egraph.add_term(OR, [a, b]), egraph.add_term(NOT, [a]))
        egraph.rebuild()
        rules = [
            Rewrite.from_strings("and-to-or", "(AND ?a ?b)", "(OR ?a ?b)"),
            Rewrite.from_strings("and-comm", "(AND ?a ?b)", "(AND ?b ?a)"),
        ]
        with recording() as log:
            SaturationEngine(egraph, rules, EngineLimits(max_iterations=1), scheduler="simple").run()
        new = egraph.num_rows - 1
        derived = [
            (r.class_id, r.op, r.children, r.rule, r.iteration, r.matched_class)
            for r in log.nodes
            if r.rule != ORIGINAL
        ]
        assert derived == [(new, AND, (b, a), "and-comm", 0, y)]
        merges = [(m.root, m.other, m.rule, m.iteration) for m in log.merges]
        assert merges == [(y, x, "and-to-or", 0), (y, new, "and-comm", 0)]

    def test_subst_digest_is_order_insensitive_and_stable(self):
        a = subst_digest({"x": 3, "y": 7})
        b = subst_digest({"y": 7, "x": 3})
        assert a == b
        assert len(a) == 8 and int(a, 16) >= 0
        assert subst_digest({"x": 4, "y": 7}) != a

    def test_stamp_keeps_existing_tags_and_reaches_grafts(self):
        _, circuit = _circuit()
        with recording() as log:
            _saturate(circuit)
        # A tag a record already carries survives the stamp (setdefault).
        log.nodes[0].extra["window"] = 0
        log.merges[0].extra["window"] = 0
        grafted = ProvenanceLog()
        grafted.graft(log)
        log.stamp(window=5)
        # A graft shares the record objects, so the stamp reaches it too.
        assert grafted.nodes == log.nodes and grafted.merges == log.merges
        assert grafted.nodes[0].extra["window"] == 0
        assert grafted.merges[0].extra["window"] == 0
        assert {r.extra["window"] for r in grafted.nodes[1:] + grafted.merges[1:]} == {5}


# --------------------------------------------------------------------------
# Attribution.


class TestAttribution:
    def _attributed(self):
        aig, circuit = _circuit()
        with recording() as log:
            profile = _saturate(circuit)
        extraction = greedy_extract(circuit.egraph, cost=DepthCost())
        report = attribute_extraction(circuit, extraction, log, profile=profile)
        return aig, report

    def test_sum_invariant(self):
        # Per-rule surviving AND counts sum to the extraction's non-original
        # AND count — the acceptance identity of the rule-yield table.
        _, report = self._attributed()
        derived = sum(
            y.surviving_ands for name, y in report.rules.items() if name != ORIGINAL
        )
        assert derived == report.total_ands - report.original_ands
        assert derived == report.derived_ands
        nodes = sum(y.surviving_nodes for y in report.rules.values())
        assert nodes == report.total_nodes
        assert report.original_nodes == report.rules[ORIGINAL].surviving_nodes

    def test_matches_funnel_from_profile(self):
        _, report = self._attributed()
        fired = [y for y in report.rule_yields() if y.applications > 0]
        assert fired, "no rule applied at all"
        assert all(y.matches >= y.applications for y in fired)

    def test_render_mentions_rules_and_totals(self):
        _, report = self._attributed()
        text = report.render()
        assert "rule yield" in text
        assert ORIGINAL in text
        assert f"{report.total_ands} ands" in text

    def test_payload_and_aggregate(self):
        _, report = self._attributed()
        payload = report.to_dict()
        assert payload["schema"] == 1
        doubled = RuleAttribution.aggregate([report, report])
        assert doubled.windows == 2
        assert doubled.total_ands == 2 * report.total_ands
        assert doubled.derived_ands == 2 * report.derived_ands
        # The parts are summed into a fresh report, never into each other.
        assert report.to_dict() == payload


# --------------------------------------------------------------------------
# Pipeline integration: the parity guard and the embedded attribution.

SCRIPT = "st; dag2eg; saturate(iters=2, max_nodes=4000); extract(greedy); cec"


def _zero_floats(value):
    if isinstance(value, float):
        return 0.0
    if isinstance(value, dict):
        return {k: _zero_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_zero_floats(v) for v in value]
    return value


def _comparable(result) -> str:
    """A result's payload with attribution-only keys and timing stripped."""
    data = result.to_dict()
    data.pop("attribution", None)
    data.get("metrics", {}).pop("attribution_derived_ands", None)
    return json.dumps(_zero_floats(data), sort_keys=True)


class TestPipelineParity:
    def test_provenance_off_is_byte_identical_and_on_changes_no_qor(self):
        aig, _ = _circuit(seed=11)
        off_a = Pipeline.from_script(SCRIPT).run_flow(aig)
        off_b = Pipeline.from_script(SCRIPT).run_flow(aig)
        with recording():
            on = Pipeline.from_script(SCRIPT).run_flow(aig)
        # Off runs are deterministic, and recording perturbs nothing but the
        # attribution surface itself.
        assert _comparable(off_a) == _comparable(off_b)
        assert _comparable(on) == _comparable(off_a)
        assert off_a.attribution is None
        assert on.attribution is not None
        assert on.aig.stats() == off_a.aig.stats()

    def test_result_embeds_attribution_and_outer_recorder_gets_buffer(self):
        aig, _ = _circuit(seed=11)
        with recording() as outer:
            result = Pipeline.from_script(SCRIPT).run_flow(aig)
        report = result.attribution
        assert report is not None
        assert result.to_dict()["attribution"]["total_ands"] == report.total_ands
        assert result.metrics["attribution_derived_ands"] == report.derived_ands
        # The saturation run grafts its own log into ours.
        assert len(outer.nodes) > 0

    def test_in_process_graft_equals_the_pickle_round_trip(self, monkeypatch):
        # The saturation run moves its own log's records into the outer
        # log; grafting a pickled copy, as a pool ships it, logs the same.
        aig = epfl.build("hyp", preset="test")
        script = "st; dag2eg; saturate(iters=3, max_nodes=8000); extract(greedy)"
        with recording() as grafted:
            Pipeline.from_script(script).run_flow(aig)
        graft = ProvenanceLog.graft
        monkeypatch.setattr(
            ProvenanceLog,
            "graft",
            lambda self, other: graft(self, pickle.loads(pickle.dumps(other))),
        )
        with recording() as round_trip:
            Pipeline.from_script(script).run_flow(aig)
        assert len(grafted.nodes) + len(grafted.merges) > 10_000
        assert grafted.export() == round_trip.export()


    @pytest.mark.parametrize("name", ["adder", "sqrt", "mem_ctrl"])
    def test_dag2eg_drops_the_previous_egraphs_log(self, name):
        # A second e-graph used to be attributed through the first one's log
        # and rule table (test-preset adder: 79/79/0 ANDs instead of 48/31/17).
        aig = epfl.build(name, preset="test")
        prefix = "st; dag2eg; saturate(iters=2); extract(greedy)"
        with recording():
            first = Pipeline.from_script(prefix).run_flow(aig)
            again = Pipeline.from_script(f"{prefix}; dag2eg; extract(greedy)").run_flow(aig)
        assert first.attribution is not None
        assert again.attribution.to_dict() == first.attribution.to_dict()


class TestPinnedDerivation:
    def test_derivations_match_the_fixture(self):
        # tests/fixtures/provenance_derivation.json: every record of both
        # pinned flows, in order, window stamps included, and each flow's
        # attribution (288 nodes and 118 merges, then 298 and 115).
        pinned = json.loads((FIXTURES / "provenance_derivation.json").read_text())
        assert pinned_derivations() == pinned


# --------------------------------------------------------------------------
# Partitioned runs: per-window attribution, pool == inline.


@pytest.fixture(scope="module")
def log2_test():
    return epfl.build("log2", preset="test")


class TestPartitionProvenance:
    WINDOW = (
        ("saturate", {"iters": 2, "max_nodes": 2_500}),
        ("extract", {"method": "sa", "threads": 2, "iters": 1, "moves": 4}),
    )

    def _run(self, aig, workers):
        with recording() as log:
            outcome = partitioned_optimize(
                aig, PartitionConfig(k=60, workers=workers), self.WINDOW
            )
        return outcome, log

    def test_pool_matches_inline_modulo_pid(self, log2_test):
        inline, inline_log = self._run(log2_test, workers=0)
        pooled, pooled_log = self._run(log2_test, workers=2)
        assert inline.aig.stats() == pooled.aig.stats()
        # Attribution payloads carry no pids: they must be exactly equal.
        assert inline.profile.rule_attribution == pooled.profile.rule_attribution
        attrs = lambda o: [r.attribution for r in o.profile.windows]
        assert attrs(inline) == attrs(pooled)
        # The grafted logs agree record for record, in order and window stamps
        # included, modulo the recording pid.
        strip = lambda records: [
            {k: v for k, v in r.to_dict().items() if k != "pid"} for r in records
        ]
        assert strip(inline_log.nodes) == strip(pooled_log.nodes)
        assert strip(inline_log.merges) == strip(pooled_log.merges)

    def test_windows_stamped_and_aggregated_over_accepted(self, log2_test):
        outcome, log = self._run(log2_test, workers=0)
        windows = {r.extra.get("window") for r in log.nodes}
        assert windows == set(range(outcome.profile.num_windows))
        agg = outcome.profile.rule_attribution
        accepted = [r for r in outcome.profile.windows if r.accepted]
        assert all(
            r.attribution is not None
            for r in outcome.profile.windows
            if r.status != "failed"
        )
        if accepted:
            assert agg is not None
            assert agg.windows == len(accepted)
            assert agg.total_ands == sum(r.attribution.total_ands for r in accepted)
            # Objects until the payload: to_dict emits each one's own to_dict.
            payload = outcome.profile.to_dict()
            assert payload["rule_attribution"] == agg.to_dict()
            assert [w["attribution"] for w in payload["windows"]] == [
                None if r.attribution is None else r.attribution.to_dict()
                for r in outcome.profile.windows
            ]


# --------------------------------------------------------------------------
# Metrics isolation: fresh worker registries, counters shipped and merged.


class TestMetricsIsolation:
    def setup_method(self):
        reset_registry()

    def test_graft_sums_counters_and_keeps_the_last_gauge(self):
        reg = reset_registry()
        reg.counter("demo_total", "demo").inc(3)
        reg.gauge("demo_gauge", "demo").set(2.5)
        later = MetricsRegistry()
        later.gauge("demo_gauge").set(1.5)
        fresh = reset_registry()
        fresh.graft(pickle.loads(pickle.dumps(reg)))
        fresh.graft(reg)
        fresh.graft(later)
        assert fresh.counter("demo_total").value == 6
        assert fresh.gauge("demo_gauge").value == 1.5
        assert "# HELP demo_total demo" in fresh.exposition()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_partition_pool_counts_once(self, log2_test, workers):
        # Regression guard against double-counting: a forked window worker
        # starts from a fresh registry and ships exactly its own deltas, so
        # the parent sees one saturation run per window — same as inline.
        reset_registry()
        outcome = partitioned_optimize(
            log2_test,
            PartitionConfig(k=60, workers=workers),
            TestPartitionProvenance.WINDOW,
        )
        runs = registry().counter("saturation_runs_total", "saturation engine runs")
        assert runs.value == outcome.profile.num_windows


# --------------------------------------------------------------------------
# Orchestrate: job-local recorders, grafted at the campaign barrier.


class TestOrchestrateShipping:
    def setup_method(self):
        reset_registry()

    def _jobs(self):
        from repro.orchestrate import make_pipeline_job

        pipeline = Pipeline.from_script(SCRIPT)
        return [
            make_pipeline_job(name, pipeline, preset="test", tag="pipeline")
            for name in ("adder", "square")
        ]

    def test_run_job_ships_observers(self):
        from repro.orchestrate.jobs import run_job

        spec = self._jobs()[0]
        record = run_job(spec, observers=frozenset({"provenance"}))
        assert record["obs"]["provenance"].nodes
        assert record["result"]["attribution"] is not None
        assert "saturation_runs_total" in record["obs"]["metrics"].snapshot()

    def test_campaign_pool_merges_provenance_and_metrics(self, tmp_path):
        from repro.orchestrate import run_campaign

        jobs = self._jobs()
        with recording() as log:
            report = run_campaign(
                jobs, store=str(tmp_path), max_workers=2, progress=None, use_cache=False
            )
        assert report.ok
        assert len(log.nodes) > 0
        pids = {r.pid for r in log.nodes}
        assert len(pids) >= 1
        # Counters shipped back: one saturation run per job, no double count.
        runs = registry().counter("saturation_runs_total", "saturation engine runs")
        assert runs.value == len(jobs)
        # The stored records are buffer-free.
        for outcome in report.outcomes:
            assert "provenance" not in outcome.record
            assert "metrics" not in outcome.record
            assert outcome.record["result"]["attribution"] is not None


# --------------------------------------------------------------------------
# Derivation exporters.


class TestDerivationExports:
    def _log(self):
        _, circuit = _circuit()
        with recording() as log:
            _saturate(circuit)
        return log

    def test_json_payload_and_file(self, tmp_path):
        log = self._log()
        payload = to_derivation_json(log)
        assert payload["schema"] == 1
        assert len(payload["nodes"]) == len(log.nodes)
        assert len(payload["merges"]) == len(log.merges)
        path = tmp_path / "derivation.json"
        write_derivation_json(log, str(path))
        assert json.loads(path.read_text())["schema"] == 1

    def test_dot_shape_and_truncation(self):
        log = self._log()
        dot = to_derivation_dot(log)
        assert dot.startswith("digraph derivation {")
        assert dot.rstrip().endswith("}")
        assert "->" in dot and "lightgrey" in dot
        capped = to_derivation_dot(log, max_edges=1)
        assert "truncated" in capped


# --------------------------------------------------------------------------
# CLI: emorphic explain.


class TestExplainCli:
    def test_explain_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "explain.json"
        out_prov = tmp_path / "derivation.json"
        out_prom = tmp_path / "metrics.prom"
        rc = main(
            [
                "explain",
                "st; dag2eg; saturate(iters=2, max_nodes=3000); extract(greedy); cec",
                "-c",
                "adder",
                "--preset",
                "test",
                "--json",
                str(out_json),
                "--provenance",
                str(out_prov),
                "--metrics",
                str(out_prom),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "rule yield" in text
        assert "equivalence check: equivalent" in text
        payload = json.loads(out_json.read_text())
        attribution = payload["attribution"]
        assert attribution["schema"] == 1
        derived = sum(
            y["surviving_ands"]
            for name, y in attribution["rules"].items()
            if name != ORIGINAL
        )
        assert derived == attribution["total_ands"] - attribution["original_ands"]
        assert json.loads(out_prov.read_text())["nodes"]
        assert "saturation_runs_total" in out_prom.read_text()
