"""Tests of the observability layer: spans, metrics, exporters, logging,
progress rendering, and the engine/profile integration contracts."""

from __future__ import annotations

import json
import logging
import pickle
from pathlib import Path

import pytest

from repro.benchgen import control
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.engine import PortfolioConfig, portfolio_extract
from repro.obs import (
    CampaignProgress,
    Tracer,
    configure_logging,
    get_logger,
    prometheus_text,
    registry,
    reset_registry,
    span_summary,
    to_chrome_trace,
    to_folded_stacks,
    tracing,
)
from repro.obs import trace as obs
from repro.obs.log import verbosity_level
from repro.obs.trace import SpanRecord

FIXTURES = Path(__file__).parent / "fixtures"


# --------------------------------------------------------------------------
# Spans and tracers.


class TestSpans:
    def test_span_times_without_tracer(self):
        # No tracer installed: span still measures, records nothing.
        assert not obs.tracing_enabled()
        with obs.span("lonely") as sp:
            pass
        assert sp.duration >= 0.0

    def test_nesting_and_ordering(self):
        with tracing() as tracer:
            with obs.span("root", category="a"):
                with obs.span("child1", category="b"):
                    pass
                with obs.span("child2", category="b"):
                    obs.instant("marker", category="i", note=1)
        by_name = {r.name: r for r in tracer.records}
        assert by_name["child1"].parent_id == by_name["root"].span_id
        assert by_name["child2"].parent_id == by_name["root"].span_id
        assert by_name["marker"].parent_id == by_name["child2"].span_id
        assert by_name["marker"].duration is None
        # Records are appended at span *finish*: children close before roots.
        assert [r.name for r in tracer.records] == ["child1", "marker", "child2", "root"]
        # The tree re-orders by start time.
        roots = tracer.tree()
        assert [n["record"].name for n in roots] == ["root"]
        assert [c["record"].name for c in roots[0]["children"]] == ["child1", "child2"]

    def test_span_counters_and_args(self):
        with tracing() as tracer:
            with obs.span("work", category="c", static="x") as sp:
                sp.add("hits")
                sp.add("hits", 2)
                sp.set("size", 7)
        (record,) = tracer.records
        assert record.args == {"static": "x", "hits": 3, "size": 7}

    def test_exception_closes_span(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with obs.span("outer"):
                    with obs.span("inner"):
                        raise ValueError("boom")
        assert [r.name for r in tracer.records] == ["inner", "outer"]
        assert all(r.duration is not None for r in tracer.records)
        assert tracer._stack == []

    def test_nested_tracing_restores_previous(self):
        with tracing() as outer:
            with obs.span("outer-span"):
                pass
            with tracing() as inner:
                with obs.span("inner-span"):
                    pass
            assert obs.current_tracer() is outer
        assert obs.current_tracer() is None
        assert [r.name for r in outer.records] == ["outer-span"]
        assert [r.name for r in inner.records] == ["inner-span"]

    def test_self_time(self):
        tracer = Tracer()
        tracer.records = [
            SpanRecord(0, None, "root", "c", 0.0, 1.0, 1, {}),
            SpanRecord(1, 0, "child", "c", 0.1, 0.4, 1, {}),
        ]
        (root,) = tracer.tree()
        assert root["self_time"] == pytest.approx(0.6)
        text = tracer.format_tree()
        assert "root" in text and "child" in text


class TestGraft:
    def test_graft_reparents_and_rebases(self):
        worker = Tracer()
        with obs.Span("wrk", category="w", tracer=worker):
            pass
        worker_start = worker.records[0].start
        parent = Tracer()
        with obs.Span("barrier", category="b", tracer=parent) as barrier:
            parent.graft(worker)
        barrier_rec = next(r for r in parent.records if r.name == "barrier")
        grafted = next(r for r in parent.records if r.name == "wrk")
        # The worker's root span hangs under the open span, its start shifted
        # to the open span's start.
        assert grafted.parent_id == barrier_rec.span_id
        assert grafted.start == pytest.approx(barrier._t0 - parent.epoch + worker_start)
        # ids were remapped into the parent's id space (no collisions).
        assert len({r.span_id for r in parent.records}) == len(parent.records)

    def test_graft_keeps_nested_worker_spans_under_their_parent(self):
        # Records are in finish order (child before parent); the child must
        # still land under its own parent, not under the barrier.
        worker = Tracer()
        with obs.Span("job", category="w", tracer=worker):
            with obs.Span("pass", category="w", tracer=worker):
                pass
        parent = Tracer()
        with obs.Span("barrier", category="b", tracer=parent):
            parent.graft(worker)
        by_name = {r.name: r for r in parent.records}
        assert by_name["job"].parent_id == by_name["barrier"].span_id
        assert by_name["pass"].parent_id == by_name["job"].span_id
        (root,) = parent.tree()
        assert [c["record"].name for c in root["children"]] == ["job"]
        assert [c["record"].name for c in root["children"][0]["children"]] == ["pass"]

    def test_pickled_tracer_grafts_like_the_original(self):
        with tracing() as tracer:
            with obs.span("a", category="x", k=1):
                obs.instant("i", category="y")
        back = pickle.loads(pickle.dumps(tracer))
        parent = Tracer()
        parent.graft(back)
        assert [(r.name, r.category, r.args, r.duration is None) for r in parent.records] == [
            ("i", "y", {}, True),
            ("a", "x", {"k": 1}, False),
        ]


def _walk_records(nodes):
    for node in nodes:
        yield node["record"]
        yield from _walk_records(node["children"])


class TestPartitionedSpanSummary:
    def test_span_summary_over_merged_multi_pid_trace(self):
        # A partitioned workers=2 run grafts worker tracers at the
        # barrier; span_summary must digest the multi-pid trace exactly like
        # the inline single-pid one (categories and counts, not timings).
        from repro.benchgen import epfl
        from repro.partition import PartitionConfig, partitioned_optimize

        aig = epfl.build("log2", preset="test")
        window = (
            ("saturate", {"iters": 2, "max_nodes": 2_500}),
            ("extract", {"method": "sa", "threads": 2, "iters": 1, "moves": 4}),
        )

        def run(workers):
            with tracing() as tracer:
                partitioned_optimize(aig, PartitionConfig(k=60, workers=workers), window)
            return tracer

        inline, pooled = run(0), run(2)
        pids = {r.pid for r in pooled.records if r.category == "partition.window"}
        assert len(pids) >= 1  # window spans recorded in workers, pid-tagged
        inline_summary, pooled_summary = span_summary(inline), span_summary(pooled)
        assert set(inline_summary) == set(pooled_summary)
        assert "partition.window" in pooled_summary
        num_windows = pooled_summary["partition.window"]["count"]
        assert inline_summary["partition.window"]["count"] == num_windows
        for category, bucket in pooled_summary.items():
            assert bucket["count"] == inline_summary[category]["count"]
            assert bucket["total"] >= 0.0


class TestMapSpans:
    @pytest.mark.parametrize(
        "script",
        [
            "st; map(use_choices=true)",
            "st; dag2eg; saturate(iters=1); extract(sa, threads=2, iters=1, moves=2); "
            "map(use_choices=true)",
        ],
        ids=["single", "candidates"],
    )
    def test_map_records_cleanup_choices_cover_per_candidate(self, script):
        from repro.benchgen import epfl
        from repro.pipeline import Pipeline

        with tracing() as tracer:
            ctx = Pipeline.from_script(script).run_flow(epfl.build("adder", preset="test"))
        (map_span,) = [r for r in tracer.records if r.name == "map" and r.category == "pass"]
        spans = [r for r in tracer.records if r.category == "mapping"]
        assert all(r.parent_id == map_span.span_id for r in spans)
        candidates = max(1, int(ctx.metrics.get("num_candidates", 0)))
        assert [(r.name, r.args["candidate"]) for r in spans] == [
            (name, index)
            for index in range(candidates)
            for name in ("map cleanup", "map choices", "map cover")
        ]
        choices = [r for r in spans if r.name == "map choices"]
        assert all(r.duration > 0.0 for r in choices)
        # The spans carry their work counts: SAT pairs and conflicts for
        # choices, nodes and distinct priced cuts for the cover.
        for record in choices:
            assert 0 < record.args["pairs_proved"] <= record.args["pairs_tried"]
            assert record.args["conflicts"] >= 0
        for record in (r for r in spans if r.name == "map cover"):
            assert record.args["nodes_evaluated"] > 0
            assert record.args["cuts_priced"] >= record.args["nodes_evaluated"]


# --------------------------------------------------------------------------
# Metrics.


class TestMetrics:
    def setup_method(self):
        reset_registry()

    def test_counter_aggregation(self):
        reg = registry()
        reg.counter("events_total", "help").inc()
        reg.counter("events_total").inc(4)
        assert reg.counter("events_total").value == 5
        with pytest.raises(ValueError):
            reg.counter("events_total").inc(-1)

    def test_labeled_series_are_distinct(self):
        reg = registry()
        reg.counter("runs_total", circuit="adder").inc()
        reg.counter("runs_total", circuit="sin").inc(2)
        assert reg.counter("runs_total", circuit="adder").value == 1
        assert reg.counter("runs_total", circuit="sin").value == 2

    def test_gauge(self):
        reg = registry()
        gauge = reg.gauge("depth", "levels")
        gauge.set(11)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 12

    def test_prometheus_exposition(self):
        reg = registry()
        reg.counter("saturation.runs", "total runs").inc(3)
        reg.gauge("egraph_nodes", "node count").set(42)
        text = prometheus_text(reg)
        assert "# HELP saturation_runs total runs" in text
        assert "# TYPE saturation_runs counter" in text
        assert "saturation_runs 3" in text
        assert "egraph_nodes 42" in text

    def test_engine_publishes_metrics(self):
        aig = control.random_control(num_inputs=6, num_outputs=3, terms_per_output=3, seed=5)
        circuit = aig_to_egraph(aig)
        SaturationEngine(
            circuit.egraph, boolean_rules(), EngineLimits(max_iterations=1, max_nodes=2_000)
        ).run()
        snap = registry().snapshot()
        assert snap["saturation_runs_total"] == 1
        assert snap["saturation_matches_total"] > 0
        assert "egraph_nodes" in snap


# --------------------------------------------------------------------------
# Exporters.


def _golden_tracer() -> Tracer:
    """A synthetic fixed trace (no real clocks) for byte-stable exports."""
    tracer = Tracer()
    tracer.records = [
        SpanRecord(0, None, "pipeline", "flow", 0.0, 0.01, 1000, {"script": "st; map"}),
        SpanRecord(1, 0, "strash", "pass", 0.0005, 0.002, 1000, {}),
        SpanRecord(2, 0, "map", "pass", 0.003, 0.0065, 1000, {"gates": 12}),
        SpanRecord(3, 2, "migration", "extraction.migration", 0.004, None, 1001, {"round": 1}),
    ]
    return tracer


class TestExporters:
    def test_chrome_trace_golden(self):
        payload = to_chrome_trace(_golden_tracer())
        golden = json.loads((FIXTURES / "chrome_trace_golden.json").read_text())
        assert payload == golden

    def test_chrome_trace_is_loadable_structure(self):
        payload = to_chrome_trace(_golden_tracer())
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 3 and len(instants) == 1
        assert all(e["dur"] >= 0 for e in complete)
        assert instants[0]["s"] == "t"

    def test_folded_stacks(self):
        text = to_folded_stacks(_golden_tracer())
        lines = dict(line.rsplit(" ", 1) for line in text.strip().splitlines())
        # self(pipeline) = 10000us - 2000 - 6500 = 1500us
        assert lines["pipeline"] == "1500"
        assert lines["pipeline;strash"] == "2000"
        assert lines["pipeline;map"] == "6500"

    def test_span_summary(self):
        summary = span_summary(_golden_tracer())
        assert summary["pass"] == {"count": 2, "total": pytest.approx(0.0085)}
        assert summary["extraction.migration"]["count"] == 1
        assert summary["extraction.migration"]["total"] == 0.0


# --------------------------------------------------------------------------
# Profiles are populated from spans: to_dict stays byte-compatible.


def _zero_floats(value):
    """Replace every float with 0.0 so fixtures pin structure, not timing."""
    if isinstance(value, float):
        return 0.0
    if isinstance(value, dict):
        return {k: _zero_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_zero_floats(v) for v in value]
    return value


def _canonical(payload) -> str:
    return json.dumps(_zero_floats(payload), sort_keys=True, indent=1)


class TestProfileByteCompat:
    def _circuit(self):
        aig = control.random_control(num_inputs=8, num_outputs=4, terms_per_output=3, seed=11)
        return aig_to_egraph(aig)

    def test_saturation_profile_to_dict(self):
        circuit = self._circuit()
        profile = SaturationEngine(
            circuit.egraph,
            boolean_rules(),
            EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=30.0),
            scheduler="backoff",
        ).run()
        expected = (FIXTURES / "saturation_profile.json").read_text()
        assert _canonical(profile.to_dict()) == expected

    def test_extraction_profile_to_dict(self):
        circuit = self._circuit()
        SaturationEngine(
            circuit.egraph,
            boolean_rules(),
            EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=30.0),
        ).run()
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            config=PortfolioConfig(chains=2, move_budget=32, migrate_every=16, seed=7),
        )
        expected = (FIXTURES / "extraction_profile.json").read_text()
        assert _canonical(result.profile.to_dict()) == expected


# --------------------------------------------------------------------------
# Logging.


class TestLogging:
    def teardown_method(self):
        # Leave no handlers behind for other tests.
        logger = get_logger()
        for handler in list(logger.handlers):
            logger.removeHandler(handler)

    def test_verbosity_levels(self):
        assert verbosity_level(0, False) == logging.INFO
        assert verbosity_level(2, False) == logging.DEBUG
        assert verbosity_level(2, True) == logging.WARNING

    def test_console_format(self, capsys):
        configure_logging()
        get_logger("test").info("hello there")
        get_logger("test").warning("watch out")
        out = capsys.readouterr().out
        assert "hello there" in out
        assert "warning: watch out" in out

    def test_json_format(self, capsys):
        configure_logging(fmt="json")
        get_logger("test").info("an event", extra={"circuit": "adder", "n": 3})
        line = capsys.readouterr().out.strip()
        payload = json.loads(line)
        assert payload["event"] == "an event"
        assert payload["level"] == "info"
        assert payload["circuit"] == "adder" and payload["n"] == 3

    def test_quiet_drops_info(self, capsys):
        configure_logging(quiet=True)
        get_logger("test").info("silent")
        get_logger("test").error("loud")
        out = capsys.readouterr().out
        assert "silent" not in out and "loud" in out

    def test_reconfigure_does_not_stack_handlers(self):
        configure_logging()
        configure_logging()
        assert len(get_logger().handlers) == 1

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(fmt="xml")


# --------------------------------------------------------------------------
# Campaign progress rendering.


class _FakeStream:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    @property
    def text(self):
        return "".join(self.chunks)


class TestCampaignProgress:
    EVENTS = [
        {"type": "campaign_start", "total": 2, "workers": 2},
        {"type": "job_cached", "index": 0, "label": "baseline:adder", "key": "abcd1234ef", "status": "cached"},
        {"type": "job_start", "index": 1, "label": "emorphic:adder", "key": "1234abcd99"},
        {
            "type": "job_finish",
            "index": 1,
            "label": "emorphic:adder",
            "key": "1234abcd99",
            "status": "completed",
            "elapsed": 2.5,
        },
        {"type": "campaign_done", "counts": {"completed": 1, "cached": 1}, "wall_time": 2.6},
    ]

    def test_plain_rendering(self):
        stream = _FakeStream()
        progress = CampaignProgress(stream=stream, live=False)
        for event in self.EVENTS:
            progress.handle(event)
        text = stream.text
        assert "campaign: 2 jobs, 2 workers" in text
        assert "baseline:adder abcd1234 hit" in text
        assert "start  emorphic:adder" in text
        assert "emorphic:adder 1234abcd ok in 2.5s" in text
        assert "campaign done (cached: 1, completed: 1) in 2.6s" in text

    def test_live_rendering_rewrites_status_line(self):
        stream = _FakeStream()
        progress = CampaignProgress(stream=stream, live=True)
        for event in self.EVENTS:
            progress.handle(event)
        text = stream.text
        assert "\r" in text
        assert "running: emorphic:adder" in text
        assert "campaign done" in text

    def test_failed_job_is_loud(self):
        stream = _FakeStream()
        progress = CampaignProgress(stream=stream, live=False)
        progress.handle({"type": "campaign_start", "total": 1, "workers": 1})
        progress.handle(
            {
                "type": "job_finish",
                "index": 0,
                "label": "emorphic:hyp",
                "key": "ffff0000",
                "status": "failed",
                "elapsed": 1.0,
                "error": "boom",
            }
        )
        assert "FAIL" in stream.text and "(boom)" in stream.text


# --------------------------------------------------------------------------
# Pipeline integration: flows produce flow -> pass spans.


class TestPipelineSpans:
    def test_pipeline_spans_cover_every_pass(self):
        from repro.pipeline import Pipeline

        aig = control.random_control(num_inputs=6, num_outputs=3, terms_per_output=3, seed=2)
        with tracing() as tracer:
            Pipeline.from_script("st; dag2eg; saturate(iters=1); extract(greedy); map").run_flow(aig)
        roots = tracer.tree()
        assert [n["record"].name for n in roots] == ["pipeline"]
        passes = [c["record"] for c in roots[0]["children"]]
        assert [p.name for p in passes] == ["strash", "dag2eg", "saturate", "extract", "map"]
        assert all(p.category == "pass" for p in passes)
        # The saturation engine's spans nest under its pass.
        saturate = roots[0]["children"][2]
        categories = {r.category for r in _walk_records([saturate])}
        assert "saturation.iteration" in categories
        assert "saturation.search" in categories
