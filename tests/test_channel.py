"""Tests of the observer channel: ``installed()``/``capture()``/``absorb()``
and the pool == inline contract for every observer at every pool site."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.benchgen import epfl
from repro.obs import current_recorder, recording, reset_registry, sampling, span, tracing
from repro.obs.channel import absorb, capture, installed
from repro.obs.metrics import registry
from repro.obs.provenance import MergeRecord, NodeRecord
from repro.obs.resource import ResourceSampler
from repro.partition import PartitionConfig, partitioned_optimize
from repro.pipeline import Pipeline


class TestChannel:
    def test_installed_names_the_installed_kinds(self):
        assert installed() == {"metrics"}
        with tracing(), sampling():
            assert installed() == {"trace", "resource", "metrics"}

    def test_capture_isolates_and_restores(self):
        with tracing() as outer:
            before = registry()
            with capture({"trace", "provenance"}) as captured:
                with span("work"):
                    registry().counter("work_total").inc(2)
            assert registry() is before
        assert outer.records == []
        # The payload is the fresh observers themselves, empty ones too.
        assert set(captured.payload) == {"trace", "provenance", "metrics"}
        assert [r.name for r in captured.payload["trace"].records] == ["work"]
        assert captured.payload["metrics"].snapshot() == {"work_total": 2}
        assert captured.payload["provenance"].nodes == []

    def test_absorb_merges_into_installed_observers_only(self):
        with capture({"trace", "resource"}) as captured:
            with span("work"):
                pass
        with tracing() as tracer:
            with span("barrier"):
                absorb(captured.payload)
        # No sampler installed: the captured sampler is dropped, not an error.
        assert [r.name for r in tracer.records] == ["work", "barrier"]
        absorb(None)

    def test_absorb_adds_no_stamp(self):
        # A job-level absorb grafts a worker's observers, pickled as the pool
        # ships them, as recorded: the records themselves move, and the tags
        # stamped where they were produced stay their only tags.
        # The sampler is a switch: its graft moves nothing.
        with capture({"trace", "provenance", "resource"}) as captured:
            with span("job", label="adder"):
                current_recorder().add_merges([(3, 4)], "rebuild", -1)
        payload = pickle.loads(pickle.dumps(captured.payload))
        with tracing() as tracer, recording() as log, sampling():
            absorb(payload)
        assert log.merges == payload["provenance"].merges
        assert [r.args for r in tracer.records] == [{"label": "adder"}]
        assert [m.extra for m in log.merges] == [{}]

    def test_payload_pickles_record_for_record(self):
        with capture({"trace", "provenance", "resource"}) as captured:
            with span("job", label="adder"):
                current_recorder().add_merges([(3, 4)], "rebuild", -1)
                current_recorder().nodes.append(NodeRecord(5, "AND", (3, 4), None, "r", 1, 2, "ab", 7))
            registry().gauge("best_cost").set(4)
        back = pickle.loads(pickle.dumps(captured.payload))
        for name in ("nodes", "merges"):
            records = [r.to_dict() for r in getattr(captured.payload["provenance"], name)]
            assert records and [r.to_dict() for r in getattr(back["provenance"], name)] == records
        assert isinstance(back["resource"], ResourceSampler)
        fields = ("span_id", "parent_id", "name", "category", "start", "duration", "pid", "args")
        assert [[getattr(r, f) for f in fields] for r in back["trace"].records] == [
            [getattr(r, f) for f in fields] for r in captured.payload["trace"].records
        ]
        assert back["metrics"].snapshot() == {"best_cost": 4}

    def test_inline_partition_builds_no_record_dicts(self, monkeypatch):
        # An inline window grafts its scoped log as objects: no record is
        # turned into a dict on the way into the flow's recorder.
        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.to_dict called")

        monkeypatch.setattr(NodeRecord, "to_dict", refuse)
        monkeypatch.setattr(MergeRecord, "to_dict", refuse)
        script = (
            "st; partition(k=50, workers=0); saturate(iters=2, max_nodes=2500); "
            "extract(sa, threads=2, moves=4, iters=1); stitch"
        )
        aig = epfl.build("adder", preset="test")
        with tracing(), recording() as log, sampling():
            reset_registry()
            Pipeline.from_script(script).run_flow(aig)
        assert log.nodes and log.merges
        windows = {r.extra["window"] for r in log.nodes}
        assert len(windows) > 1 and windows == {r.extra["window"] for r in log.merges}


# --------------------------------------------------------------------------
# Pool == inline, per observer, at the partition and campaign pool sites.
# Each site runs once inline and once pooled with all four observers
# installed; the cells compare one observer each.

CAMPAIGN_SCRIPT = "st; dag2eg; saturate(iters=1, max_nodes=3000); extract(greedy)"


def _partition(workers, tmp_path):
    """The run; it returns its resource payloads (the windows' aggregate)."""
    aig = epfl.build("log2", preset="test")
    window = (
        ("saturate", {"iters": 2, "max_nodes": 2_500}),
        ("extract", {"method": "sa", "threads": 2, "iters": 1, "moves": 4}),
    )
    return lambda: [
        partitioned_optimize(aig, PartitionConfig(k=60, workers=workers), window).profile.resource
    ]


def _campaign(workers, tmp_path):
    from repro.orchestrate import make_pipeline_job, run_campaign

    pipeline = Pipeline.from_script(CAMPAIGN_SCRIPT)
    jobs = [
        make_pipeline_job(name, pipeline, preset="test", tag="pipeline")
        for name in ("adder", "square")
    ]
    store = str(tmp_path / f"store{workers}")
    return lambda: [
        outcome.record["result"]["resource"]
        for outcome in run_campaign(
            jobs, store=store, max_workers=workers, progress=None, use_cache=False
        ).outcomes
    ]


#: site -> (builder, inline workers, pooled workers)
SITES = {
    "partition": (_partition, 0, 2),
    "campaign": (_campaign, 1, 2),
}


def _shape(node):
    """Name, category and non-float args of a span, children sorted.

    Floats are times; a pass span's ``gc_collections`` counts what the
    process's collector did, which depends on the process, not the flow.
    """
    record = node["record"]
    args = tuple(
        sorted(
            (str(k), str(v))
            for k, v in record.args.items()
            if not isinstance(v, float) and k != "gc_collections"
        )
    )
    children = tuple(sorted(_shape(child) for child in node["children"]))
    return (record.name, record.category, args, children)


def _without_pid(record):
    data = record.to_dict()
    data.pop("pid")
    return json.dumps(data, sort_keys=True)


def _without_process(payload):
    """A resource payload without what differs between processes."""
    return json.dumps(
        {k: v for k, v in payload.items() if k not in ("pid", "pids", "peak_rss_bytes")}, sort_keys=True
    )


def _observe(run):
    """Run under all four observers; each observer's pid-free view (the
    resource sampler's is the run's resource payloads), plus the pids that
    recorded spans."""
    with tracing() as tracer, recording() as log, sampling():
        reg = reset_registry()
        payloads = run()
    return {
        "trace": sorted(_shape(root) for root in tracer.tree()),
        "provenance": (
            sorted(_without_pid(r) for r in log.nodes),
            sorted(_without_pid(r) for r in log.merges),
        ),
        "resource": [_without_process(payload) for payload in payloads],
        "metrics": {
            name: value
            for name, value in reg.snapshot().items()
            if name.split("{")[0].endswith("_total")
        },
        "pids": {r.pid for r in tracer.records},
    }


@pytest.fixture(scope="module", params=sorted(SITES))
def site_runs(request, tmp_path_factory):
    build, inline_workers, pooled_workers = SITES[request.param]
    tmp_path = tmp_path_factory.mktemp(request.param)
    inline = _observe(build(inline_workers, tmp_path))
    pooled = _observe(build(pooled_workers, tmp_path))
    return inline, pooled


@pytest.mark.parametrize("kind", ["trace", "provenance", "resource", "metrics"])
def test_pool_records_what_inline_records(site_runs, kind):
    inline, pooled = site_runs
    assert pooled[kind] == inline[kind]
    # Not vacuous: the pooled run recorded in worker processes, and every
    # observer recorded something.
    assert pooled["pids"] - {os.getpid()}
    assert inline[kind]
