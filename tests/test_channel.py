"""Tests of the observer channel: ``installed()``/``capture()``/``absorb()``
and the pool == inline contract for every observer at every pool site."""

from __future__ import annotations

import json
import os

import pytest

from repro.benchgen import control, epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.engine import PortfolioConfig, portfolio_extract
from repro.obs import current_sampler, recording, reset_registry, sampling, span, tracing
from repro.obs.channel import absorb, capture, installed
from repro.obs.metrics import registry
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
        assert [r["name"] for r in captured.payload["trace"]] == ["work"]
        assert captured.payload["metrics"][0]["value"] == 2
        # Empty buffers (no provenance was recorded) are not shipped.
        assert set(captured.payload) == {"trace", "metrics"}

    def test_absorb_merges_into_installed_observers_only(self):
        with capture({"trace", "resource"}) as captured:
            with span("work"):
                pass
            current_sampler().note("probe", chain=1)
        with tracing() as tracer:
            with span("barrier"):
                absorb(captured.payload)
        # No sampler installed: the resource buffer is dropped, not an error.
        assert [r.name for r in tracer.records] == ["work", "barrier"]
        absorb(None)


# --------------------------------------------------------------------------
# Pool == inline, per observer, at the portfolio, partition and campaign
# pool sites.  Each site runs once inline and once pooled with all four
# observers installed; the cells compare one observer each.

CAMPAIGN_SCRIPT = "st; dag2eg; saturate(iters=1, max_nodes=3000); extract(greedy)"


def _portfolio(workers, tmp_path):
    aig = control.random_control(num_inputs=8, num_outputs=4, terms_per_output=3, seed=3)
    circuit = aig_to_egraph(aig)
    SaturationEngine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=10.0),
    ).run()
    config = PortfolioConfig(chains=4, move_budget=64, migrate_every=16, seed=7, workers=workers)
    return lambda: portfolio_extract(circuit.egraph, circuit.output_classes, config=config)


def _partition(workers, tmp_path):
    aig = epfl.build("log2", preset="test")
    window = (
        ("saturate", {"iters": 2, "max_nodes": 2_500}),
        ("extract", {"method": "sa", "threads": 2, "iters": 1, "moves": 4}),
    )
    return lambda: partitioned_optimize(aig, PartitionConfig(k=60, workers=workers), window)


def _campaign(workers, tmp_path):
    from repro.orchestrate import make_pipeline_job, run_campaign

    pipeline = Pipeline.from_script(CAMPAIGN_SCRIPT)
    jobs = [
        make_pipeline_job(name, pipeline, preset="test", tag="pipeline")
        for name in ("adder", "square")
    ]
    store = str(tmp_path / f"store{workers}")
    return lambda: run_campaign(
        jobs, store=store, max_workers=workers, progress=None, use_cache=False
    )


#: site -> (builder, inline workers, pooled workers)
SITES = {
    "portfolio": (_portfolio, 0, 2),
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


def _observe(run):
    """Run under all four observers; each observer's pid-free view, plus the
    pids that recorded spans."""
    with tracing() as tracer, recording() as log, sampling() as sampler:
        reg = reset_registry()
        run()
    return {
        "trace": sorted(_shape(root) for root in tracer.tree()),
        "provenance": (
            sorted(_without_pid(r) for r in log.nodes),
            sorted(_without_pid(r) for r in log.merges),
        ),
        "resource": sorted(
            json.dumps([s.label, s.extra, s.curve], sort_keys=True) for s in sampler.samples
        ),
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
    return request.param, inline, pooled


@pytest.mark.parametrize("kind", ["trace", "provenance", "resource", "metrics"])
def test_pool_records_what_inline_records(site_runs, kind):
    site, inline, pooled = site_runs
    assert pooled[kind] == inline[kind]
    # Not vacuous: the pooled run recorded in worker processes, and every
    # observer that the site feeds recorded something.
    assert pooled["pids"] - {os.getpid()}
    if kind != "provenance" or site != "portfolio":
        assert inline[kind]
