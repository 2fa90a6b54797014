"""The garbage-collector contract of a flow.

A flow creates no reference cycles: whatever it drops, reference counting
frees.  So CPython's cyclic collector has nothing to find in a flow, and
``PassSpec.run`` pauses it for the length of every pass
(``repro.pipeline.passes._collector_paused``).  Four groups of tests pin
the contract:

* collector state: off inside a pass function and back on after it, also
  when the pass raises; left alone when the caller disabled it; restored
  once around an inline ``stitch``, whose window passes nest;
* no collection inside a pass: every registered pass function is wrapped,
  and ``gc.callbacks`` reports each collection that starts while one runs;
* parity: a flow with the pause switched off gives the same AIG, netlist,
  QoR and counts;
* acyclic flows: under ``gc.DEBUG_SAVEALL`` a flow leaves no object that only
  the cyclic collector could free.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.benchgen import epfl
from repro.engine import batched
from repro.flows import BaselineConfig, EmorphicConfig, baseline_pipeline, emorphic_pipeline
from repro.pipeline import Pipeline, passes

ROOT = Path(__file__).resolve().parents[1]

#: Partition steps small enough for a test, run inline and on a pool.
PARTITION_SCRIPT = (
    "st; partition(k=30, workers={workers}); saturate(iters=2, max_nodes=2000); "
    "extract(sa, threads=2, moves=4, iters=1); stitch; cec"
)


#: The flow bench's workloads (plain data, read once so that loading them
#: leaves nothing behind inside a measured flow).
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]


def bench_flow(workload):
    """The flow bench's pipeline of ``workload`` at seed 1."""
    workload = WORKLOADS[workload]
    if workload.script is None:
        return emorphic_pipeline(EmorphicConfig(**workload.config_for(1)))
    return Pipeline.from_script(workload.script_for(1))


BENCH_WORKLOADS = ("paper-flow", "saturate-deep", "extract-wide", "partition-windows")


@pytest.fixture(scope="module")
def hyp():
    return epfl.build("hyp", preset="test")


@pytest.fixture(scope="module")
def mem_ctrl():
    return epfl.build("mem_ctrl", preset="test")


def replace_pass(monkeypatch, name, fn):
    """Swap a registered pass's function (``PassSpec`` is frozen)."""
    monkeypatch.setitem(passes._REGISTRY, name, dataclasses.replace(passes._REGISTRY[name], fn=fn))


# --------------------------------------------------------------------------
# Collector state.


class TestCollectorState:
    @pytest.fixture(autouse=True)
    def collector_on(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def record_state(self, monkeypatch, name):
        """Make pass ``name`` log ``gc.isenabled()`` each time it runs."""
        seen = []
        original = passes._REGISTRY[name].fn

        def fn(ctx, **params):
            seen.append(gc.isenabled())
            original(ctx, **params)

        replace_pass(monkeypatch, name, fn)
        return seen

    def test_a_pass_runs_with_the_collector_off_and_restores_it(self, monkeypatch, small_adder):
        seen = self.record_state(monkeypatch, "strash")
        Pipeline.from_script("st; st").run(small_adder)
        assert seen == [False, False]
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_off(self, monkeypatch, small_adder):
        seen = self.record_state(monkeypatch, "strash")
        gc.disable()
        Pipeline.from_script("st; b; st").run(small_adder)
        assert seen == [False, False]
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_raising_pass_restores_the_state(self, monkeypatch, small_adder, enabled):
        def fn(ctx):
            assert not gc.isenabled()
            raise RuntimeError("pass failed")

        replace_pass(monkeypatch, "balance", fn)
        if not enabled:
            gc.disable()
        with pytest.raises(RuntimeError, match="pass failed"):
            Pipeline.from_script("st; b").run(small_adder)
        assert gc.isenabled() is enabled

    def test_inline_stitch_nests_the_window_passes_and_restores_once(self, monkeypatch, mem_ctrl):
        seen = {name: self.record_state(monkeypatch, name) for name in ("dag2eg", "saturate", "extract")}
        enables = []
        enable = gc.enable
        monkeypatch.setattr(gc, "enable", lambda: enables.append(1) or enable())
        pipeline = Pipeline.from_script(PARTITION_SCRIPT.format(workers=0))
        ctx = pipeline.run(mem_ctrl)
        windows = ctx.partition_profile.num_windows
        assert windows > 1
        # Staging saturate/extract runs them once at the top level; each
        # window then runs dag2eg, saturate and extract nested in stitch.
        assert seen == {"dag2eg": [False] * windows, "saturate": [False] * (1 + windows),
                        "extract": [False] * (1 + windows)}
        assert len(enables) == len(pipeline.steps)
        assert gc.isenabled()


# --------------------------------------------------------------------------
# No collection inside a pass.


class CollectionLog:
    """A ``gc.callbacks`` entry: every collection started, with its
    generation and whether a pass function was running."""

    def __init__(self):
        self.depth = 0
        self.calls = 0
        self.collections = []

    def __call__(self, phase, info):
        if phase == "start":
            self.collections.append((info["generation"], self.depth > 0))

    def inside_passes(self):
        return [generation for generation, inside in self.collections if inside]


@pytest.fixture
def collections(monkeypatch):
    """Wrap every registered pass's function and log collections."""
    log = CollectionLog()

    def watched(fn):
        def run(ctx, **params):
            log.depth += 1
            log.calls += 1
            try:
                fn(ctx, **params)
            finally:
                log.depth -= 1

        return run

    for name, spec in list(passes._REGISTRY.items()):
        replace_pass(monkeypatch, name, watched(spec.fn))
    gc.callbacks.append(log)
    try:
        yield log
    finally:
        gc.callbacks.remove(log)


class TestNoCollectionInsideAPass:
    @pytest.mark.parametrize("workload", BENCH_WORKLOADS)
    def test_bench_flows(self, collections, hyp, library, workload):
        pipeline = bench_flow(workload)
        pipeline.run_flow(hyp, library=library)
        assert collections.calls >= len(pipeline.steps)
        assert collections.inside_passes() == []

    @pytest.mark.parametrize("recipe", ["baseline", "emorphic"])
    def test_recipes(self, collections, small_adder, library, recipe):
        if recipe == "baseline":
            pipeline = baseline_pipeline(BaselineConfig())
        else:
            pipeline = emorphic_pipeline(EmorphicConfig())
        pipeline.run_flow(small_adder, library=library)
        assert collections.calls >= len(pipeline.steps)
        assert collections.inside_passes() == []

    def test_saturate_deep_runs_one_young_collection_per_pass_boundary_at_most(self, hyp, library):
        pipeline = bench_flow("saturate-deep")
        log = CollectionLog()
        gc.collect()
        gc.callbacks.append(log)
        try:
            pipeline.run_flow(hyp, library=library)
        finally:
            gc.callbacks.remove(log)
        generations = [generation for generation, _ in log.collections]
        assert 2 not in generations, generations
        assert len(generations) <= len(pipeline.steps) + 1, generations

    def test_pass_spans_count_collections(self, monkeypatch, small_adder):
        original = passes._REGISTRY["balance"].fn

        def collecting(ctx):
            original(ctx)
            gc.collect()

        replace_pass(monkeypatch, "balance", collecting)
        script = "st; b; dag2eg; saturate(iters=2); extract(greedy); map"
        with obs.tracing() as tracer:
            Pipeline.from_script(script).run(small_adder)
        spans = {r.name: r.args["gc_collections"] for r in tracer.records if r.category == "pass"}
        assert list(spans) == ["strash", "balance", "dag2eg", "saturate", "extract", "map"]
        assert all(isinstance(count, int) and count >= 0 for count in spans.values())
        assert spans["balance"] >= 1
        assert spans["saturate"] <= 2


# --------------------------------------------------------------------------
# Collector paused vs on: identical results.


def zero_floats(value):
    """Every float replaced by 0.0, so a payload compares structure, not timing."""
    if isinstance(value, float):
        return 0.0
    if isinstance(value, dict):
        return {key: zero_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [zero_floats(item) for item in value]
    return value


def outcome(result):
    """What a flow decides: the AIG, the netlist, the QoR, and the payload's
    counts and statuses (its timings zeroed)."""
    mapping = result.mapping
    payload = json.dumps(zero_floats(result.to_dict()), sort_keys=True)
    return result.aig.nodes, result.aig.pos, mapping.netlist, mapping.delay, mapping.area, payload


class TestCollectorParity:
    @pytest.mark.parametrize("workload", BENCH_WORKLOADS)
    def test_paused_and_collecting_flows_are_identical(self, monkeypatch, small_adder, library, workload):
        paused = bench_flow(workload).run_flow(small_adder, library=library)
        monkeypatch.setattr(passes, "_collector_paused", contextlib.nullcontext)
        before = sum(generation["collections"] for generation in gc.get_stats())
        collecting = bench_flow(workload).run_flow(small_adder, library=library)
        assert sum(generation["collections"] for generation in gc.get_stats()) > before
        assert outcome(collecting) == outcome(paused)


# --------------------------------------------------------------------------
# Acyclic flows.


def cyclic_garbage(run):
    """Run ``run()`` and return what it left for the cyclic collector.

    Call with the collector disabled and ``gc.DEBUG_SAVEALL`` set: the
    collection after the run keeps what it found in ``gc.garbage``.
    """
    gc.set_debug(0)
    gc.garbage.clear()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    run()
    found = gc.collect()
    kinds = Counter(getattr(obj, "__qualname__", type(obj).__name__) for obj in gc.garbage)
    return found, dict(kinds.most_common(8))


@pytest.fixture
def saving_collector():
    """The collector off for the test; restored, with nothing saved, after."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()


def _acyclic_flows():
    """name -> (test-preset circuit, pipeline builder)."""
    flows = {
        "emorphic": ("adder", lambda: emorphic_pipeline(EmorphicConfig())),
        "emorphic-fast": ("adder", lambda: emorphic_pipeline(EmorphicConfig.fast())),
        "baseline": ("adder", lambda: baseline_pipeline(BaselineConfig())),
        "partition-inline": ("mem_ctrl", lambda: Pipeline.from_script(PARTITION_SCRIPT.format(workers=0))),
    }
    for workload in BENCH_WORKLOADS:
        flows[workload] = ("adder", lambda workload=workload: bench_flow(workload))
    for script in (
        "st; resyn2",
        "st; delay_opt",
        "st; refactor; rewrite; balance",
        "st; b; cec",
        "st; dag2eg; saturate(iters=2); extract(random, seed=3); map; cec",
    ):
        flows[script] = ("adder", lambda script=script: Pipeline.from_script(script))
    return flows


ACYCLIC_FLOWS = _acyclic_flows()


class TestAcyclicFlows:
    @pytest.mark.parametrize("name", list(ACYCLIC_FLOWS))
    def test_flow_leaves_no_cyclic_garbage(self, saving_collector, library, name):
        circuit, flow = ACYCLIC_FLOWS[name]
        aig = epfl.build(circuit, preset="test")
        found, kinds = cyclic_garbage(lambda: flow().run_flow(aig, library=library))
        assert found == 0, kinds

    def test_saturate_deep_with_every_observer_installed(self, saving_collector, small_adder, library):
        def run():
            with obs.tracing(), obs.recording(), obs.sampling():
                obs.reset_registry()
                bench_flow("saturate-deep").run_flow(small_adder, library=library)

        found, kinds = cyclic_garbage(run)
        assert found == 0, kinds

    def test_cold_matcher_compile(self, saving_collector, monkeypatch, small_adder, library):
        monkeypatch.setattr(batched, "_PROGRAMS", {})
        script = "st; dag2eg; saturate(iters=1); extract(greedy)"
        found, kinds = cyclic_garbage(lambda: Pipeline.from_script(script).run_flow(small_adder, library=library))
        assert batched._PROGRAMS, "the flow compiled no matcher"
        assert found == 0, kinds

    def test_first_flow_in_a_process(self):
        script = "\n".join(
            [
                "import gc",
                "from repro.benchgen import build",
                "from repro.flows import EmorphicConfig, emorphic_pipeline",
                "aig = build('adder', preset='test')",
                "gc.collect()",
                "gc.disable()",
                "gc.set_debug(gc.DEBUG_SAVEALL)",
                "emorphic_pipeline(EmorphicConfig.fast()).run_flow(aig)",
                "print(gc.collect())",
            ]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]
