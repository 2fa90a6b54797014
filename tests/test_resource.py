"""Resource-sampler tests: gate semantics, growth curves read off the
e-graph's counters (checked against an insertion/union-count oracle),
sampler-off byte-parity, the pinned sampled payload, and inline == pool
windows."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.rules import boolean_rules
from repro.engine.engine import EngineLimits, SaturationEngine
from repro.obs.resource import (
    aggregate_samples,
    current_sampler,
    peak_rss_bytes,
    sampling,
    sampling_enabled,
)
from repro.pipeline import Pipeline

FIXTURES = Path(__file__).parent / "fixtures"

LIMITS = EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=30.0)

#: saturate-deep's budget (``saturate(iters=4, max_nodes=150000, time_limit=600)``).
DEEP = EngineLimits(max_iterations=4, max_nodes=150_000, time_limit=600.0)


def _run_engine(aig):
    circuit = aig_to_egraph(aig)
    profile = SaturationEngine(circuit.egraph, boolean_rules(), LIMITS, scheduler="backoff").run()
    return circuit, profile


class EventCounter:
    """The oracle: counts the events the sampler's old e-graph observer
    counted (``on_add`` per new class, ``on_union`` per merge) by wrapping
    the instance's ``add_key`` (a key the hashcons lacks makes a class) and
    ``union`` (an effective one merges), not by reading the counters."""

    def __init__(self, egraph) -> None:
        self.adds = 0
        self.unions = 0
        add_key, union = egraph.add_key, egraph.union

        def counted_add_key(key, payload=None):
            self.adds += key not in egraph.hashcons
            return add_key(key, payload)

        def counted_union(a, b):
            self.unions += egraph.find(a) != egraph.find(b)
            return union(a, b)

        egraph.add_key, egraph.union = counted_add_key, counted_union


def _counted_run(egraph, limits):
    """One sampled run with the oracle wrapped around the e-graph; returns
    the run's sample and the oracle's ``(adds, unions)`` after every rebuild
    (the engine rebuilds once per iteration, right before it reads the curve
    point)."""
    counter = EventCounter(egraph)
    counts = []
    rebuild = egraph.rebuild

    def counted_rebuild():
        merges = rebuild()
        counts.append((counter.adds, counter.unions))
        return merges

    egraph.rebuild = counted_rebuild
    try:
        with sampling():
            profile = SaturationEngine(egraph, boolean_rules(), limits).run()
    finally:
        del egraph.rebuild, egraph.add_key, egraph.union
    return profile.resource, counts


def assert_curve_matches_oracle(resource, counts):
    assert [(point["adds"], point["unions"]) for point in resource["curve"]] == counts
    assert (resource["adds"], resource["unions"]) == (counts[-1] if counts else (0, 0))
    assert [point["iteration"] for point in resource["curve"]] == list(range(len(counts)))


class TestGate:
    def test_disabled_by_default(self):
        assert current_sampler() is None and not sampling_enabled()

    def test_context_manager_restores_previous(self):
        with sampling() as outer:
            with sampling() as inner:
                assert current_sampler() is inner
            assert current_sampler() is outer
        assert current_sampler() is None

    def test_peak_rss_is_positive(self):
        assert peak_rss_bytes() > 0


class TestEngineSampling:
    def test_profile_off_has_no_resource_key(self, small_adder):
        _, profile = _run_engine(small_adder)
        assert profile.resource is None
        assert "resource" not in profile.to_dict()

    def test_growth_curve_when_sampling(self, small_adder):
        with sampling():
            _, profile = _run_engine(small_adder)
        res = profile.resource
        assert res is not None and res["label"] == "saturation"
        assert len(res["curve"]) == profile.num_iterations
        adds = [point["adds"] for point in res["curve"]]
        assert adds == sorted(adds) and adds[-1] == res["adds"]  # cumulative
        assert res["curve"][-1]["nodes"] == profile.final_nodes
        assert res["peak_rss_bytes"] > 0

    def test_off_run_identical_to_never_installed(self, small_adder):
        """The sampler-off payload is byte-identical whether a sampler ever
        existed in the process or not (the gate reads one global per run)."""

        def canonical(profile):
            data = profile.to_dict()
            # zero the float timings — runs differ in wall-clock, not shape
            def zero(obj):
                if isinstance(obj, dict):
                    return {k: zero(v) for k, v in obj.items()}
                if isinstance(obj, list):
                    return [zero(v) for v in obj]
                return 0.0 if isinstance(obj, float) else obj

            return json.dumps(zero(data), sort_keys=True)

        _, before = _run_engine(small_adder)
        with sampling():
            pass  # installed and uninstalled without running
        _, after = _run_engine(small_adder)
        assert canonical(before) == canonical(after)


class TestCountersMatchObserver:
    """Each curve point's ``adds``/``unions``, read off the e-graph's row and
    class counters, equal what the old observer counted."""

    @pytest.mark.parametrize("max_nodes", [DEEP.max_nodes, 300])
    @pytest.mark.parametrize("circuit", list(epfl.available_circuits()))
    def test_curve_matches_oracle(self, circuit, max_nodes):
        limits = EngineLimits(max_iterations=DEEP.max_iterations, max_nodes=max_nodes, time_limit=600.0)
        egraph = aig_to_egraph(epfl.build(circuit, preset="test")).egraph
        resource, counts = _counted_run(egraph, limits)
        assert counts, "the run made no iteration"
        assert_curve_matches_oracle(resource, counts)

    def test_second_saturation_counts_from_its_own_start(self, small_adder):
        egraph = aig_to_egraph(small_adder).egraph
        first, first_counts = _counted_run(egraph, LIMITS)
        second, second_counts = _counted_run(egraph, LIMITS)
        # Each run's oracle is wrapped fresh, so it counts from that run's start.
        assert_curve_matches_oracle(first, first_counts)
        assert_curve_matches_oracle(second, second_counts)


def _zero_process(value, key=None):
    """Zero floats, pids and RSS watermarks: what differs between runs."""
    if key in ("pid", "peak_rss_bytes"):
        return 0
    if isinstance(value, float):
        return 0.0
    if isinstance(value, dict):
        return {k: _zero_process(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_zero_process(v) for v in value]
    return value


class TestPinnedPayload:
    def test_sampled_flow_payload(self):
        # tests/fixtures/resource_payload.json: the sampled flow's to_dict()
        # as the sampler's observer counted it, floats/pid/RSS zeroed.
        script = "st; dag2eg; saturate(iters=2); extract(greedy); map"
        with sampling():
            result = Pipeline.from_script(script).run_flow(epfl.build("adder", preset="test"))
        payload = json.dumps(_zero_process(result.to_dict()), sort_keys=True, indent=1) + "\n"
        assert payload == (FIXTURES / "resource_payload.json").read_text()


class TestAggregate:
    def test_aggregate_samples(self):
        point = {"iteration": 0, "classes": 1, "nodes": 2, "adds": 7, "unions": 1}
        a = {"schema": 1, "label": "saturation", "pid": 11, "peak_rss_bytes": 100,
             "adds": 5, "unions": 2, "curve": [], "extra": {}}
        b = {"schema": 1, "label": "saturation", "pid": 12, "peak_rss_bytes": 300,
             "adds": 7, "unions": 1, "curve": [point], "extra": {"window": 3}}
        aggregate = aggregate_samples([a, b])
        assert aggregate["samples"] == 2 and aggregate["pids"] == [11, 12]
        assert aggregate["peak_rss_bytes"] == 300  # max across processes
        assert aggregate["adds"] == 12 and aggregate["unions"] == 3  # sums
        # curve-less samples drop out; a window's stamp stays with its curve
        assert aggregate["curves"] == [{"label": "saturation", "extra": {"window": 3}, "curve": [point]}]
        assert aggregate_samples([]) is None


class TestPartitionSampling:
    WINDOW = (
        ("saturate", {"iters": 2, "max_nodes": 2_500}),
        ("extract", {"method": "sa", "threads": 2, "iters": 1, "moves": 4}),
    )

    def _run(self, aig, workers):
        from repro.partition import PartitionConfig, partitioned_optimize

        with sampling():
            return partitioned_optimize(aig, PartitionConfig(k=60, workers=workers), self.WINDOW).profile

    @staticmethod
    def _payloads(profile):
        """The windows' and the aggregate's payloads, pid/RSS-independent."""
        drop = ("pid", "pids", "peak_rss_bytes")
        strip = lambda payload: {k: v for k, v in payload.items() if k not in drop}
        return [strip(w.resource) for w in profile.windows], strip(profile.resource)

    def test_pool_matches_inline_modulo_pid(self):
        aig = epfl.build("log2", preset="test")
        inline = self._run(aig, workers=0)
        pooled = self._run(aig, workers=2)
        assert self._payloads(inline) == self._payloads(pooled)
        windows, aggregate = self._payloads(pooled)
        assert [w["extra"] for w in windows] == [{"window": w.index} for w in pooled.windows]
        assert aggregate["adds"] == sum(w["adds"] for w in windows) > 0
        assert len(pooled.resource["pids"]) >= 1

    def test_partition_profile_resource_none_when_off(self):
        from repro.partition import PartitionConfig, partitioned_optimize

        aig = epfl.build("log2", preset="test")
        outcome = partitioned_optimize(aig, PartitionConfig(k=60, workers=0), self.WINDOW)
        payload = outcome.profile.to_dict()
        assert payload["resource"] is None
        assert all(w["resource"] is None for w in payload["windows"])
