"""Resource-sampler tests: gate semantics, engine growth curves, sampler-off
byte-parity, and inline == pool grafting across the fan-out layers."""

from __future__ import annotations

import pickle

from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.rules import boolean_rules
from repro.engine.engine import EngineLimits, SaturationEngine
from repro.obs.resource import (
    ResourceSampler,
    aggregate_samples,
    current_sampler,
    peak_rss_bytes,
    sampling,
    sampling_enabled,
)

LIMITS = EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=30.0)


def _run_engine(aig):
    circuit = aig_to_egraph(aig)
    profile = SaturationEngine(circuit.egraph, boolean_rules(), LIMITS, scheduler="backoff").run()
    return circuit, profile


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

    def test_observer_detached_after_run(self, small_adder):
        with sampling():
            circuit, _ = _run_engine(small_adder)
        assert circuit.egraph.observers == []

    def test_off_run_identical_to_never_installed(self, small_adder):
        """The sampler-off payload is byte-identical whether a sampler ever
        existed in the process or not (the gate reads one global per run)."""
        import json

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


class TestSamplerBuffers:
    def test_note_and_graft_with_setdefault_stamping(self):
        worker = ResourceSampler()
        worker.note("portfolio round", chain=3)
        parent = ResourceSampler()
        parent.graft(pickle.loads(pickle.dumps(worker)), chain=99, round=1)
        (sample,) = parent.samples
        # the worker-applied tag wins; only missing tags are stamped
        assert sample.extra == {"chain": 3, "round": 1}
        assert sample.pid > 0 and sample.curve == []

    def test_aggregate_samples(self):
        sampler = ResourceSampler()
        a = sampler.note("w0")
        b = sampler.note("w1")
        a.peak_rss_bytes, a.adds, a.unions = 100, 5, 2
        b.peak_rss_bytes, b.adds, b.unions = 300, 7, 1
        b.curve.append({"iteration": 0, "classes": 1, "nodes": 2, "adds": 7, "unions": 1})
        aggregate = aggregate_samples([sample.to_dict() for sample in sampler.samples])
        assert aggregate["samples"] == 2
        assert aggregate["peak_rss_bytes"] == 300  # max across processes
        assert aggregate["adds"] == 12 and aggregate["unions"] == 3  # sums
        assert len(aggregate["curves"]) == 1  # curve-less samples drop out
        assert aggregate_samples([]) is None


class TestPartitionSampling:
    WINDOW = (
        ("saturate", {"iters": 2, "max_nodes": 2_500}),
        ("extract", {"method": "sa", "threads": 2, "iters": 1, "moves": 4}),
    )

    def _run(self, aig, workers):
        from repro.partition import PartitionConfig, partitioned_optimize

        with sampling() as sampler:
            outcome = partitioned_optimize(aig, PartitionConfig(k=60, workers=workers), self.WINDOW)
        return outcome, sampler

    @staticmethod
    def _curve_keys(sampler):
        """(window, growth-curve) pairs, pid/rss-independent."""
        return sorted(
            (
                sample.extra.get("window"),
                tuple((p["iteration"], p["classes"], p["nodes"], p["adds"], p["unions"]) for p in sample.curve),
            )
            for sample in sampler.samples
            if sample.curve
        )

    def test_pool_matches_inline_modulo_pid(self):
        from repro.benchgen import epfl

        aig = epfl.build("log2", preset="test")
        inline_outcome, inline_sampler = self._run(aig, workers=0)
        pooled_outcome, pooled_sampler = self._run(aig, workers=2)
        assert self._curve_keys(inline_sampler) == self._curve_keys(pooled_sampler)
        inline_res = inline_outcome.profile.resource
        pooled_res = pooled_outcome.profile.resource
        assert inline_res is not None and pooled_res is not None
        assert inline_res["adds"] == pooled_res["adds"]
        assert inline_res["unions"] == pooled_res["unions"]
        assert len(pooled_res["pids"]) >= 1

    def test_partition_profile_resource_none_when_off(self):
        from repro.benchgen import epfl
        from repro.partition import PartitionConfig, partitioned_optimize

        aig = epfl.build("log2", preset="test")
        outcome = partitioned_optimize(aig, PartitionConfig(k=60, workers=0), self.WINDOW)
        payload = outcome.profile.to_dict()
        assert payload["resource"] is None
        assert all(w["resource"] is None for w in payload["windows"])
