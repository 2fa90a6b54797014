"""Tests of the campaign orchestration subsystem (jobs, store, executor, sweep)."""

from __future__ import annotations

import json

import pytest

from repro.aig.io_aiger import aag_to_string, write_aag
from repro.flows.baseline import BaselineConfig
from repro.flows.emorphic import EmorphicConfig, emorphic_pipeline
from repro.orchestrate import (
    CircuitRef,
    JobSpec,
    ResultStore,
    expand_grid,
    make_job,
    make_pipeline_job,
    run_campaign,
    run_job,
    run_sweep,
    sweep_jobs,
)
from repro.orchestrate.sweep import apply_overrides


def tiny_emorphic_config() -> EmorphicConfig:
    """Small enough that one job runs in well under a second."""
    config = EmorphicConfig(
        rewrite_iterations=2,
        max_egraph_nodes=4_000,
        rewrite_time_limit=5.0,
        num_threads=1,
        sa_iterations=1,
        moves_per_iteration=1,
        verify=False,
    )
    config.baseline = BaselineConfig(use_choices=False)
    return config


class TestJobHash:
    def test_same_circuit_and_config_same_key(self):
        job_a = make_job("adder", "emorphic", config=tiny_emorphic_config(), preset="test")
        job_b = make_job("adder", "emorphic", config=tiny_emorphic_config(), preset="test")
        assert job_a.job_hash() == job_b.job_hash()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rewrite_iterations", 3),
            ("seed", 8),
            ("extraction_cost", "nodes"),
            ("migrate_every", 4),
            ("use_ml_model", True),
            ("baseline.use_choices", True),
        ],
    )
    def test_any_field_change_changes_key(self, field, value):
        base = make_job("adder", "emorphic", config=tiny_emorphic_config(), preset="test")
        changed_config = apply_overrides(tiny_emorphic_config().to_dict(), {field: value})
        changed = make_job("adder", "emorphic", config=changed_config, preset="test")
        assert base.job_hash() != changed.job_hash()

    def test_circuit_flow_and_preset_change_key(self):
        base = make_job("adder", "baseline", preset="test")
        assert base.job_hash() != make_job("sqrt", "baseline", preset="test").job_hash()
        assert base.job_hash() != make_job("adder", "baseline", preset="bench").job_hash()
        emorphic = make_job("adder", "emorphic", config=tiny_emorphic_config(), preset="test")
        assert base.job_hash() != emorphic.job_hash()

    def test_tag_is_not_part_of_the_key(self):
        plain = make_job("adder", "baseline", preset="test")
        tagged = make_job("adder", "baseline", preset="test", tag="variant")
        assert plain.job_hash() == tagged.job_hash()

    def test_file_ref_hashes_like_registry_ref(self, tmp_path, small_adder):
        """Content addressing: the same circuit hashes equally however referenced."""
        path = tmp_path / "adder.aag"
        write_aag(small_adder, path)
        from_registry = make_job("adder", "baseline", preset="test")
        from_file = make_job(CircuitRef(name=str(path)), "baseline")
        assert from_registry.job_hash() == from_file.job_hash()

    def test_spec_round_trips_through_dict(self):
        job = make_job("adder", "emorphic", config=tiny_emorphic_config(), preset="test", tag="t")
        clone = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.job_hash() == job.job_hash()
        assert clone.tag == "t"

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError, match="unknown recipe 'mystery'"):
            make_job("adder", "mystery", preset="test")

    def test_tag_defaults_to_the_recipe(self):
        ml = tiny_emorphic_config()
        ml.use_ml_model = True
        assert make_job("adder", "baseline", preset="test").label == "baseline:adder"
        assert make_job("adder", "emorphic", tiny_emorphic_config(), preset="test").tag == "emorphic"
        assert make_job("adder", "emorphic", ml, preset="test").tag == "emorphic_ml"
        assert make_pipeline_job("adder", "st; b", preset="test").label == "pipeline:adder"


class TestConfigSerialization:
    def test_emorphic_round_trip(self):
        config = tiny_emorphic_config()
        clone = EmorphicConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()
        assert clone.baseline.use_choices is False

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            EmorphicConfig.from_dict({"bogus": 1})
        with pytest.raises(ValueError):
            BaselineConfig.from_dict({"bogus": 1})

    def test_ml_model_excluded_from_dict(self):
        config = EmorphicConfig(use_ml_model=True, ml_model=object())
        data = config.to_dict()
        assert "ml_model" not in data
        assert data["use_ml_model"] is True


class TestStore:
    def test_round_trip_including_extracted_aig(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_job("adder", "baseline", preset="test")
        record = run_job(spec)
        key = spec.job_hash()
        assert key not in store
        store.put(key, record)
        assert key in store

        loaded = store.get(key)
        assert loaded == record
        assert loaded["result"]["delay"] > 0

        aig = store.load_result_aig(key)
        assert aig is not None
        assert aag_to_string(aig) == record["aig_aag"]
        assert aig.stats()["levels"] == record["result"]["levels"]

    def test_miss_and_delete_and_clear(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("0" * 24) is None
        store.put("a" * 24, {"schema": 1, "x": 1})
        store.put("b" * 24, {"schema": 1, "x": 2})
        assert store.keys() == ["a" * 24, "b" * 24]
        assert store.delete("a" * 24)
        assert not store.delete("a" * 24)
        assert store.clear() == 1
        assert store.keys() == []

    def test_corrupt_and_stale_records_read_as_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        (store.root / ("c" * 24 + ".json")).write_text("{not json")
        assert store.get("c" * 24) is None
        store.put("d" * 24, {"schema": 999})
        assert store.get("d" * 24) is None

    def test_malformed_keys_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for key in ("", "../escape", "a.b"):
            with pytest.raises(ValueError):
                store.get(key)


class TestCampaign:
    def test_cache_hit_and_miss_behavior(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        jobs = [make_job(name, "baseline", preset="test") for name in ("adder", "mem_ctrl")]

        first = run_campaign(jobs, store=store, max_workers=1)
        assert first.counts["completed"] == 2 and first.counts["cached"] == 0

        second = run_campaign(jobs, store=store, max_workers=1)
        assert second.counts["cached"] == 2 and second.counts["completed"] == 0
        assert [outcome.record for outcome in second.outcomes] == [
            outcome.record for outcome in first.outcomes
        ]

        bypass = run_campaign(jobs, store=store, max_workers=1, use_cache=False)
        assert bypass.counts["completed"] == 2

    def test_failures_are_captured_not_raised(self, tmp_path):
        good = make_job("mem_ctrl", "baseline", preset="test")
        # The extract pass rejects the cost only when the job runs.
        bad_config = tiny_emorphic_config()
        bad_config.extraction_cost = "bogus"
        bad = make_job("mem_ctrl", "emorphic", bad_config, preset="test")
        report = run_campaign([good, bad], store=tmp_path / "store", max_workers=1)
        assert report.counts["completed"] == 1
        assert report.counts["failed"] == 1
        assert not report.ok
        failed = report.outcomes[1]
        assert failed.status == "failed" and "unknown extraction cost 'bogus'" in (failed.error or "")

    def test_job_timeout_captured_and_campaign_returns(self, tmp_path):
        import time

        # Paper-default emorphic on a bench-scale arithmetic circuit takes
        # minutes; the campaign must bound it, keep the quick job, and return
        # promptly.  (At the test preset the flow now finishes in about 3 s,
        # too close to the timeout to count on.)
        slow = make_job("multiplier", "emorphic", preset="bench")
        quick = make_job("mem_ctrl", "baseline", preset="test")
        start = time.perf_counter()
        report = run_campaign([slow, quick], store=tmp_path / "store", max_workers=2, job_timeout=3)
        elapsed = time.perf_counter() - start
        assert report.counts["timeout"] == 1
        assert report.counts["completed"] == 1
        assert report.outcomes[0].status == "timeout"
        assert elapsed < 30.0

    def test_progress_events_emitted(self, tmp_path):
        events = []
        jobs = [make_job("mem_ctrl", "baseline", preset="test")]
        run_campaign(jobs, store=tmp_path / "store", max_workers=1, progress=events.append)
        assert any("completed" in event for event in events)
        assert any("1 jobs" in event for event in events)


class TestSweep:
    def test_expand_grid_and_overrides(self):
        points = expand_grid({"a": [1, 2], "b": [True, False]})
        assert len(points) == 4 and {"a": 1, "b": True} in points
        config = apply_overrides(tiny_emorphic_config().to_dict(), {"baseline.k": 4, "seed": 9})
        assert config["baseline"]["k"] == 4 and config["seed"] == 9
        with pytest.raises(KeyError):
            apply_overrides(tiny_emorphic_config().to_dict(), {"nope": 1})
        with pytest.raises(KeyError):
            apply_overrides(tiny_emorphic_config().to_dict(), {"baseline.nope": 1})

    def test_two_circuit_two_config_sweep_through_process_pool(self, tmp_path):
        report = run_sweep(
            ["adder", "mem_ctrl"],
            {"rewrite_iterations": [1, 2]},
            base_config=tiny_emorphic_config(),
            preset="test",
            store=tmp_path / "store",
            max_workers=2,
        )
        assert len(report.campaign.outcomes) == 4
        assert report.campaign.counts["completed"] == 4
        assert report.campaign.max_workers == 2

        frontier = report.frontier()
        assert set(frontier) == {"adder", "mem_ctrl"}
        for entry in frontier.values():
            assert entry["delay"] > 0
            assert entry["point"] in report.points

        # Identical re-sweep is served entirely from the store.
        again = run_sweep(
            ["adder", "mem_ctrl"],
            {"rewrite_iterations": [1, 2]},
            base_config=tiny_emorphic_config(),
            preset="test",
            store=tmp_path / "store",
            max_workers=2,
        )
        assert again.campaign.counts["cached"] == 4
        assert again.frontier() == frontier

    def test_sweep_points_render_into_pipeline_jobs(self):
        grid = {"extraction_cost": ["nodes", "bogus"]}
        jobs, points = sweep_jobs(["adder"], grid, base_config=tiny_emorphic_config(), preset="test")
        assert [point["extraction_cost"] for point in points] == ["nodes", "bogus"]
        for job, point in zip(jobs, points):
            config = tiny_emorphic_config()
            config.extraction_cost = point["extraction_cost"]
            assert job.pipeline == {"script": emorphic_pipeline(config).to_script()}
        # Every point used to run as cost=nodes; a bogus one now fails its jobs.
        assert "cost=bogus" in jobs[1].pipeline["script"]
