"""Integration tests of the baseline and E-morphic flows plus the CLI."""

from __future__ import annotations

import pytest

from repro.benchgen import epfl
from repro.cli import build_parser, main
from repro.costmodel.hoga import HogaConfig, HogaModel
from repro.flows.baseline import BaselineConfig, run_baseline_flow
from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow


def _fast_emorphic_config(**overrides) -> EmorphicConfig:
    """A configuration small enough for unit tests (seconds, not minutes)."""
    config = EmorphicConfig(
        rewrite_iterations=2,
        max_egraph_nodes=8_000,
        rewrite_time_limit=10.0,
        num_threads=2,
        sa_iterations=2,
        moves_per_iteration=2,
        verify=True,
    )
    config.baseline.use_choices = False
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestBaselineFlow:
    def test_produces_mapping_and_improves_depth(self, small_adder):
        result = run_baseline_flow(small_adder, BaselineConfig(use_choices=False))
        assert result.area > 0 and result.delay > 0
        assert result.levels <= small_adder.stats()["levels"]
        assert {name for name, _ in result.pass_runtimes} == {"strash", "sop_balance", "map"}

    def test_choices_do_not_hurt_delay(self, small_sqrt):
        without = run_baseline_flow(small_sqrt, BaselineConfig(use_choices=False))
        with_choices = run_baseline_flow(small_sqrt, BaselineConfig(use_choices=True))
        assert with_choices.delay <= without.delay + 1e-6

    def test_result_is_equivalent_to_input(self, small_mem_ctrl):
        from repro.verify.cec import check_equivalence

        result = run_baseline_flow(small_mem_ctrl, BaselineConfig(use_choices=False))
        assert check_equivalence(small_mem_ctrl, result.aig).equivalent


class TestEmorphicFlow:
    @pytest.fixture(scope="class")
    def emorphic_result(self, small_mem_ctrl):
        return run_emorphic_flow(small_mem_ctrl, _fast_emorphic_config())

    def test_result_fields(self, emorphic_result):
        assert emorphic_result.area > 0 and emorphic_result.delay > 0
        assert emorphic_result.metrics["num_candidates"] >= 1
        assert emorphic_result.rewrite_report is not None

    def test_equivalence_verified(self, emorphic_result):
        assert emorphic_result.equivalence is not None
        assert emorphic_result.equivalence.status == "equivalent"

    def test_runtime_breakdown_components(self, emorphic_result):
        breakdown = emorphic_result.runtime_breakdown()
        assert set(breakdown) == {"abc_flow", "egraph_conversion", "sa_extraction"}
        assert all(v >= 0 for v in breakdown.values())

    def test_delay_not_worse_than_pre_resynthesis(self, emorphic_result):
        # The flow keeps the pre-resynthesis mapping when no candidate beats it.
        assert emorphic_result.delay <= emorphic_result.metrics["premap_delay"] + 1e-6

    @pytest.mark.parametrize("cost", ["area", "bogus"])
    def test_unknown_extraction_cost_is_rejected(self, small_mem_ctrl, cost):
        # Every cost but "depth" used to run silently as extract(cost=nodes).
        from repro.pipeline import PipelineError

        config = _fast_emorphic_config(extraction_cost=cost)
        message = f"unknown extraction cost '{cost}'; choose from depth, nodes"
        with pytest.raises(PipelineError, match=message):
            run_emorphic_flow(small_mem_ctrl, config)

    def test_ml_mode_uses_model(self, small_mem_ctrl):
        import numpy as np

        model = HogaModel(HogaConfig(epochs=20, hidden_dim=8, seed=0))
        feats = np.stack([model.featurize(small_mem_ctrl), model.featurize(small_mem_ctrl) * 1.05])
        model.fit(feats, np.array([80.0, 100.0]))
        config = _fast_emorphic_config(use_ml_model=True, ml_model=model)
        result = run_emorphic_flow(small_mem_ctrl, config)
        assert result.equivalence.status == "equivalent"
        assert result.delay > 0


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["stats", "adder", "--preset", "test"])
        assert args.circuit == "adder"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "hyp" in out

    def test_stats_command(self, capsys):
        assert main(["stats", "mem_ctrl", "--preset", "test"]) == 0
        assert "ands=" in capsys.readouterr().out

    def test_stats_from_aag_file(self, tmp_path, capsys, small_mem_ctrl):
        from repro.aig.io_aiger import write_aag

        path = tmp_path / "c.aag"
        write_aag(small_mem_ctrl, path)
        assert main(["stats", str(path)]) == 0
        assert "ands=" in capsys.readouterr().out

    def test_baseline_command(self, capsys):
        assert main(["baseline", "mem_ctrl", "--preset", "test", "--no-choices"]) == 0
        out = capsys.readouterr().out
        assert "area=" in out and "delay=" in out
