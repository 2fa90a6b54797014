"""Tests of the dual cost models: mapping-based QoR and the HOGA-like regressor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen import arithmetic, control, epfl
from repro.costmodel.abc_cost import MappingCostModel
from repro.costmodel.features import FeatureConfig, circuit_features, hop_features, node_features
from repro.costmodel.hoga import HogaConfig, HogaModel
from repro.costmodel.train import evaluate_model, generate_dataset, structural_variants, train_cost_model


class TestMappingCostModel:
    def test_evaluate_returns_positive_qor(self, small_sqrt, library):
        model = MappingCostModel(library=library)
        qor = model.evaluate_aig(small_sqrt)
        assert qor.area > 0 and qor.delay > 0 and qor.num_gates > 0

    def test_cache_hits_do_not_remap(self, small_sqrt, library):
        model = MappingCostModel(library=library)
        model.evaluate_aig(small_sqrt)
        evaluations = model.num_evaluations
        model.evaluate_aig(small_sqrt)
        assert model.num_evaluations == evaluations


class TestFeatures:
    def test_node_feature_shape(self, small_sqrt):
        feats = node_features(small_sqrt)
        assert feats.shape == (small_sqrt.num_nodes, 8)
        assert np.all(feats >= 0) and np.all(feats <= 1.0 + 1e-9)

    def test_hop_features_concatenate(self, small_sqrt):
        config = FeatureConfig(num_hops=2)
        feats = hop_features(small_sqrt, config)
        assert feats.shape == (small_sqrt.num_nodes, 8 * 3)

    def test_circuit_features_fixed_size(self, small_sqrt, small_mem_ctrl):
        config = FeatureConfig()
        f1 = circuit_features(small_sqrt, config)
        f2 = circuit_features(small_mem_ctrl, config)
        assert f1.shape == f2.shape == (config.circuit_dim,)

    def test_features_distinguish_depth(self):
        shallow = control.random_control(num_inputs=12, num_outputs=4, terms_per_output=3, seed=1)
        deep = arithmetic.multiplier(4)
        f_shallow = circuit_features(shallow)
        f_deep = circuit_features(deep)
        assert not np.allclose(f_shallow, f_deep)


class TestHogaModel:
    def _toy_dataset(self, n=40, dim=12, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        y = np.exp(1.0 + 0.5 * x[:, 0] - 0.3 * x[:, 1])  # positive "delays"
        return x, y

    def test_fit_reduces_loss(self):
        x, y = self._toy_dataset()
        model = HogaModel(HogaConfig(epochs=120, hidden_dim=16, seed=1))
        losses = model.fit(x, y)
        assert losses[-1] < losses[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HogaModel().predict_features(np.zeros(4))

    def test_predictions_positive(self):
        x, y = self._toy_dataset()
        model = HogaModel(HogaConfig(epochs=80, seed=2))
        model.fit(x, y)
        preds = model.predict_features(x)
        assert np.all(preds > 0)

    def test_save_and_load_roundtrip(self, tmp_path):
        x, y = self._toy_dataset()
        model = HogaModel(HogaConfig(epochs=50, seed=3))
        model.fit(x, y)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = HogaModel.load(path)
        assert np.allclose(model.predict_features(x), loaded.predict_features(x))

    def test_predict_aig_runs(self, small_sqrt):
        model = HogaModel(HogaConfig(epochs=30, seed=4))
        feats = np.stack([model.featurize(small_sqrt), model.featurize(small_sqrt) * 1.1])
        model.fit(feats, np.array([100.0, 120.0]))
        assert model.predict_aig(small_sqrt) > 0


class TestTraining:
    def test_structural_variants_are_equivalent(self, small_mem_ctrl):
        from repro.aig.simulate import random_simulate

        variants = structural_variants(small_mem_ctrl, num_variants=4, seed=1)
        assert len(variants) >= 2
        reference = random_simulate(small_mem_ctrl, 2, seed=55)
        for variant in variants:
            assert random_simulate(variant, 2, seed=55) == reference

    def test_generate_dataset_shapes(self, library):
        circuits = [epfl.build("mem_ctrl", preset="test"), epfl.build("sqrt", preset="test")]
        model = MappingCostModel(library=library)
        features, delays, origins = generate_dataset(circuits, variants_per_circuit=3, cost_model=model)
        assert features.shape[0] == len(delays) == len(origins)
        assert features.shape[0] >= 4
        assert np.all(delays > 0)

    def test_train_cost_model_reports_metrics(self, library):
        circuits = [epfl.build("mem_ctrl", preset="test"), epfl.build("sqrt", preset="test")]
        model, report = train_cost_model(
            circuits,
            variants_per_circuit=4,
            config=HogaConfig(epochs=60, hidden_dim=16, seed=7),
            cost_model=MappingCostModel(library=library),
        )
        assert report.num_train > 0 and report.num_test > 0
        assert report.mape >= 0
        assert -1.0 <= report.kendall_tau <= 1.0
        # The trained model must produce finite positive predictions.
        assert model.predict_aig(circuits[0]) > 0

    def test_evaluate_model_handles_zero_delays(self):
        model = HogaModel(HogaConfig(epochs=10))
        x = np.random.default_rng(0).normal(size=(6, 5))
        y = np.abs(np.random.default_rng(1).normal(size=6)) + 1.0
        model.fit(x, y)
        mape, tau = evaluate_model(model, x, np.zeros(6))
        assert mape == 0.0 and tau == 0.0


class TestLazyNumpy:
    def test_flows_run_without_numpy(self):
        """Importing the package and running a flow loads no numpy; the
        cost-model names still resolve on first use (a fresh interpreter,
        since this test process has numpy loaded already)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = "\n".join(
            [
                "import sys",
                "import repro",
                "from repro.benchgen import build",
                "from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow",
                "from repro.pipeline import Pipeline",
                "Pipeline.from_script('st; dag2eg; saturate(iters=1); extract(sa, threads=2, iters=2, moves=4); map; cec')"
                ".run_flow(build('adder', preset='test'))",
                "run_emorphic_flow(build('mem_ctrl', preset='test'), EmorphicConfig.fast())",
                "assert 'numpy' not in sys.modules, 'a flow imported numpy'",
                "from repro import *",
                "from repro.costmodel import HogaModel",
                "assert callable(repro.costmodel.train_cost_model) and HogaModel.__name__ == 'HogaModel'",
                "assert 'numpy' in sys.modules",
            ]
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_names_raise_attribute_error(self):
        import repro
        import repro.costmodel

        with pytest.raises(AttributeError):
            repro.no_such_module
        with pytest.raises(AttributeError):
            repro.costmodel.no_such_model
