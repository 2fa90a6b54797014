"""Cost models for QoR evaluation during extraction.

Two modes, matching the paper's dual-model approach:

* quality-prioritized — :class:`MappingCostModel` runs the internal
  ABC-style technology mapper and reports post-mapping delay/area;
* runtime-prioritized — :class:`HogaModel` is a hop-wise graph attention
  regressor (HOGA-like) trained to predict mapped delay from cheap
  structural features.
"""

import importlib

from repro.costmodel.abc_cost import MappingCostModel, QoR

#: The numpy-backed names, imported from their modules on first access
#: (PEP 562), so importing the package does not load numpy.
_LAZY = {
    "FeatureConfig": "features",
    "node_features": "features",
    "circuit_features": "features",
    "HogaModel": "hoga",
    "generate_dataset": "train",
    "train_cost_model": "train",
    "evaluate_model": "train",
    "TrainReport": "train",
}

__all__ = [
    "MappingCostModel",
    "QoR",
    "FeatureConfig",
    "node_features",
    "circuit_features",
    "HogaModel",
    "generate_dataset",
    "train_cost_model",
    "evaluate_model",
    "TrainReport",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.costmodel.{module}"), name)
