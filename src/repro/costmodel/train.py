"""Dataset generation and training for the learned cost model.

The paper trains HOGA on 100 structural variants per OpenABC-D design with
mapped-delay labels.  We reproduce the pipeline at reproduction scale: for
every training circuit we synthesise structural variants (optimization
scripts plus randomised e-graph extractions), label each with the internal
mapper, train the regressor, and report MAPE and Kendall's tau — the same
metrics the paper quotes (25.2% MAPE, tau = 0.62).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.graph import Aig
from repro.costmodel.abc_cost import MappingCostModel
from repro.costmodel.hoga import HogaConfig, HogaModel


@dataclass
class TrainReport:
    """Evaluation metrics of the trained cost model."""

    mape: float
    kendall_tau: float
    num_train: int
    num_test: int
    loss_trace: List[float] = field(default_factory=list)


def structural_variants(aig: Aig, num_variants: int, seed: int = 0, max_egraph_nodes: int = 20_000) -> List[Aig]:
    """Generate structurally diverse but functionally equivalent variants."""
    from repro.conversion.dag2eg import aig_to_egraph
    from repro.conversion.eg2dag import extraction_to_aig
    from repro.egraph.rules import boolean_rules
    from repro.engine.engine import EngineLimits, saturate_engine
    from repro.extraction.cost import DepthCost, NodeCountCost
    from repro.extraction.sa import generate_neighbor
    from repro.extraction.greedy import greedy_extract
    from repro.opt.balance import balance
    from repro.opt.rewrite import rewrite
    from repro.opt.sop_balance import sop_balance

    rng = random.Random(seed)
    variants: List[Aig] = [aig.strash()]
    # Script-based variants.
    for script in (balance, rewrite, sop_balance):
        if len(variants) >= num_variants:
            break
        try:
            variants.append(script(aig))
        except Exception:
            continue
    # E-graph extraction variants.
    if len(variants) < num_variants:
        circuit = aig_to_egraph(aig)
        saturate_engine(
            circuit.egraph,
            boolean_rules(),
            EngineLimits(max_iterations=2, max_nodes=max_egraph_nodes, time_limit=10.0),
            scheduler="simple",
            dedup_matches=False,
        )
        base = greedy_extract(circuit.egraph, NodeCountCost())
        cost_fns = [NodeCountCost(), DepthCost()]
        while len(variants) < num_variants:
            cost_fn = cost_fns[len(variants) % len(cost_fns)]
            neighbor = generate_neighbor(
                circuit.egraph, base, cost_fn, p_random=0.3, rng=random.Random(rng.randrange(1 << 30))
            )
            try:
                variants.append(extraction_to_aig(circuit, neighbor, name=f"{aig.name}_v{len(variants)}"))
            except KeyError:
                break
    return variants[:num_variants]


def generate_dataset(
    circuits: Sequence[Aig],
    variants_per_circuit: int = 10,
    cost_model: Optional[MappingCostModel] = None,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Build (features, mapped delays, origin names) over structural variants."""
    if cost_model is None:
        cost_model = MappingCostModel()
    model = HogaModel()
    features: List[np.ndarray] = []
    delays: List[float] = []
    origins: List[str] = []
    for idx, aig in enumerate(circuits):
        for variant in structural_variants(aig, variants_per_circuit, seed=seed + idx):
            qor = cost_model.evaluate_aig(variant)
            features.append(model.featurize(variant))
            delays.append(qor.delay)
            origins.append(aig.name)
    return np.asarray(features), np.asarray(delays), origins


def _kendall_tau(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Kendall's tau-a rank correlation (scipy-free fallback kept for clarity)."""
    try:
        from scipy.stats import kendalltau

        tau, _ = kendalltau(y_true, y_pred)
        return float(tau) if tau == tau else 0.0  # NaN guard
    except Exception:
        n = len(y_true)
        concordant = discordant = 0
        for i in range(n):
            for j in range(i + 1, n):
                a = np.sign(y_true[i] - y_true[j])
                b = np.sign(y_pred[i] - y_pred[j])
                if a * b > 0:
                    concordant += 1
                elif a * b < 0:
                    discordant += 1
        total = n * (n - 1) / 2
        return (concordant - discordant) / total if total else 0.0


def evaluate_model(model: HogaModel, features: np.ndarray, delays: np.ndarray) -> Tuple[float, float]:
    """(MAPE %, Kendall tau) of the model on a labelled set."""
    preds = model.predict_features(features)
    delays = np.asarray(delays, dtype=np.float64)
    nonzero = delays > 1e-9
    if not np.any(nonzero):
        return 0.0, 0.0
    mape = float(np.mean(np.abs(preds[nonzero] - delays[nonzero]) / delays[nonzero]) * 100.0)
    tau = _kendall_tau(delays, preds)
    return mape, tau


def train_cost_model(
    circuits: Sequence[Aig],
    variants_per_circuit: int = 10,
    test_fraction: float = 0.25,
    config: Optional[HogaConfig] = None,
    cost_model: Optional[MappingCostModel] = None,
    seed: int = 0,
) -> Tuple[HogaModel, TrainReport]:
    """End-to-end training: dataset generation, fitting, and held-out evaluation."""
    features, delays, _ = generate_dataset(
        circuits, variants_per_circuit=variants_per_circuit, cost_model=cost_model, seed=seed
    )
    n = len(delays)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(n * test_fraction)) if n > 4 else 1
    test_idx, train_idx = order[:n_test], order[n_test:]
    if len(train_idx) == 0:
        train_idx = test_idx

    model = HogaModel(config)
    losses = model.fit(features[train_idx], delays[train_idx])
    mape, tau = evaluate_model(model, features[test_idx], delays[test_idx])
    report = TrainReport(
        mape=mape, kendall_tau=tau, num_train=len(train_idx), num_test=len(test_idx), loss_trace=losses
    )
    return model, report


def default_ml_model(seed: int = 0) -> HogaModel:
    """A small default cost model trained on tiny circuits.

    Used where a job asks for ``use_ml_model=True`` but no trained instance is
    at hand — the ``emorphic run --use-ml-model`` CLI path and orchestration
    worker processes (a model instance is not part of a job's identity, so it
    is never pickled across the pool).
    """
    from repro.benchgen import epfl

    circuits = [epfl.build(name, preset="test") for name in ("adder", "sqrt", "arbiter")]
    model, _ = train_cost_model(
        circuits,
        variants_per_circuit=4,
        config=HogaConfig(epochs=100, hidden_dim=16, seed=seed),
        seed=seed,
    )
    return model
