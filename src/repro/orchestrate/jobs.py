"""Job specifications for campaign orchestration.

A :class:`JobSpec` pins down one unit of work — a circuit, a flow, and a
serialized flow configuration — and derives a deterministic *content* key
from the input AIG's canonical AIGER text plus the config.  Two jobs with
the same circuit content and the same config hash identically regardless of
how the circuit was referenced (registry name vs. ``.aag`` file), so the
result store can short-circuit repeated work across invocations.

Everything in this module is picklable: specs cross the process pool, and
worker processes resolve circuit references locally instead of receiving
AIG objects over the wire.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple, Union

from repro.aig.graph import Aig
from repro.aig.io_aiger import aag_to_string, read_aag
from repro.benchgen import epfl
from repro.flows.baseline import BaselineConfig, run_baseline_flow
from repro.flows.emorphic import EmorphicConfig, run_emorphic_flow
from repro.obs import trace as obs
from repro.obs.channel import capture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.pipeline import Pipeline

#: Bump when the record layout or hash recipe changes: old store entries
#: become unreachable instead of being misread.
#: 2: flows run as pass pipelines — phase_runtimes are derived from per-pass
#:    timings (candidate AIG reconstruction now counts toward extraction,
#:    not final_map), and results carry pass_runtimes.
#: 3: saturation runs on the engine subsystem — EmorphicConfig carries
#:    the scheduler, op-index and dedup knobs, and result payloads embed the
#:    full SaturationProfile under "saturation".
#: 4: extraction runs on the island-parallel portfolio engine by default —
#:    EmorphicConfig carries extraction_engine/migrate_every, and result
#:    payloads embed the ExtractionProfile under "extraction".
#: 5: pipeline results embed the PartitionProfile under "partition" when a
#:    script runs the partition/stitch passes.
#: 6: flow results embed the RuleAttribution under "attribution" when a
#:    provenance recorder is installed (``emorphic explain`` / ``--provenance``),
#:    and PartitionProfile payloads carry per-window/aggregated attribution.
#: 7: flow results embed resource telemetry (peak RSS, e-graph growth curves)
#:    under "resource" when a resource sampler is installed
#:    (``--sample-resources``), and SaturationProfile payloads carry a
#:    per-run sample.
#: 8: EmorphicConfig grows the ``matcher`` field (e-matching strategy) and
#:    SaturationProfile payloads carry ``matcher``.
#: 9: the batched matcher is the only one — EmorphicConfig drops its
#:    matcher and op-index fields (``RETIRED_FIELDS``: old payloads still
#:    load, the keys are dropped) and SaturationProfile payloads drop
#:    ``indexed``.
#: 10: the portfolio is the only extractor — EmorphicConfig drops
#:    extraction_engine/p_random/initial_temperature/pruned
#:    (``RETIRED_FIELDS``) and pipeline metrics drop ``extraction_engine``.
#: 11: the delta evaluator is the only one — ExtractionProfile payloads drop
#:    ``engine`` and ``evaluator``, and their chain records drop ``evaluator``.
SCHEMA_VERSION = 11

FLOWS = ("baseline", "emorphic", "pipeline")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Content hash of the ``repro`` package sources.

    Folded into every job hash so stored results are only reused while the
    code that produced them is unchanged — after an algorithm edit a cached
    campaign re-runs instead of silently reporting the old numbers.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CircuitRef:
    """A reference to a circuit that worker processes can resolve locally.

    Either a registered benchmark name (resolved through
    :func:`repro.benchgen.epfl.build` with ``preset`` and ``overrides``) or a
    path to an ASCII AIGER file (when ``name`` ends in ``.aag``).
    """

    name: str
    preset: str = "bench"
    overrides: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def make(cls, name: str, preset: str = "bench", **overrides) -> "CircuitRef":
        return cls(name=name, preset=preset, overrides=tuple(sorted(overrides.items())))

    @property
    def is_file(self) -> bool:
        return self.name.endswith(".aag")

    @property
    def label(self) -> str:
        return Path(self.name).stem if self.is_file else self.name

    def build(self) -> Aig:
        """Materialize the AIG (fresh object, safe to hand to a flow)."""
        if self.is_file:
            return read_aag(self.name)
        return epfl.build(self.name, preset=self.preset, **dict(self.overrides))

    def content(self) -> str:
        """Canonical AIGER text of the referenced circuit."""
        if self.is_file:
            return aag_to_string(read_aag(self.name))
        return epfl.circuit_content(self.name, preset=self.preset, **dict(self.overrides))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "preset": self.preset,
            "overrides": [list(pair) for pair in self.overrides],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CircuitRef":
        return cls(
            name=str(data["name"]),
            preset=str(data.get("preset", "bench")),
            overrides=tuple((str(k), v) for k, v in data.get("overrides", [])),
        )


@dataclass
class JobSpec:
    """One circuit through one flow under one configuration.

    ``flow="pipeline"`` jobs carry a canonical pipeline spec
    (:meth:`repro.pipeline.Pipeline.to_spec`) as their config, so arbitrary
    flow *shapes* — not just config values — participate in the job hash and
    the result cache.
    """

    circuit: CircuitRef
    flow: str  # "baseline", "emorphic", or "pipeline"
    config: Dict[str, object] = field(default_factory=dict)
    #: Free-form tag distinguishing variants of the same flow in reports
    #: (e.g. "emorphic_ml"); not part of the job hash.
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.flow not in FLOWS:
            raise ValueError(f"unknown flow {self.flow!r}; expected one of {FLOWS}")

    @property
    def label(self) -> str:
        return f"{self.tag or self.flow}:{self.circuit.label}"

    def job_hash(self) -> str:
        """Deterministic content key: input AIG text + flow + canonical config."""
        payload = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "code": code_fingerprint(),
                "aig": self.circuit.content(),
                "flow": self.flow,
                "config": self.config,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit.to_dict(),
            "flow": self.flow,
            "config": dict(self.config),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        return cls(
            circuit=CircuitRef.from_dict(data["circuit"]),
            flow=str(data["flow"]),
            config=dict(data.get("config", {})),
            tag=data.get("tag"),
        )


def make_job(
    circuit: Union[str, CircuitRef],
    flow: str,
    config: Union[None, Dict[str, object], BaselineConfig, EmorphicConfig] = None,
    preset: str = "bench",
    tag: Optional[str] = None,
) -> JobSpec:
    """Convenience constructor accepting config objects or plain dicts."""
    if isinstance(circuit, str):
        circuit = CircuitRef.make(circuit, preset=preset)
    if config is None:
        if flow == "pipeline":
            raise ValueError("pipeline jobs need a script/spec; use make_pipeline_job")
        config = BaselineConfig() if flow == "baseline" else EmorphicConfig()
    if isinstance(config, (BaselineConfig, EmorphicConfig)):
        config = config.to_dict()
    return JobSpec(circuit=circuit, flow=flow, config=dict(config), tag=tag)


def make_pipeline_job(
    circuit: Union[str, CircuitRef],
    pipeline: Union[str, Dict[str, object], "Pipeline"],
    preset: str = "bench",
    tag: Optional[str] = None,
) -> JobSpec:
    """A job running an arbitrary scripted pipeline on one circuit.

    ``pipeline`` may be script text, a spec dict, or a
    :class:`~repro.pipeline.Pipeline`; all are normalized to the canonical
    spec, so equivalent spellings of the same flow shape hash — and cache —
    identically.
    """
    from repro.pipeline import Pipeline

    if isinstance(circuit, str):
        circuit = CircuitRef.make(circuit, preset=preset)
    if not isinstance(pipeline, Pipeline):
        pipeline = Pipeline.from_spec(pipeline)
    return JobSpec(circuit=circuit, flow="pipeline", config=pipeline.to_spec(), tag=tag)


# The default ML model is trained at most once per worker process and reused
# by every ML-mode job the worker executes.
_ML_MODEL_CACHE: Dict[int, object] = {}


def _worker_ml_model(seed: int = 0):
    if seed not in _ML_MODEL_CACHE:
        from repro.costmodel.train import default_ml_model

        _ML_MODEL_CACHE[seed] = default_ml_model(seed=seed)
    return _ML_MODEL_CACHE[seed]


def run_job(
    spec: JobSpec,
    key: Optional[str] = None,
    observers: Optional[FrozenSet[str]] = None,
) -> Dict[str, object]:
    """Execute one job and return its store record (runs inside workers).

    ``key`` is the precomputed job hash; when omitted it is derived from the
    spec (hashing re-renders the circuit content, so callers that already
    hold the key should pass it).  ``observers`` (set by the pool executor
    to the campaign's :func:`~repro.obs.channel.installed` kinds) runs the
    job under :func:`~repro.obs.channel.capture` and ships the captured
    buffers under ``record["obs"]``, which the executor absorbs and strips
    before the record is stored.
    """
    if observers is not None:
        with capture(observers) as captured:
            record = run_job(spec, key)
        record["obs"] = captured.payload
        return record
    aig = spec.circuit.build()
    # Wall-clock timestamp of the record (when the run happened); durations
    # below are measured with the monotonic perf_counter clock instead.
    started = time.time()
    t0 = time.perf_counter()
    with obs.span("job", category="orchestrate", label=spec.label, flow=spec.flow):
        if spec.flow == "baseline":
            result = run_baseline_flow(aig, BaselineConfig.from_dict(spec.config))
        elif spec.flow == "pipeline":
            from repro.pipeline import Pipeline

            result = Pipeline.from_spec(spec.config).run_flow(aig)
        else:
            config = EmorphicConfig.from_dict(spec.config)
            if config.use_ml_model and config.ml_model is None:
                config.ml_model = _worker_ml_model()
            result = run_emorphic_flow(aig, config)
    wall_time = time.perf_counter() - t0
    return {
        "schema": SCHEMA_VERSION,
        "key": key or spec.job_hash(),
        "job": spec.to_dict(),
        "result": result.to_dict(),
        "aig_aag": aag_to_string(result.aig),
        "wall_time": wall_time,
        "timestamp": started,
    }
