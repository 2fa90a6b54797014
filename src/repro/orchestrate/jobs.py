"""Job specifications for campaign orchestration.

A :class:`JobSpec` pins down one unit of work — a circuit, a canonical
pipeline spec and a display tag — and derives a deterministic *content* key
from the input AIG's canonical AIGER text plus the pipeline spec.  Two jobs
with the same circuit content and the same pipeline hash identically
regardless of how the circuit was referenced (registry name vs. ``.aag``
file) or which recipe rendered the pipeline (``make_job(..., "emorphic")``
vs. the same script through ``make_pipeline_job``), so the result store can
short-circuit repeated work across invocations.

Everything in this module is picklable: specs cross the process pool, and
worker processes resolve circuit references locally instead of receiving
AIG objects over the wire.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.aig.graph import Aig
from repro.aig.io_aiger import aag_to_string, read_aag
from repro.benchgen import epfl
from repro.flows.baseline import BaselineConfig, baseline_pipeline
from repro.flows.emorphic import EmorphicConfig, emorphic_pipeline
from repro.obs import trace as obs
from repro.obs.channel import capture
from repro.pipeline import Pipeline

#: Bump when the record layout or hash recipe changes: old store entries
#: become unreachable instead of being misread.
#: 2: flows run as pass pipelines — per-phase runtimes are derived from per-pass
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
#: 12: every job is a pipeline job — the spec is (circuit, canonical pipeline
#:    spec, tag) and the hash covers the pipeline spec, so a named recipe and
#:    the same script share one entry; results drop their per-phase runtimes.
#: 13: results carry the final AIG's AND count (``ands``), which campaign
#:    ledger records report.
#: 14: portfolio chains run in the flow's process — ExtractionProfile
#:    payloads drop ``workers``.
SCHEMA_VERSION = 14

#: The named recipes :func:`make_job` renders: config type and pipeline.
RECIPES = {
    "baseline": (BaselineConfig, baseline_pipeline),
    "emorphic": (EmorphicConfig, emorphic_pipeline),
}


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
    """One circuit through one pipeline.

    ``pipeline`` is a canonical pipeline spec
    (:meth:`repro.pipeline.Pipeline.to_spec`), so flow *shapes* — not just
    config values — participate in the job hash and the result cache.
    """

    circuit: CircuitRef
    pipeline: Dict[str, object]
    #: Report column of the job (e.g. "emorphic_ml"); not part of the job hash.
    tag: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.tag or 'pipeline'}:{self.circuit.label}"

    def job_hash(self) -> str:
        """Deterministic content key: input AIG text + canonical pipeline spec."""
        payload = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "code": code_fingerprint(),
                "aig": self.circuit.content(),
                "pipeline": self.pipeline,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def to_dict(self) -> Dict[str, object]:
        return {"circuit": self.circuit.to_dict(), "pipeline": dict(self.pipeline), "tag": self.tag}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        return cls(
            circuit=CircuitRef.from_dict(data["circuit"]),
            pipeline=dict(data["pipeline"]),
            tag=data.get("tag"),
        )


def make_job(
    circuit: Union[str, CircuitRef],
    recipe: str,
    config: Union[None, Dict[str, object], BaselineConfig, EmorphicConfig] = None,
    preset: str = "bench",
    tag: Optional[str] = None,
) -> JobSpec:
    """A job running a named recipe (``"baseline"`` or ``"emorphic"``).

    ``config`` is the recipe's config object or its ``to_dict`` payload
    (default: the recipe's defaults).  The recipe is rendered into its
    pipeline, so the job hashes — and caches — as that pipeline's script.
    The tag defaults to the recipe name, ``emorphic_ml`` for the ML mode.
    """
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}; expected one of {tuple(RECIPES)}")
    config_type, render = RECIPES[recipe]
    if config is None:
        config = config_type()
    elif isinstance(config, dict):
        config = config_type.from_dict(config)
    if tag is None:
        tag = f"{recipe}_ml" if getattr(config, "use_ml_model", False) else recipe
    return make_pipeline_job(circuit, render(config), preset=preset, tag=tag)


def make_pipeline_job(
    circuit: Union[str, CircuitRef],
    pipeline: Union[str, Dict[str, object], Pipeline],
    preset: str = "bench",
    tag: Optional[str] = None,
) -> JobSpec:
    """A job running an arbitrary scripted pipeline on one circuit.

    ``pipeline`` may be script text, a spec dict, or a
    :class:`~repro.pipeline.Pipeline`; all are normalized to the canonical
    spec, so equivalent spellings of the same flow shape hash — and cache —
    identically.
    """
    if isinstance(circuit, str):
        circuit = CircuitRef.make(circuit, preset=preset)
    if not isinstance(pipeline, Pipeline):
        pipeline = Pipeline.from_spec(pipeline)
    return JobSpec(circuit=circuit, pipeline=pipeline.to_spec(), tag=tag)


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
    observers under ``record["obs"]``, which the executor absorbs and strips
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
    with obs.span("job", category="orchestrate", label=spec.label):
        result = Pipeline.from_spec(spec.pipeline).run_flow(aig)
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
