"""``repro.obs`` — the unified observability layer.

One span/metrics substrate for every subsystem:

* **spans** (:mod:`repro.obs.trace`) — hierarchical wall-clock scopes
  (``flow → pass → saturation iteration → rule search/apply/rebuild``,
  ``flow → pass → portfolio round → chain``) with counters attached;
* **metrics** (:mod:`repro.obs.metrics`) — a process-local registry of
  counters/gauges with a Prometheus text exposition;
* **exporters** (:mod:`repro.obs.export`) — Chrome trace-event JSON
  (Perfetto / ``about:tracing``), folded flamegraph stacks, and derivation
  tree JSON/DOT for provenance logs;
* **provenance** (:mod:`repro.obs.provenance`) — a gated recorder of which
  rule created every e-node during saturation, plus the ``RuleAttribution``
  report extraction derives from it (``emorphic explain``);
* **logging** (:mod:`repro.obs.log`) — the structured ``repro.obs.log``
  stdlib logger (console or JSON-lines formatting);
* **progress** (:mod:`repro.obs.progress`) — live rendering of orchestrate
  campaign events (``emorphic batch --progress``);
* **resource** (:mod:`repro.obs.resource`) — a gated switch: while a
  sampler is installed, every saturation run embeds its peak RSS and
  per-iteration e-graph growth curve, read off the e-graph's own counters,
  in its profile;
* **channel** (:mod:`repro.obs.channel`) — the one way the four observers
  above (tracer, provenance log, resource sampler, metrics registry) cross
  a process pool: ``installed()`` in the parent, ``capture()`` around each
  worker task, ``absorb()`` grafting each collected result's observers;
* **ledger** (:mod:`repro.obs.ledger`) — a persistent append-only run
  ledger with rolling-baseline regression checks (``emorphic history``),
  rendered as static HTML by :mod:`repro.obs.report` (``emorphic report``).

Engine profiles (``SaturationProfile``, ``ExtractionProfile``) are populated
*from* spans, so one instrumentation layer feeds the JSON payloads, the
benches and `--trace` exports.
"""

from repro.obs.channel import absorb, capture, installed
from repro.obs.export import (
    span_summary,
    to_chrome_trace,
    to_derivation_dot,
    to_derivation_json,
    to_folded_stacks,
    write_chrome_trace,
    write_derivation_dot,
    write_derivation_json,
    write_folded_stacks,
)
from repro.obs.ledger import (
    RunLedger,
    check_records,
    compare_group,
    default_ledger_path,
    flow_record,
    group_records,
    log_record,
)
from repro.obs.log import JsonFormatter, configure_logging, ensure_configured, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    prometheus_text,
    registry,
    reset_registry,
)
from repro.obs.progress import CampaignProgress
from repro.obs.provenance import (
    ProvenanceLog,
    RuleAttribution,
    RuleYield,
    attribute_extraction,
    current_recorder,
    recording,
    recording_enabled,
)
from repro.obs.report import render_history_html, write_history_html
from repro.obs.resource import (
    ResourceSampler,
    aggregate_samples,
    current_sampler,
    sampling,
    sampling_enabled,
)
from repro.obs.trace import (
    Span,
    SpanRecord,
    Tracer,
    current_tracer,
    instant,
    span,
    tracing,
    tracing_enabled,
)

__all__ = [
    "CampaignProgress",
    "Counter",
    "Gauge",
    "JsonFormatter",
    "MetricsRegistry",
    "ProvenanceLog",
    "ResourceSampler",
    "RuleAttribution",
    "RuleYield",
    "RunLedger",
    "Span",
    "SpanRecord",
    "Tracer",
    "absorb",
    "aggregate_samples",
    "attribute_extraction",
    "capture",
    "check_records",
    "compare_group",
    "configure_logging",
    "current_recorder",
    "current_sampler",
    "current_tracer",
    "default_ledger_path",
    "ensure_configured",
    "flow_record",
    "get_logger",
    "group_records",
    "installed",
    "instant",
    "log_record",
    "prometheus_text",
    "recording",
    "recording_enabled",
    "registry",
    "render_history_html",
    "reset_registry",
    "sampling",
    "sampling_enabled",
    "span",
    "span_summary",
    "to_chrome_trace",
    "to_derivation_dot",
    "to_derivation_json",
    "to_folded_stacks",
    "tracing",
    "tracing_enabled",
    "write_chrome_trace",
    "write_derivation_dot",
    "write_derivation_json",
    "write_folded_stacks",
    "write_history_html",
]
