"""Trace and provenance exporters: Chrome trace JSON, folded stacks, DOT.

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by Perfetto (https://ui.perfetto.dev) and Chrome's
  ``about:tracing``: complete (``"ph": "X"``) events with microsecond
  timestamps, one ``pid`` lane per recording process, plus instant
  (``"ph": "i"``) events for migrations and job lifecycle markers.
* :func:`to_folded_stacks` — Brendan Gregg's folded-stack text
  (``root;child;leaf <self-microseconds>`` per line), the input format of
  ``flamegraph.pl`` and most flamegraph viewers.

Both exporters consume a :class:`~repro.obs.trace.Tracer` (or a raw record
list), so worker tracers grafted into the parent trace export for free.

Provenance logs (:mod:`repro.obs.provenance`) export next to the trace
exporters: :func:`to_derivation_json` is the raw node/merge record payload,
and :func:`to_derivation_dot` renders the derivation tree (which rule
rewrote which class, at which iteration) as Graphviz DOT.
"""

from __future__ import annotations

import json
from typing import Dict, List, Union

from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "span_summary",
    "to_chrome_trace",
    "to_derivation_dot",
    "to_derivation_json",
    "to_folded_stacks",
    "write_chrome_trace",
    "write_derivation_dot",
    "write_derivation_json",
    "write_folded_stacks",
]


def _records(trace: Union[Tracer, List[SpanRecord]]) -> List[SpanRecord]:
    return trace.records if isinstance(trace, Tracer) else list(trace)


def to_chrome_trace(trace: Union[Tracer, List[SpanRecord]]) -> Dict[str, object]:
    """The Chrome trace-event payload: ``{"traceEvents": [...], ...}``."""
    events: List[Dict[str, object]] = []
    for record in _records(trace):
        event: Dict[str, object] = {
            "name": record.name,
            "cat": record.category or "span",
            "pid": record.pid,
            "tid": record.pid,
            "ts": round(record.start * 1e6, 3),
            "args": dict(record.args),
        }
        if record.duration is None:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = round(record.duration * 1e6, 3)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: Union[Tracer, List[SpanRecord]], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(trace), handle, indent=1)


def to_folded_stacks(trace: Union[Tracer, List[SpanRecord]]) -> str:
    """Folded-stack text: one ``a;b;c <self_us>`` line per span.

    Self time is the span's duration minus its children's, floored at zero;
    identical stacks are summed, instants are skipped.  Frame names have
    ``;`` (the stack separator) replaced with ``,``.
    """
    records = _records(trace)
    by_id = {record.span_id: record for record in records}
    children_time: Dict[int, float] = {}
    for record in records:
        if record.duration is not None and record.parent_id in by_id:
            children_time[record.parent_id] = children_time.get(record.parent_id, 0.0) + record.duration

    folded: Dict[str, int] = {}
    for record in records:
        if record.duration is None:
            continue
        frames = []
        cursor = record
        while cursor is not None:
            frames.append(cursor.name.replace(";", ","))
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id is not None else None
        stack = ";".join(reversed(frames))
        self_us = int(round(max(0.0, record.duration - children_time.get(record.span_id, 0.0)) * 1e6))
        folded[stack] = folded.get(stack, 0) + self_us
    return "\n".join(f"{stack} {value}" for stack, value in folded.items()) + ("\n" if folded else "")


def write_folded_stacks(trace: Union[Tracer, List[SpanRecord]], path: str) -> None:
    with open(path, "w") as handle:
        handle.write(to_folded_stacks(trace))


def span_summary(trace: Union[Tracer, List[SpanRecord]]) -> Dict[str, Dict[str, float]]:
    """Per-category aggregate of a trace: span count and total wall-clock.

    The compact JSON-friendly digest benches attach to their payloads
    (``{"saturation.phase": {"count": 6, "total": 0.012}, ...}``); instants
    count but contribute no time.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for record in _records(trace):
        bucket = summary.setdefault(record.category or "span", {"count": 0, "total": 0.0})
        bucket["count"] += 1
        if record.duration is not None:
            bucket["total"] += record.duration
    for bucket in summary.values():
        bucket["total"] = round(bucket["total"], 6)
    return summary


def to_derivation_json(log) -> Dict[str, object]:
    """The raw derivation payload of a :class:`~repro.obs.provenance.ProvenanceLog`.

    Node creation records (rule, iteration, matched class, substitution
    digest, pid) plus union merge records — everything attribution consumes,
    as plain JSON next to the Chrome trace.
    """
    from repro.obs.provenance import DERIVATION_SCHEMA

    payload = log.export()
    payload["schema"] = DERIVATION_SCHEMA
    return payload


def write_derivation_json(log, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(to_derivation_json(log), handle, indent=1)


def to_derivation_dot(log, max_edges: int = 2000) -> str:
    """Graphviz DOT of the derivation tree: ``matched class -> new class``
    edges labelled ``rule@iteration``, seed classes drawn as plain boxes.

    Rendered per canonical *creation-time* class id (rebuild may later merge
    ids; the JSON payload keeps the full record stream for exact analysis).
    Output is capped at ``max_edges`` derivation edges for viewability.
    """
    from repro.obs.provenance import ORIGINAL

    lines = ["digraph derivation {", "  rankdir=BT;", '  node [shape=box, fontsize=10];']
    declared = set()

    def declare(class_id: int, op: str, original: bool) -> None:
        if class_id in declared:
            return
        declared.add(class_id)
        style = ' style=filled fillcolor="lightgrey"' if original else ""
        lines.append(f'  c{class_id} [label="c{class_id}: {op}"{style}];')

    edges = 0
    truncated = 0
    for record in log.nodes:
        if record.rule == ORIGINAL:
            declare(record.class_id, record.op, original=True)
            continue
        if edges >= max_edges:
            truncated += 1
            continue
        declare(record.class_id, record.op, original=False)
        if record.matched_class is not None:
            label = f"{record.rule}@{record.iteration}"
            lines.append(f'  c{record.matched_class} -> c{record.class_id} [label="{label}"];')
            if record.matched_class not in declared:
                declare(record.matched_class, "?", original=False)
            edges += 1
    if truncated:
        lines.append(f"  // {truncated} derivation edges truncated (max_edges={max_edges})")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_derivation_dot(log, path: str, max_edges: int = 2000) -> None:
    with open(path, "w") as handle:
        handle.write(to_derivation_dot(log, max_edges=max_edges))
