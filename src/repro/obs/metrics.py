"""The metrics registry: named counters and gauges with labels.

Engines and the orchestrator publish scalar telemetry here —
``registry().counter("saturation_matches_total").inc(n)`` — and the
Prometheus-style text exposition (:func:`prometheus_text`, also available as
``registry().exposition()``) renders the whole registry in the standard
``# HELP`` / ``# TYPE`` / ``name{labels} value`` format, ready for a future
``emorphic serve`` ``/metrics`` endpoint.

The registry is process-local on purpose: :mod:`repro.obs.channel` runs
every pool task under a fresh registry (the inherited parent copy is never
the channel back) and ships it, pickled, to the parent, which folds it in
with :meth:`MetricsRegistry.graft`: counters sum, gauges take the last write
in graft order.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import Slot

__all__ = ["Counter", "Gauge", "MetricsRegistry", "prometheus_text", "registry", "reset_registry"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

LabelKey = Tuple[Tuple[str, str], ...]


def _sanitize(name: str) -> str:
    """Prometheus metric names allow ``[a-zA-Z0-9_:]``; dots become underscores."""
    return _NAME_RE.sub("_", name)


class _Metric:
    """Shared shape of one (name, labels) series."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelKey, help_text: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help_text = help_text
        self.value: float = 0.0


class Counter(_Metric):
    """Monotonically increasing value."""

    kind = "counter"

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for ups and downs")
        self.value += amount


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class MetricsRegistry:
    """All metric series of one process, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], _Metric] = {}

    def _series(self, cls, name: str, help_text: str, labels: Dict[str, str]) -> _Metric:
        name = _sanitize(name)
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], help_text)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} is already registered as a {metric.kind}")
        if help_text and not metric.help_text:
            metric.help_text = help_text
        return metric

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._series(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._series(Gauge, name, help_text, labels)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` view (stable order) for tests/JSON."""
        out: Dict[str, float] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            rendered = (
                "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}" if labels else ""
            )
            out[f"{name}{rendered}"] = metric.value
        return out

    def graft(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters sum, gauges keep the last write."""
        for (name, labels), metric in other._metrics.items():
            series = self._series(type(metric), name, metric.help_text, dict(labels))
            if metric.kind == "counter":
                series.value += metric.value
            else:
                series.value = metric.value

    def exposition(self) -> str:
        """Prometheus text exposition format of every series."""
        by_name: Dict[str, List[_Metric]] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append(metric)
        lines: List[str] = []
        for name, series in by_name.items():
            help_text = next((m.help_text for m in series if m.help_text), "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {series[0].kind}")
            for metric in series:
                rendered = (
                    "{" + ",".join(f'{k}="{v}"' for k, v in metric.labels) + "}"
                    if metric.labels
                    else ""
                )
                value = metric.value
                text = str(int(value)) if float(value).is_integer() else repr(value)
                lines.append(f"{name}{rendered} {text}")
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide default registry; always installed.
REGISTRY = Slot(MetricsRegistry())


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY.current


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh default registry (tests); returns the new one."""
    REGISTRY.current = MetricsRegistry()
    return REGISTRY.current


def prometheus_text(reg: Optional[MetricsRegistry] = None) -> str:
    """Prometheus exposition of ``reg`` (default: the process registry)."""
    return (reg or REGISTRY.current).exposition()
