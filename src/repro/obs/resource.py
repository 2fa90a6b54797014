"""Gated resource sampler: peak RSS and per-iteration e-graph growth curves.

Mirrors the installed-observer gate of :mod:`repro.obs.trace` and
:mod:`repro.obs.provenance`: when no :class:`ResourceSampler` is installed
(the common case) the saturation hot path pays nothing and every ``to_dict``
payload is byte-identical to a sampler-free build.  When one is installed,
:class:`~repro.engine.engine.SaturationEngine` opens a per-run scope that

* attaches to the e-graph through the observer protocol and counts
  ``on_add``/``on_union`` events,
* takes one ``(classes, nodes)`` snapshot per saturation iteration — the
  growth curve the ROADMAP names as the signal for adaptive window sizing,
* records the process's peak RSS watermark when the run ends,

and embeds the finished :class:`ResourceSample` in the run's
``SaturationProfile`` (and from there in flow results and ledger records).

Cross-process safety follows the tracer exactly: :mod:`repro.obs.channel`
installs a *fresh* local sampler around each pool task and ships it back,
pickled, to the parent, which appends its samples with
:meth:`ResourceSampler.graft`.  Every sample carries
the recording process's ``pid``, and tags such as ``window=`` are stamped
where the sample is taken, so a pooled run records exactly what an inline
run records.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional

from repro.obs.trace import Slot

__all__ = [
    "RESOURCE_SCHEMA",
    "ResourceSample",
    "ResourceSampler",
    "aggregate_samples",
    "current_sampler",
    "peak_rss_bytes",
    "sampling",
    "sampling_enabled",
]

#: Version of the sample payload embedded in profiles and ledger records.
RESOURCE_SCHEMA = 1


def peak_rss_bytes() -> int:
    """This process's peak resident-set watermark, in bytes (0 if unknown).

    Uses the stdlib :mod:`resource` module; ``ru_maxrss`` is kilobytes on
    Linux and bytes on macOS.  The watermark is process-lifetime, so a
    sample's value bounds the run's usage from above rather than isolating
    it — good enough for regression trending and window sizing.
    """
    try:
        import resource as _resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


class ResourceSample:
    """One sampled scope: growth curve, event counts, RSS watermark.

    ``curve`` is a list of per-iteration points
    ``{"iteration", "classes", "nodes", "adds", "unions"}`` (``adds`` and
    ``unions`` cumulative since the scope opened); RSS-only samples (e.g.
    portfolio rounds, which never grow an e-graph) have an empty curve.
    """

    __slots__ = ("label", "pid", "peak_rss_bytes", "adds", "unions", "curve", "extra")

    def __init__(
        self,
        label: str,
        pid: Optional[int] = None,
        peak_rss: int = 0,
        adds: int = 0,
        unions: int = 0,
        curve: Optional[List[Dict[str, int]]] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.label = label
        self.pid = os.getpid() if pid is None else pid
        self.peak_rss_bytes = peak_rss
        self.adds = adds
        self.unions = unions
        self.curve: List[Dict[str, int]] = curve if curve is not None else []
        self.extra: Dict[str, object] = extra if extra is not None else {}

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": RESOURCE_SCHEMA,
            "label": self.label,
            "pid": self.pid,
            "peak_rss_bytes": self.peak_rss_bytes,
            "adds": self.adds,
            "unions": self.unions,
            "curve": [dict(point) for point in self.curve],
            "extra": dict(self.extra),
        }


class _RunScope:
    """An open sampling scope; implements the e-graph observer protocol.

    The engine drives it: :meth:`snapshot` once per iteration (after
    rebuild, with the counters the iteration report already reads), and the
    observer callbacks count structural events in between.  Countering is
    two integer increments per event — cheap enough that the sampler's
    measured overhead is reported by ``saturate-bench`` (the ``resource``
    probe of :mod:`repro.pipeline.bench`) rather than assumed.
    """

    __slots__ = ("sample", "_egraph", "_adds", "_unions")

    def __init__(self, sample: ResourceSample, egraph=None) -> None:
        self.sample = sample
        self._egraph = egraph
        self._adds = 0
        self._unions = 0

    # -- e-graph observer protocol --------------------------------------------

    def on_add(self, class_id: int, enode) -> None:
        self._adds += 1

    def on_union(self, root: int, other: int) -> None:
        self._unions += 1

    # -- driven by the engine ---------------------------------------------------

    def snapshot(self, iteration: int, classes: int, nodes: int) -> None:
        """Record one growth-curve point (cumulative adds/unions to date)."""
        self.sample.curve.append(
            {
                "iteration": iteration,
                "classes": classes,
                "nodes": nodes,
                "adds": self._adds,
                "unions": self._unions,
            }
        )


class ResourceSampler:
    """Collects resource samples for one process; grafts workers' samplers."""

    def __init__(self) -> None:
        self.samples: List[ResourceSample] = []

    # -- scopes (driven by the engine) ------------------------------------------

    def begin(self, egraph=None, label: str = "saturation") -> _RunScope:
        """Open a sampling scope, attaching to ``egraph`` when given."""
        scope = _RunScope(ResourceSample(label), egraph)
        if egraph is not None:
            egraph.attach_observer(scope)
        return scope

    def end(self, scope: _RunScope) -> ResourceSample:
        """Close a scope: detach, stamp the RSS watermark, keep the sample."""
        if scope._egraph is not None:
            scope._egraph.detach_observer(scope)
            scope._egraph = None
        sample = scope.sample
        sample.adds = scope._adds
        sample.unions = scope._unions
        sample.peak_rss_bytes = peak_rss_bytes()
        self.samples.append(sample)
        return sample

    def note(self, label: str, **extra) -> ResourceSample:
        """Record a curve-less RSS watermark sample (e.g. a pool worker)."""
        sample = ResourceSample(label, peak_rss=peak_rss_bytes(), extra=dict(extra))
        self.samples.append(sample)
        return sample

    def graft(self, other: "ResourceSampler", **stamps) -> None:
        """Append another sampler's samples, stamping ``stamps`` tags.

        ``other`` is a partition window's scoped sampler or a pool worker's.
        Tags are written into each sample's ``extra`` in place with
        ``setdefault``, so a tag the worker already applied (e.g. a window
        index stamped inside the pool task) survives the graft, and a
        stamping graft takes ownership of ``other``.
        """
        for sample in other.samples:
            for key, value in stamps.items():
                sample.extra.setdefault(key, value)
        self.samples.extend(other.samples)


def aggregate_samples(samples: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """Summarize a list of sample dicts into one flow-level payload.

    ``peak_rss_bytes`` is the max across processes (each sample's watermark
    already bounds its process), event counts sum, and the per-sample curves
    are preserved so window-level growth stays inspectable downstream.
    """
    if not samples:
        return None
    return {
        "schema": RESOURCE_SCHEMA,
        "samples": len(samples),
        "pids": sorted({int(s.get("pid", 0)) for s in samples}),
        "peak_rss_bytes": max(int(s.get("peak_rss_bytes", 0)) for s in samples),
        "adds": sum(int(s.get("adds", 0)) for s in samples),
        "unions": sum(int(s.get("unions", 0)) for s in samples),
        "curves": [
            {"label": s.get("label", ""), "extra": dict(s.get("extra", {})), "curve": list(s.get("curve", []))}
            for s in samples
            if s.get("curve")
        ],
    }


# -- the installed sampler -------------------------------------------------------

SAMPLER = Slot()


def current_sampler() -> Optional[ResourceSampler]:
    return SAMPLER.current


def sampling_enabled() -> bool:
    return SAMPLER.current is not None


def sampling(sampler: Optional[ResourceSampler] = None):
    """Context manager: install a fresh sampler, yield it, restore the old one.

    ``with sampling() as sampler: ...`` — nested uses stack correctly (the
    previous sampler comes back on exit), the same scoped form as
    ``obs.tracing()`` and ``obs_provenance.recording()``.
    """
    return SAMPLER.scoped(sampler or ResourceSampler())
