"""Gated resource sampler: peak RSS and per-iteration e-graph growth curves.

The sampler is a switch that keeps no records, gated like
:mod:`repro.obs.trace` and :mod:`repro.obs.provenance`.  While one is
installed, :class:`~repro.engine.engine.SaturationEngine` reads one
growth-curve point per iteration off counters the e-graph already keeps and
embeds the run's sample in its ``SaturationProfile``, which carries it into
window reports, partition profiles, flow results and ledger records.  With
none installed (the common case) the hot path pays nothing and every
``to_dict`` payload is byte-identical to a sampler-free build.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import Slot

__all__ = [
    "RESOURCE_SCHEMA", "ResourceSampler", "aggregate_samples", "current_sampler", "growth_point",
    "peak_rss_bytes", "run_sample", "sampling", "sampling_enabled",
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


def growth_point(iteration: int, egraph, start: Tuple[int, int]) -> Dict[str, int]:
    """One curve point: the e-graph's size after ``iteration``, and its growth
    since the run began at ``start = (num_rows, num_classes)``: ``adds`` rows
    appended (a row comes only with a new class) and ``unions`` merges made,
    rebuild's included (classes rise by one per row, fall by one per merge)."""
    rows, classes = start
    adds = egraph.num_rows - rows
    return {
        "iteration": iteration,
        "classes": egraph.num_classes,
        "nodes": egraph.num_nodes,
        "adds": adds,
        "unions": classes + adds - egraph.num_classes,
    }


def run_sample(curve: List[Dict[str, int]]) -> Dict[str, object]:
    """One sampled run's payload: the recording process and its peak RSS, the
    run's adds and unions (its last point's: the e-graph grows only inside an
    iteration), its growth curve, and ``extra`` tags (a window index)."""
    last = curve[-1] if curve else {"adds": 0, "unions": 0}
    return {
        "schema": RESOURCE_SCHEMA,
        "label": "saturation",
        "pid": os.getpid(),
        "peak_rss_bytes": peak_rss_bytes(),
        "adds": last["adds"],
        "unions": last["unions"],
        "curve": curve,
        "extra": {},
    }


class ResourceSampler:
    """The installed switch: saturation runs sample while one is installed."""

    def graft(self, other: "ResourceSampler") -> None:
        """Nothing to move: a pool task runs under a fresh sampler whenever its
        parent has one, and its samples come back inside its results."""


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


SAMPLER = Slot()


def current_sampler() -> Optional[ResourceSampler]:
    return SAMPLER.current


def sampling_enabled() -> bool:
    return SAMPLER.current is not None


def sampling():
    """Context manager: install a fresh sampler, yield it, restore the old one.

    ``with sampling(): ...`` — nested uses stack correctly (the previous
    sampler comes back on exit), the same scoped form as ``obs.tracing()``
    and ``obs_provenance.recording()``.
    """
    return SAMPLER.scoped(ResourceSampler())
