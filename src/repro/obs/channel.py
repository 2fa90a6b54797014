"""One observer channel across process boundaries.

A pool worker must never record into the observers it inherited from its
parent: whatever it appends to those copies dies with the worker.  The
two pool sites (partition windows and campaign jobs) therefore both use the
same three calls:

* parent side, once per pool: ``kinds = installed()`` — the picklable set of
  observer kinds the caller has installed, shipped with each task;
* worker side, around each task: ``with capture(kinds) as captured: ...`` —
  installs fresh local observers of those kinds plus a fresh metrics
  registry, and leaves them in ``captured.payload`` for the task to return;
  the pool pickles them as they are;
* parent side, per collected result: ``absorb(payload)`` — grafts each
  observer into the installed observer of its kind (counters into
  :func:`~repro.obs.metrics.registry`).  The resource sampler is a switch
  with nothing to graft: a worker's samples ride in the task's results.

Records carry the recording ``pid``, and any other tag (``window=``) is
stamped where the record is produced, so ``absorb`` takes no stamps and an
inline run records exactly what a pooled run records.  Every observer lives
in a :class:`~repro.obs.trace.Slot` listed in :data:`OBSERVERS`; a new
observer is one table entry and cannot be forgotten at a pool site.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Dict, FrozenSet, Iterable, Optional

from repro.obs import metrics, provenance, resource, trace

__all__ = ["OBSERVERS", "absorb", "capture", "installed"]

#: kind -> (slot, factory of a fresh observer).  The metrics registry is
#: always installed, so it always rides the channel.
OBSERVERS = {
    "trace": (trace.TRACER, trace.Tracer),
    "provenance": (provenance.RECORDER, provenance.ProvenanceLog),
    "resource": (resource.SAMPLER, resource.ResourceSampler),
    "metrics": (metrics.REGISTRY, metrics.MetricsRegistry),
}


def installed() -> FrozenSet[str]:
    """The kinds of observer installed in this process."""
    return frozenset(kind for kind, (slot, _) in OBSERVERS.items() if slot.current is not None)


class capture:
    """Run a block under fresh local observers; keep them.

    ``kinds`` is what the parent's :func:`installed` returned (the metrics
    registry is captured either way).  The previous observers come back on
    exit, and ``payload`` maps each kind to its fresh observer.
    """

    def __init__(self, kinds: Iterable[str]) -> None:
        self.kinds = frozenset(kinds) | {"metrics"}
        self.payload: Dict[str, object] = {}

    def __enter__(self) -> "capture":
        self._scopes = ExitStack()
        self.payload = {
            kind: self._scopes.enter_context(slot.scoped(fresh()))
            for kind, (slot, fresh) in OBSERVERS.items()
            if kind in self.kinds
        }
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._scopes.close()


def absorb(payload: Optional[Dict[str, object]]) -> None:
    """Graft a worker's captured observers into this process's observers.

    An observer whose kind is not installed here is dropped.
    """
    for kind, observer in (payload or {}).items():
        target = OBSERVERS[kind][0].current
        if target is not None:
            target.graft(observer)
