"""Hierarchical trace spans: the timing backbone of the observability layer.

A :class:`Span` is a context manager that *always* measures wall-clock with
``time.perf_counter()`` (so engine profiles can be populated from spans even
when tracing is off) and additionally records itself into the installed
:class:`Tracer` when one is active.  Spans nest — ``flow → pass → saturation
iteration → rule search/apply/rebuild`` — and carry free-form counters/gauges
in ``args`` (``sp.add("matches", n)`` / ``sp.set("classes", n)``).

Cross-process safety: a pool worker never records into the tracer it
inherited from its parent.  :mod:`repro.obs.channel` installs a fresh local
:class:`Tracer` around each pool task and ships it back, pickled, with the
result; the parent grafts it under its open span with :meth:`Tracer.graft`,
keeping the worker's nesting.  Every record carries the recording process's
``pid``, so grafted traces keep their provenance.

:class:`Slot` is the one installed-observer slot type: the tracer here, the
provenance recorder, the resource sampler and the metrics registry each live
in one, and the channel iterates them.

The tracer is deliberately single-threaded per process (one open-span stack);
the process pools above are the supported parallelism model.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Slot",
    "Span",
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "instant",
    "span",
    "tracing",
    "tracing_enabled",
]


class SpanRecord:
    """One finished (or instant) span, as stored by a :class:`Tracer`.

    ``start`` is seconds relative to the tracer's epoch; ``duration`` is
    seconds (``None`` marks an instant event).
    """

    __slots__ = ("span_id", "parent_id", "name", "category", "start", "duration", "pid", "args")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start: float,
        duration: Optional[float],
        pid: int,
        args: Dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.duration = duration
        self.pid = pid
        self.args = args


class Span:
    """A timing scope; records into ``tracer`` (when given) on exit."""

    __slots__ = ("name", "category", "args", "start", "duration", "_tracer", "_id", "_parent_id", "_t0")

    def __init__(self, name: str, category: str = "", tracer: Optional["Tracer"] = None, **args) -> None:
        self.name = name
        self.category = category
        self.args: Dict[str, object] = args
        self.start = 0.0
        self.duration = 0.0
        self._tracer = tracer
        self._id: Optional[int] = None
        self._parent_id: Optional[int] = None

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a counter on the span."""
        self.args[key] = self.args.get(key, 0) + amount

    def set(self, key: str, value: object) -> None:
        """Set a gauge/attribute on the span."""
        self.args[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            self._id, self._parent_id = tracer._open(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        self.duration = end - self._t0
        tracer = self._tracer
        if tracer is not None:
            self.start = self._t0 - tracer.epoch
            tracer._close(self)


class Tracer:
    """Collects span records for one process; grafts workers' tracers.

    The record list is append-only and ordered by span *finish* (workers'
    records are appended at graft barriers), so consumers rebuild the tree
    from ``parent_id`` links rather than relying on list order.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.records: List[SpanRecord] = []
        self.epoch = time.perf_counter()
        self._stack: List[Span] = []
        self._next_id = 0

    # -- recording (driven by Span) -----------------------------------------

    def _open(self, span: Span) -> tuple:
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1]._id if self._stack else None
        self._stack.append(span)
        return span_id, parent_id

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order exits (exceptions unwinding): pop to the span.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self.records.append(
            SpanRecord(
                span_id=span._id,
                parent_id=span._parent_id,
                name=span.name,
                category=span.category,
                start=span.start,
                duration=span.duration,
                pid=os.getpid(),
                args=dict(span.args),
            )
        )

    def instant(self, name: str, category: str = "", **args) -> None:
        """Record a zero-duration event under the currently open span."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1]._id if self._stack else None
        self.records.append(
            SpanRecord(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                category=category,
                start=time.perf_counter() - self.epoch,
                duration=None,
                pid=os.getpid(),
                args=dict(args),
            )
        )

    # -- grafting ------------------------------------------------------------

    def graft(self, other: "Tracer") -> None:
        """Move another tracer's records under the currently open span.

        ``other`` is a pool worker's tracer.  Its records move as objects:
        span ids are remapped into this tracer's id space, root spans
        (``parent_id is None``) are re-parented to the open span, and start
        times are shifted to the open span's start, so worker time shows
        within the barrier span that collected it.  The records are changed
        in place, so grafting takes ownership of ``other``: it must not be
        read again.  The worker ``pid`` is already in each record.
        """
        parent_id = self._stack[-1]._id if self._stack else None
        rebase = (self._stack[-1]._t0 - self.epoch) if self._stack else 0.0
        # Records are in finish order (children before parents), so every new
        # id is assigned before any parent link is resolved.
        id_map: Dict[int, int] = {}
        for record in other.records:
            id_map[record.span_id] = self._next_id
            self._next_id += 1
        for record in other.records:
            record.span_id = id_map[record.span_id]
            record.parent_id = id_map.get(record.parent_id, parent_id)
            record.start += rebase
        self.records.extend(other.records)

    # -- consumption ---------------------------------------------------------

    def tree(self) -> List[Dict[str, object]]:
        """The span forest as nested dicts: ``{record, children, self_time}``.

        Children are ordered by start time (stable on span id), and
        ``self_time`` is the span's duration minus its children's — the
        flamegraph "self" column.
        """
        nodes = {
            record.span_id: {"record": record, "children": [], "self_time": record.duration or 0.0}
            for record in self.records
        }
        roots: List[Dict[str, object]] = []
        for record in self.records:
            node = nodes[record.span_id]
            parent = nodes.get(record.parent_id) if record.parent_id is not None else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
                if record.duration is not None:
                    parent["self_time"] = max(0.0, parent["self_time"] - record.duration)
        key = lambda node: (node["record"].start, node["record"].span_id)  # noqa: E731
        for node in nodes.values():
            node["children"].sort(key=key)
        roots.sort(key=key)
        return roots

    def format_tree(self, max_depth: Optional[int] = None) -> str:
        """Human-readable span tree with total/self wall-clock per span."""
        lines = [f"{'total':>10s} {'self':>10s}  span"]

        def walk(node, depth):
            if max_depth is not None and depth > max_depth:
                return
            record = node["record"]
            if record.duration is None:
                lines.append(f"{'-':>10s} {'-':>10s}  {'  ' * depth}· {record.name}")
            else:
                counters = " ".join(
                    f"{k}={v}" for k, v in sorted(record.args.items()) if isinstance(v, (int, float))
                )
                lines.append(
                    f"{record.duration:9.3f}s {node['self_time']:9.3f}s  {'  ' * depth}{record.name}"
                    + (f"  [{counters}]" if counters else "")
                )
            for child in node["children"]:
                walk(child, depth + 1)

        for root in self.tree():
            walk(root, 0)
        return "\n".join(lines)


# -- the installed tracer ------------------------------------------------------


class Slot:
    """One process-wide installed-observer slot.

    ``current`` is the installed observer (None when off); :meth:`scoped`
    installs one for a ``with`` block and restores the previous one on exit,
    so nested uses stack.
    """

    __slots__ = ("current",)

    def __init__(self, current: Optional[object] = None) -> None:
        self.current = current

    @contextmanager
    def scoped(self, observer: object) -> Iterator[object]:
        previous, self.current = self.current, observer
        try:
            yield observer
        finally:
            self.current = previous


TRACER = Slot()


def current_tracer() -> Optional[Tracer]:
    return TRACER.current


def tracing_enabled() -> bool:
    return TRACER.current is not None


def span(name: str, category: str = "", **args) -> Span:
    """A span bound to the installed tracer (timing-only when tracing is off).

    The returned object always measures ``duration``, so call sites can use
    it as their sole timer; the record only lands in a trace when a tracer
    is installed.
    """
    return Span(name, category=category, tracer=TRACER.current, **args)


def instant(name: str, category: str = "", **args) -> None:
    """Record an instant event when tracing is on; no-op otherwise."""
    tracer = TRACER.current
    if tracer is not None:
        tracer.instant(name, category=category, **args)


def tracing():
    """Context manager: install a fresh tracer, yield it, restore the old one.

    ``with tracing() as tracer: ...`` is the recommended scoped form — nested
    uses stack correctly (the previous tracer comes back on exit).
    """
    return TRACER.scoped(Tracer())
