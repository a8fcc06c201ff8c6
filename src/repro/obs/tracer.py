"""Hierarchical tracing with per-span I/O attribution.

Every claim in the paper is an I/O-count claim, and after the service
and kernel layers the repo has several *places* where those I/Os can
happen — plan lookup, chunk DWT, SHIFT scatter, buffer-pool faults,
query execution on worker threads.  This module attributes them: a
:class:`Tracer` produces hierarchical :class:`Span`\\ s (context
managers, propagated through a :mod:`contextvars` variable so nested
calls attach to the right parent and worker threads can attach
explicitly), and the instrumented storage layers *charge* each I/O to
the innermost active span of the current thread.  Because charging
mirrors — never replaces — the shared
:class:`~repro.storage.iostats.IOStats` bumps, enabling tracing cannot
change any counter the experiments report; and because charges that
occur outside any span land in the tracer's ``orphan_io`` bucket,
attribution is *lossless*: summing every span's ``io`` plus
``orphan_io`` reproduces the global ``IOStats`` delta exactly.

Tracing is **off by default** and zero-cost when off: the module-level
tracer is a shared :class:`NullTracer` whose ``span(...)`` returns one
reusable no-op context manager and whose ``charge`` is a pass; the
instrumentation points pay one global load and a ``None`` check per
I/O.  Enable it for a scope with :func:`tracing`::

    from repro.obs import tracing

    with tracing() as tracer:
        transform_standard_chunked(store, data, (8, 8))
    receipt = io_receipt(tracer.spans(), orphan_io=tracer.orphan_io)

Finished spans land in a bounded ring-buffer :class:`TraceStore`;
exporters for Chrome trace-event JSON and Prometheus text live in
:mod:`repro.obs.exporters`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "IO_FIELDS",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceStore",
    "Tracer",
    "charge",
    "get_tracer",
    "set_tracer",
    "tracing",
    "zero_io",
]

#: Counter fields mirrored from :class:`~repro.storage.iostats.IOStats`.
IO_FIELDS: Tuple[str, ...] = (
    "block_reads",
    "block_writes",
    "coefficient_reads",
    "coefficient_writes",
    "cache_hits",
    "cache_misses",
    "journal_writes",
)


def zero_io() -> Dict[str, int]:
    """A fresh all-zero I/O attribution dict."""
    return dict.fromkeys(IO_FIELDS, 0)


_UNSET = object()  # sentinel: "parent not given, use the contextvar"


class Span:
    """One timed, attributed operation.

    ``io`` holds the I/O counters charged while this span was the
    innermost active span of its thread (*self* cost — descendants
    charge their own spans).  ``attrs`` is free-form (tile ids, plan
    cache hit/miss, dedup ratio, queue wait...).  Spans are created by
    :meth:`Tracer.span`, never directly.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "thread_id",
        "attrs",
        "io",
    )

    def __init__(
        self, name: str, span_id: int, parent_id: Optional[int]
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = 0.0
        self.end_s = 0.0
        self.thread_id = 0
        self.attrs: Dict[str, Any] = {}
        self.io = zero_io()

    @property
    def wall_s(self) -> float:
        """Wall time of the span (0.0 while still open)."""
        return max(0.0, self.end_s - self.start_s)

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (mid-flight or at exit)."""
        self.attrs.update(attrs)

    @property
    def block_ios(self) -> int:
        return self.io["block_reads"] + self.io["block_writes"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, wall={self.wall_s:.6f}s, "
            f"io={self.io})"
        )


class _NullSpan:
    """The shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    name = ""
    span_id = 0
    parent_id = None
    wall_s = 0.0
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass


class _NullSpanContext:
    """Reusable no-op context manager (the zero-cost-when-off path)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Tracer that records nothing; installed by default.

    Every method is a cheap no-op so instrumentation points can call
    unconditionally.  A single shared instance (:data:`NULL_TRACER`)
    is enough — it holds no state.
    """

    __slots__ = ()

    enabled = False
    orphan_io: Dict[str, int] = {}

    def span(self, name: str, parent: Any = None, **attrs: Any):
        return _NULL_SPAN_CONTEXT

    def charge(self, field: str, amount: int = 1) -> None:
        pass

    def current_span(self) -> None:
        return None

    def spans(self) -> List[Span]:
        return []


NULL_TRACER = NullTracer()


class TraceStore:
    """Bounded, thread-safe ring buffer of finished spans.

    Memory stays bounded no matter how long tracing runs: once
    ``max_spans`` spans are held, each new span evicts the oldest and
    ``dropped`` counts the loss (exporters surface it so a truncated
    trace is never mistaken for a complete one).
    """

    def __init__(self, max_spans: int = 65536) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._max_spans = max_spans
        self._spans: "deque[Span]" = deque(maxlen=max_spans)  # guarded-by: _lock
        self._lock = threading.Lock()
        self.dropped = 0  # guarded-by: _lock

    @property
    def max_spans(self) -> int:
        return self._max_spans

    def add(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._max_spans:
                self.dropped += 1
            self._spans.append(span)

    def spans(self) -> List[Span]:
        """Snapshot of the held spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class _SpanContext:
    """Context manager binding one span to the current thread context."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span", "_token")

    def __init__(
        self, tracer: "Tracer", name: str, parent: Any, attrs: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Optional[Span] = None
        self._token = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = self._parent
        if parent is _UNSET:
            parent = tracer._current.get()
        span = Span(
            self._name,
            next(tracer._ids),
            parent.span_id if parent is not None else None,
        )
        if self._attrs:
            span.attrs.update(self._attrs)
        span.thread_id = threading.get_ident()
        self._span = span
        self._token = tracer._current.set(span)
        span.start_s = time.perf_counter()
        return span

    def __exit__(self, *exc_info) -> bool:
        span = self._span
        assert span is not None
        span.end_s = time.perf_counter()
        self._tracer._current.reset(self._token)
        self._tracer.store.add(span)
        return False


class Tracer:
    """Thread-safe producer of hierarchical, I/O-attributed spans.

    Span nesting follows a :class:`~contextvars.ContextVar`: within one
    thread, ``tracer.span(...)`` parents to the innermost open span
    automatically.  Threads start with an empty context, so code that
    fans work out to a pool passes the parent explicitly::

        root = tracer.current_span()
        pool.submit(lambda: work_under(tracer.span("task", parent=root)))

    ``charge`` attributes one mirrored I/O counter bump to the current
    span — or to ``orphan_io`` when no span is open on the charging
    thread, so no I/O is ever silently lost from a trace.  Charges are
    not locked per span: every concurrent charging path in the library
    already serialises device access (the sharded pool's I/O lock), and
    spans are thread-confined by construction.
    """

    enabled = True

    def __init__(self, max_spans: int = 65536) -> None:
        self.store = TraceStore(max_spans)
        self._ids = itertools.count(1)
        self._current: "ContextVar[Optional[Span]]" = ContextVar(
            "repro_obs_span", default=None
        )
        self._orphan_lock = threading.Lock()
        self.orphan_io = zero_io()  # guarded-by: _orphan_lock

    def span(self, name: str, parent: Any = _UNSET, **attrs: Any):
        """Open a span (use as a context manager).

        ``parent`` defaults to the calling thread's innermost open
        span; pass a :class:`Span` (or ``None`` for a root) to attach
        across threads.
        """
        return _SpanContext(self, name, parent, attrs)

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling thread context."""
        return self._current.get()

    def charge(self, field: str, amount: int = 1) -> None:
        """Attribute one mirrored I/O counter bump (see class docs)."""
        span = self._current.get()
        if span is not None:
            span.io[field] += amount
        else:
            with self._orphan_lock:
                self.orphan_io[field] += amount

    def spans(self) -> List[Span]:
        """Snapshot of the finished spans, oldest first."""
        return self.store.spans()


# ----------------------------------------------------------------------
# module-level tracer registry (what the instrumentation points consult)
# ----------------------------------------------------------------------

_active: Optional[Tracer] = None


def get_tracer():
    """The installed tracer (:data:`NULL_TRACER` when tracing is off)."""
    tracer = _active
    return tracer if tracer is not None else NULL_TRACER


def set_tracer(tracer) -> Optional[Tracer]:
    """Install ``tracer`` globally; returns the previously active
    tracer (``None`` when tracing was off).  Passing ``None`` or the
    null tracer turns tracing off."""
    global _active
    previous = _active
    if tracer is None or isinstance(tracer, NullTracer):
        _active = None
    else:
        _active = tracer
    return previous


@contextmanager
def tracing(
    max_spans: int = 65536, tracer: Optional[Tracer] = None
) -> Iterator[Tracer]:
    """Scope with tracing enabled; restores the previous tracer after.

    Yields the active :class:`Tracer` (a fresh one unless given).
    """
    active = tracer if tracer is not None else Tracer(max_spans=max_spans)
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


def charge(field: str, amount: int = 1) -> None:
    """Hot-path hook for the storage layers: mirror one I/O counter
    bump into the active trace (a no-op costing one global load and a
    ``None`` check when tracing is off)."""
    tracer = _active
    if tracer is not None:
        tracer.charge(field, amount)
