"""Cross-layer observability: tracing, I/O attribution, exporters.

The paper's currency is I/O counts; this package says *where they
went*.  A :class:`~repro.obs.tracer.Tracer` produces hierarchical
spans that each capture wall time, free-form attributes and the
:class:`~repro.storage.iostats.IOStats` counters charged while the
span was active; the storage, kernel, transform and service layers
are instrumented to open spans and charge I/Os.  Tracing is off by
default and zero-cost when off — enabling it never changes any
``IOStats`` value.

The serving-path companions:

* :mod:`repro.obs.reqlog` — structured JSON request logs plus W3C
  ``traceparent`` propagation helpers;
* :mod:`repro.obs.flightrec` — the bounded always-on flight recorder
  behind ``/debug/queries``;
* :mod:`repro.obs.heat` — per-tile read/write heat attributed by
  tenant and query class (the input ROADMAP item 5 consumes).

Typical use::

    from repro.obs import tracing, io_receipt, to_chrome_trace

    with tracing() as tracer:
        engine.execute_batch(queries)

    receipt = io_receipt(tracer.spans(), orphan_io=tracer.orphan_io)
    json.dump(to_chrome_trace(tracer.spans()), open("trace.json", "w"))

See ``docs/observability.md`` for the span taxonomy and exporter
formats.
"""

from repro.obs.exporters import (
    heat_to_prometheus,
    io_receipt,
    query_receipts,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.heat import (
    HeatRecorder,
    get_heat,
    heat_context,
    set_heat,
    touch_read,
    touch_write,
)
from repro.obs.reqlog import (
    RequestLog,
    make_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.tracer import (
    IO_FIELDS,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceStore,
    Tracer,
    charge,
    get_tracer,
    set_tracer,
    tracing,
    zero_io,
)

__all__ = [
    "IO_FIELDS",
    "NULL_TRACER",
    "FlightRecorder",
    "HeatRecorder",
    "NullTracer",
    "RequestLog",
    "Span",
    "TraceStore",
    "Tracer",
    "charge",
    "get_heat",
    "get_tracer",
    "heat_context",
    "heat_to_prometheus",
    "io_receipt",
    "make_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "query_receipts",
    "set_heat",
    "set_tracer",
    "to_chrome_trace",
    "to_prometheus",
    "touch_read",
    "touch_write",
    "tracing",
    "zero_io",
]
