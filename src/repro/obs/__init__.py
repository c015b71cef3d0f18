"""repro.obs — stdlib-only observability substrate.

Three pieces, threaded through every layer of the stack:

- :mod:`repro.obs.metrics` — a process-local metrics registry
  (counters, gauges, fixed-bucket histograms) with Prometheus text and
  JSON exposition. Instrumented modules register metrics at import time
  against the module-level :data:`REGISTRY`.
- :mod:`repro.obs.trace` — per-job trace spans in a bounded ring
  buffer, exportable as structured JSON or Chrome ``trace_event``.
- The serve layer exposes both over HTTP (``GET /metrics``,
  ``GET /jobs/{id}/trace``) and streams job progress over SSE
  (``GET /jobs/{id}/events``).

Like ``repro.lint``, this package has no third-party dependencies, and
like ``repro.serve.markers`` it imports nothing from the rest of
``repro`` so any layer can use it without cycles.
"""

from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry, REGISTRY
from .trace import Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Tracer",
]
