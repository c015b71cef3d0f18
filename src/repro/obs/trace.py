"""Per-job trace spans in a bounded ring buffer.

Spans are recorded with monotonic-clock (``time.perf_counter``)
timestamps taken by the caller, so the event loop, the coordinator
thread, and the pool result-handler thread can all contribute spans for
one job; the tracer only stores them. A small lock guards the buffer —
emission is per-shard / per-phase, never per-candidate, so contention is
negligible.

Traces export two ways: structured JSON (``trace``) and the Chrome
``trace_event`` format (``chrome_trace``) loadable in chrome://tracing
or Perfetto.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

__all__ = ["Tracer"]


class Tracer:
    """Bounded per-job span buffer keyed by job id.

    Oldest jobs are evicted once ``max_jobs`` traces are held; spans per
    job are capped at ``max_spans_per_job`` (excess spans are dropped,
    never an error).  A tracer with ``enabled`` set to ``False`` records
    nothing.
    """

    def __init__(self, max_jobs: int = 256, max_spans_per_job: int = 4096):
        self.max_jobs = max_jobs
        self.max_spans_per_job = max_spans_per_job
        self.enabled = True
        self._jobs: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def begin(self, job_id: str, **meta: object) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._jobs.pop(job_id, None)
            while len(self._jobs) >= self.max_jobs:
                self._jobs.popitem(last=False)
            self._jobs[job_id] = {
                "t0": time.perf_counter(),
                "meta": dict(meta),
                "spans": [],
            }

    def span(
        self,
        job_id: str,
        name: str,
        start_s: float,
        end_s: float,
        tid: int = 0,
        **args: object,
    ) -> None:
        """Record a closed span. Timestamps are ``perf_counter`` seconds."""
        if not self.enabled:
            return
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None or len(entry["spans"]) >= self.max_spans_per_job:
                return
            entry["spans"].append(
                {
                    "name": name,
                    "start_s": start_s,
                    "end_s": end_s,
                    "tid": tid,
                    "args": dict(args),
                }
            )

    def jobs(self) -> list[str]:
        with self._lock:
            return list(self._jobs)

    def trace(self, job_id: str) -> dict | None:
        """Structured JSON trace: span times relative to job begin, seconds."""
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None:
                return None
            t0 = entry["t0"]
            spans = [dict(span) for span in entry["spans"]]
            meta = dict(entry["meta"])
        return {
            "job_id": job_id,
            "meta": meta,
            "spans": [
                {
                    "name": span["name"],
                    "start_s": span["start_s"] - t0,
                    "duration_s": span["end_s"] - span["start_s"],
                    "tid": span["tid"],
                    "args": span["args"],
                }
                for span in spans
            ],
        }

    def chrome_trace(self, job_id: str) -> dict | None:
        """Chrome ``trace_event`` JSON: complete ("X") events, µs units."""
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None:
                return None
            t0 = entry["t0"]
            spans = [dict(span) for span in entry["spans"]]
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": f"repro job {job_id}"},
            }
        ]
        for span in spans:
            events.append(
                {
                    "name": span["name"],
                    "cat": "job",
                    "ph": "X",
                    "pid": 1,
                    "tid": span["tid"],
                    "ts": round((span["start_s"] - t0) * 1e6, 3),
                    "dur": round((span["end_s"] - span["start_s"]) * 1e6, 3),
                    "args": span["args"],
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
