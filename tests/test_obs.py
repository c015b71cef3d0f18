"""Unit tests for ``repro.obs`` (metrics + traces)."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_math(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge_math(self):
        reg = MetricsRegistry()
        g = reg.gauge("inflight", "inflight shards")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_s", "latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        cumulative = h.cumulative()
        assert cumulative == [(0.1, 1), (1.0, 3), (10.0, 4), (float("inf"), 5)]
        # cumulative counts must be monotonic and end at the total count
        counts = [count for _, count in cumulative]
        assert counts == sorted(counts)
        assert counts[-1] == h.count

    def test_histogram_boundary_lands_in_le_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "h", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1.0" is inclusive
        assert h.cumulative()[0] == (1.0, 1)

    def test_labels_children_are_distinct_and_stable(self):
        reg = MetricsRegistry()
        family = reg.counter("resolved_total", "resolved", labels=("state",))
        family.labels(state="done").inc()
        family.labels(state="done").inc()
        family.labels(state="failed").inc()
        assert family.labels(state="done").value == 2
        assert family.labels(state="failed").value == 1

    def test_registration_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("n", "help")
        b = reg.counter("n", "help")
        assert a is b

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n", "help")
        with pytest.raises(ValueError):
            reg.gauge("n", "help")

    def test_label_schema_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n", "help", labels=("state",))
        with pytest.raises(ValueError):
            reg.counter("n", "help", labels=("priority",))

    def test_set_enabled_gates_all_mutation(self):
        reg = MetricsRegistry()
        c = reg.counter("c", "c")
        g = reg.gauge("g", "g")
        h = reg.histogram("h", "h")
        reg.set_enabled(False)
        c.inc()
        g.set(9)
        h.observe(1.0)
        assert c.value == 0 and g.value == 0 and h.count == 0
        reg.set_enabled(True)
        c.inc()
        assert c.value == 1

    def test_reset_zeroes_but_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("c", "c")
        h = reg.histogram("h", "h")
        c.inc(7)
        h.observe(0.2)
        reg.reset()
        assert c.value == 0
        assert h.count == 0 and h.sum == 0
        assert reg.counter("c", "c") is c  # same family, not re-created

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# Prometheus text format, version 0.0.4: every non-comment line is
#   name{label="value",...} value
_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$'
)


class TestPrometheusExposition:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "Jobs submitted").inc(3)
        reg.gauge("repro_inflight", "Inflight shards").set(2)
        family = reg.counter("repro_resolved_total", "Resolved", labels=("state",))
        family.labels(state="done").inc(5)
        h = reg.histogram("repro_latency_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        return reg

    def test_every_line_parses(self):
        text = self._registry().render_prometheus()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE_LINE.match(line), f"invalid exposition line: {line!r}"

    def test_help_and_type_precede_samples(self):
        text = self._registry().render_prometheus()
        lines = text.strip().splitlines()
        seen: set[str] = set()
        for line in lines:
            if line.startswith("#"):
                name = line.split()[2]
                seen.add(name)
            else:
                name = line.split("{")[0].split(" ")[0]
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert name in seen or base in seen, f"sample before HELP/TYPE: {line!r}"
        assert "# TYPE repro_latency_seconds histogram" in lines
        assert "# TYPE repro_jobs_total counter" in lines
        assert "# TYPE repro_inflight gauge" in lines

    def test_histogram_series_complete(self):
        text = self._registry().render_prometheus()
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_count 3" in text
        assert re.search(r"repro_latency_seconds_sum 5\.5\d*", text)

    def test_labelled_sample_rendered(self):
        text = self._registry().render_prometheus()
        assert 'repro_resolved_total{state="done"} 5' in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", "c", labels=("net",)).labels(net='a"b\\c\nd').inc()
        text = reg.render_prometheus()
        assert 'c{net="a\\"b\\\\c\\nd"} 1' in text

    def test_json_render_round_trips(self):
        payload = self._registry().render_json()
        parsed = json.loads(json.dumps(payload))
        names = {m["name"] for m in parsed["metrics"]}
        assert "repro_latency_seconds" in names
        hist = next(m for m in parsed["metrics"] if m["name"] == "repro_latency_seconds")
        assert hist["type"] == "histogram"
        assert hist["samples"][0]["buckets"]["+Inf"] == 3
        assert hist["samples"][0]["count"] == 3


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_trace_relative_times(self):
        tracer = Tracer()
        tracer.begin("j1", network="a", priority=1)
        t0 = tracer._jobs["j1"]["t0"]
        tracer.span("j1", "plan", t0 + 0.1, t0 + 0.3, shards=2)
        tracer.span("j1", "shard-0", t0 + 0.3, t0 + 0.9, tid=1)
        trace = tracer.trace("j1")
        assert trace["job_id"] == "j1"
        assert trace["meta"] == {"network": "a", "priority": 1}
        plan, shard = trace["spans"]
        assert plan["name"] == "plan"
        assert plan["start_s"] == pytest.approx(0.1)
        assert plan["duration_s"] == pytest.approx(0.2)
        assert plan["args"] == {"shards": 2}
        assert shard["tid"] == 1

    def test_chrome_trace_is_valid_trace_event_json(self):
        tracer = Tracer()
        tracer.begin("j1")
        t0 = tracer._jobs["j1"]["t0"]
        tracer.span("j1", "execute", t0, t0 + 0.5, tid=0, entries=7)
        payload = tracer.chrome_trace("j1")
        parsed = json.loads(json.dumps(payload))  # must survive a JSON round trip
        events = parsed["traceEvents"]
        assert events[0]["ph"] == "M"  # metadata record first
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 1
        for event in complete:
            # the keys chrome://tracing requires of a complete event
            assert {"name", "ph", "pid", "tid", "ts", "dur"} <= set(event)
            assert event["dur"] >= 0
        assert complete[0]["dur"] == pytest.approx(5e5, rel=1e-3)  # µs

    def test_unknown_job_returns_none(self):
        tracer = Tracer()
        assert tracer.trace("nope") is None
        assert tracer.chrome_trace("nope") is None

    def test_ring_evicts_oldest_job(self):
        tracer = Tracer(max_jobs=2)
        for jid in ("a", "b", "c"):
            tracer.begin(jid)
        assert tracer.jobs() == ["b", "c"]
        assert tracer.trace("a") is None

    def test_rebegin_moves_job_to_newest(self):
        tracer = Tracer(max_jobs=2)
        tracer.begin("a")
        tracer.begin("b")
        tracer.begin("a")  # warm-start resubmit: "a" becomes the newest again
        tracer.begin("c")
        assert tracer.jobs() == ["a", "c"]

    def test_span_cap(self):
        tracer = Tracer(max_spans_per_job=3)
        tracer.begin("j")
        for i in range(10):
            tracer.span("j", f"s{i}", 0.0, 1.0)
        assert len(tracer.trace("j")["spans"]) == 3

    def test_span_for_unknown_job_is_dropped(self):
        tracer = Tracer()
        tracer.span("ghost", "s", 0.0, 1.0)  # must not raise
        assert tracer.trace("ghost") is None

    def test_null_tracer_is_inert(self):
        tracer = Tracer()
        tracer.enabled = False
        tracer.begin("j", network="a")
        tracer.span("j", "plan", 0.0, 1.0)
        assert tracer.jobs() == []
        assert tracer.trace("j") is None
        assert tracer.chrome_trace("j") is None

