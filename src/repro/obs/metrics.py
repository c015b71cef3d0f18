"""Process-local metrics registry with Prometheus text exposition.

Stdlib-only, import-light (no repro imports): every layer — parallel,
engine, serve — registers metrics here without creating cycles, the same
way ``repro.serve.markers`` stays a leaf.

Counters and gauges use plain ``+=`` on a float attribute: increments
from multiple threads may race, but the race is benign (a lost
increment, never a crash or corruption), which keeps
the hot-path cost to an attribute load, a branch, and a float add.
Histograms take a per-child lock because a bucket update is a
read-modify-write across several fields.

Registries are per-process. Worker processes inherit the parent registry
at fork time and then diverge: increments made inside a mining worker
land in that worker's copy and are invisible to the serving process. The ``/metrics``
endpoint therefore reports the coordinator/serving process only; this is
documented rather than solved (a push gateway belongs to the multi-host
transport work).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

#: Default histogram bucket upper bounds, in seconds. Spans the range from
#: sub-10ms cache hits to minute-scale cold sweeps.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _format_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(pairs: Iterable[tuple[str, str]]) -> str:
    items = list(pairs)
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in items)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value. Benign-race increments."""

    kind = "counter"
    __slots__ = ("_registry", "label_values", "_value")

    def __init__(self, registry: "MetricsRegistry", label_values: tuple[str, ...] = ()):
        self._registry = registry
        self.label_values = label_values
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """Point-in-time value that can go up and down."""

    kind = "gauge"
    __slots__ = ("_registry", "label_values", "_value")

    def __init__(self, registry: "MetricsRegistry", label_values: tuple[str, ...] = ()):
        self._registry = registry
        self.label_values = label_values
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Fixed-bucket histogram (Prometheus cumulative ``le`` semantics)."""

    kind = "histogram"
    __slots__ = ("_registry", "label_values", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        registry: "MetricsRegistry",
        label_values: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self._registry = registry
        self.label_values = label_values
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # trailing slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One registered metric name: label schema plus its children."""

    __slots__ = ("name", "help", "kind", "label_names", "_registry", "_buckets", "_children", "_lock")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_: str,
        kind: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help_
        self.kind = kind
        self.label_names = label_names
        self._registry = registry
        self._buckets = buckets
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        if not label_names:
            self._children[()] = self._make(())

    def _make(self, values: tuple[str, ...]):
        cls = _KINDS[self.kind]
        if cls is Histogram:
            return Histogram(self._registry, values, self._buckets)
        return cls(self._registry, values)

    def labels(self, **kv: object):
        values = tuple(str(kv[name]) for name in self.label_names)
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = self._make(values)
                    self._children[values] = child
        return child

    def children(self) -> list[Counter | Gauge | Histogram]:
        return list(self._children.values())

    @property
    def default(self):
        return self._children[()]


class MetricsRegistry:
    """Named counters/gauges/histograms with text + JSON exposition.

    Registration is idempotent: asking for an existing name returns the
    already-registered metric (the kind and label schema must match).
    ``enabled`` gates every mutation so a benchmark can measure the
    instrumented stack with observability truly off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------

    def _register(
        self,
        name: str,
        help_: str,
        kind: str,
        labels: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(self, name, help_, kind, labels, buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != labels:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                    f"{family.label_names}, not {kind}{labels}"
                )
        return family if labels else family.default

    def counter(self, name: str, help_: str, labels: tuple[str, ...] = ()):
        return self._register(name, help_, "counter", labels)

    def gauge(self, name: str, help_: str, labels: tuple[str, ...] = ()):
        return self._register(name, help_, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_: str,
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        return self._register(name, help_, "histogram", labels, buckets)

    # -- lifecycle ------------------------------------------------------

    def set_enabled(self, flag: bool) -> None:
        self.enabled = bool(flag)

    def reset(self) -> None:
        """Zero all values, keeping registrations (for tests/benchmarks)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            for child in family.children():
                child._reset()

    # -- exposition -----------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                pairs = list(zip(family.label_names, child.label_values))
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative():
                        bucket_pairs = pairs + [("le", _format_value(bound))]
                        lines.append(
                            f"{family.name}_bucket{_format_labels(bucket_pairs)}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(pairs)}"
                        f" {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{_format_labels(pairs)} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{_format_labels(pairs)} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def render_json(self) -> dict:
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        out = []
        for family in families:
            samples = []
            for child in family.children():
                labels = dict(zip(family.label_names, child.label_values))
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": {
                                _format_value(bound): cumulative
                                for bound, cumulative in child.cumulative()
                            },
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return {"metrics": out}


#: Process-wide default registry. Instrumented modules register their
#: metrics against this at import time.
REGISTRY = MetricsRegistry()
