"""A thread-safe, dependency-free metrics registry with Prometheus exposition.

The registry implements the three instrument kinds the serving stack needs —
monotonic counters, set-point gauges and fixed-bucket latency histograms — and
renders them in the Prometheus text exposition format (version 0.0.4) for the
``GET /metrics`` endpoint of :class:`repro.net.server.NetServer`.

Design points
-------------
* **Near-zero disabled cost.**  A registry created with ``enabled=False``
  hands out a single shared :data:`NULL_INSTRUMENT` whose ``inc``/``set``/
  ``observe`` are empty methods, so instrumented hot paths pay one attribute
  lookup and one no-op call — no locks, no allocation.
* **Thread safety.**  Instrument mutation happens under a per-child lock
  (``+=`` on a Python float is *not* atomic across the read/modify/write), and
  family/child creation under the registry lock, because the net server's
  asyncio loop, its work thread and pytest threads all touch the same
  registry.
* **Scrape-time collectors.**  The repo already keeps ad-hoc ``Stats``
  dataclasses (session, service, cache, sketch, pool, server...).
  Rather than double-count every event on the hot path, those surfaces are
  exported through :meth:`MetricsRegistry.register_collector` callbacks that
  are only invoked when ``/metrics`` is scraped.

Instrumentation must never change results (DESIGN.md Contract 6): nothing in
this module touches NumPy or any random stream.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "Sample",
]

#: The content type Prometheus scrapers expect from a text-format endpoint.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Fixed upper bounds (seconds) sized for this repo's latency spectrum:
#: cache hits land in the 100µs buckets, sketch answers around 1ms, walk
#: queries from 10ms up, and cold exact solves in whole seconds.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Sample(NamedTuple):
    """One scrape-time sample yielded by a registered collector."""

    name: str
    kind: str  # "counter" | "gauge"
    help: str
    labels: dict
    value: float


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_number(value: float) -> str:
    """Prometheus-style number rendering: integers without a trailing ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels.items()
    )
    return "{" + body + "}"


class _NullInstrument:
    """Shared no-op stand-in for every instrument of a disabled registry."""

    __slots__ = ()

    def labels(self, **_kwargs) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


#: The singleton handed out by disabled registries.
NULL_INSTRUMENT = _NullInstrument()


class _Counter:
    """A monotonically increasing counter child."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _Gauge:
    """A gauge child: settable, incrementable, decrementable."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class _Histogram:
    """A fixed-bucket histogram child (per-bucket counts, not cumulative)."""

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def cumulative_counts(self) -> list[int]:
        """Per-``le`` cumulative counts (the Prometheus bucket semantics)."""
        with self._lock:
            counts = list(self.counts)
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    @property
    def value(self) -> float:
        return float(self.count)


_CHILD_TYPES = {"counter": _Counter, "gauge": _Gauge, "histogram": _Histogram}


class _Family:
    """One named metric family: a set of label-keyed children."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.kind == "histogram":
            return _Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **labelvalues):
        """The child for one label combination (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got "
                f"{tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    # Unlabelled families proxy instrument methods straight to their only child.
    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._children[()].dec(amount)

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def observe(self, value: float) -> None:
        self._children[()].observe(value)

    @property
    def value(self) -> float:
        return self._children[()].value

    def children(self) -> list[tuple[dict, object]]:
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]


class MetricsRegistry:
    """A process-local registry of counters, gauges and histograms.

    Parameters
    ----------
    enabled:
        When ``False`` every factory returns :data:`NULL_INSTRUMENT` and
        :meth:`exposition` renders nothing — the configuration used by
        library-level defaults so bare engines pay ~nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], Iterable[Sample]]] = []

    # ------------------------------------------------------------------ #
    # instrument factories
    # ------------------------------------------------------------------ #
    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        return self._get_or_create(name, "histogram", help, labels, tuple(buckets))

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: tuple[float, ...] | None = None,
    ):
        if not self.enabled:
            return NULL_INSTRUMENT
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labels)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        if buckets is not None and list(buckets) != sorted(set(buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, labelnames, buckets)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} with "
                    f"labels {family.labelnames}"
                )
        return family

    # ------------------------------------------------------------------ #
    # scrape-time collectors
    # ------------------------------------------------------------------ #
    def register_collector(self, collector: Callable[[], Iterable[Sample]]) -> None:
        """Register a callback yielding :class:`Sample` rows at scrape time."""
        if not self.enabled:
            return
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def exposition(self) -> str:
        """The full registry in Prometheus text exposition format 0.0.4."""
        if not self.enabled:
            return ""
        lines: list[str] = []
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors)

        for family in families:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.children():
                if family.kind == "histogram":
                    bounds = list(child.buckets) + [math.inf]
                    for bound, cum in zip(bounds, child.cumulative_counts()):
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_number(bound)
                        lines.append(
                            f"{family.name}_bucket{_render_labels(bucket_labels)} "
                            f"{_format_number(cum)}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(labels)} "
                        f"{_format_number(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(labels)} "
                        f"{_format_number(child.count)}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(labels)} "
                        f"{_format_number(child.value)}"
                    )

        seen_meta = {family.name for family in families}
        for collector in collectors:
            for sample in collector():
                if sample.name not in seen_meta:
                    seen_meta.add(sample.name)
                    lines.append(f"# HELP {sample.name} {_escape_help(sample.help)}")
                    lines.append(f"# TYPE {sample.name} {sample.kind}")
                lines.append(
                    f"{sample.name}{_render_labels(sample.labels)} "
                    f"{_format_number(sample.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, float]:
        """A flat ``{"name{label=...}": value}`` view for tests and the CLI.

        Histograms contribute ``name_count`` and ``name_sum`` entries;
        collector samples are included, so this is the same universe as
        :meth:`exposition` in an assert-friendly shape.
        """
        out: dict[str, float] = {}
        if not self.enabled:
            return out
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors)
        for family in families:
            for labels, child in family.children():
                suffix = _render_labels(labels)
                if family.kind == "histogram":
                    out[f"{family.name}_count{suffix}"] = float(child.count)
                    out[f"{family.name}_sum{suffix}"] = float(child.sum)
                else:
                    out[f"{family.name}{suffix}"] = float(child.value)
        for collector in collectors:
            for sample in collector():
                out[f"{sample.name}{_render_labels(sample.labels)}"] = float(
                    sample.value
                )
        return out
