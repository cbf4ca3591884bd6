"""repro.obs — unified observability for the serving stack.

One :class:`Observability` object bundles the two instruments every layer
shares:

* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket latency histograms, Prometheus text exposition), and
* a :class:`~repro.obs.trace.Tracer` (per-request span trees keyed by a
  ``trace_id``).

The default everywhere is :data:`NULL_OBS` — a disabled bundle whose
instruments are shared no-op singletons — so a bare ``QueryEngine`` pays one
attribute lookup per event.  :class:`repro.ResistanceService` creates an
enabled-metrics bundle by default and the net server exposes it at
``GET /metrics``.

Contract 6 (DESIGN.md): instrumentation never changes results.  Nothing in
this package touches a NumPy random stream; trace ids come from
``os.urandom``; enabling metrics and tracing must leave every estimate
bit-identical to a bare run.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    CONTENT_TYPE,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_INSTRUMENT,
    Sample,
)
from repro.obs.trace import Span, Trace, Tracer, new_trace_id, render_span_tree

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_OBS",
    "Observability",
    "Sample",
    "Span",
    "Trace",
    "Tracer",
    "new_trace_id",
    "render_span_tree",
]


class Observability:
    """Metrics registry + tracer, plus the shared result-level instruments.

    Parameters
    ----------
    metrics:
        Registry to record into; a disabled one by default.
    tracer:
        Span tracer; disabled by default (tracing is opt-in even when
        metrics are on, because per-chunk spans allocate).
    """

    __slots__ = (
        "metrics",
        "tracer",
        "_queries_total",
        "_query_latency",
        "_walk_steps_total",
        "_spmv_total",
        "_budget_exhausted_total",
    )

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        # Result-level instruments are pre-built so the per-result hot path is
        # one labels() dict lookup + one locked add (or pure no-ops when the
        # registry is disabled).
        self._queries_total = self.metrics.counter(
            "repro_queries_total",
            "Estimates produced, by estimation method.",
            labels=("method",),
        )
        self._query_latency = self.metrics.histogram(
            "repro_query_latency_seconds",
            "Per-estimate wall-clock latency, by estimation method.",
            labels=("method",),
        )
        self._walk_steps_total = self.metrics.counter(
            "repro_walk_steps_total",
            "Random-walk steps executed across all estimates.",
        )
        self._spmv_total = self.metrics.counter(
            "repro_spmv_operations_total",
            "Sparse matrix-vector products executed across all estimates.",
        )
        self._budget_exhausted_total = self.metrics.counter(
            "repro_budget_exhausted_total",
            "Estimates that hit a QueryBudget cap before their target accuracy.",
        )

    @property
    def enabled(self) -> bool:
        """Whether anything here records at all."""
        return self.metrics.enabled or self.tracer.enabled

    @classmethod
    def serving(cls) -> "Observability":
        """The serving-stack default: metrics on, tracing off."""
        return cls(metrics=MetricsRegistry(enabled=True))

    def observe_result(self, result) -> None:
        """Record one :class:`~repro.core.result.EstimateResult`.

        Called from ``QueryEngine._record`` — the single funnel every
        estimate passes through (direct queries, batches and pool-adopted
        results alike).
        """
        if not self.metrics.enabled:
            return
        self._queries_total.labels(method=result.method).inc()
        self._query_latency.labels(method=result.method).observe(
            result.elapsed_seconds
        )
        if result.total_steps:
            self._walk_steps_total.inc(result.total_steps)
        if result.spmv_operations:
            self._spmv_total.inc(result.spmv_operations)
        if result.budget_exhausted:
            self._budget_exhausted_total.inc()


#: The disabled default carried by bare contexts/engines.
NULL_OBS = Observability()
