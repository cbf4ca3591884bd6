"""The serving facade: cache → sketch → engine.

A :class:`ResistanceService` wires the serving layers around one
:class:`~repro.core.engine.QueryEngine` session:

1. the ε-aware :class:`~repro.service.cache.ResistanceCache` answers repeats
   with zero sampling work;
2. the :class:`~repro.service.sketch.LandmarkSketchStore` answers loose
   queries (and any query touching a landmark) from precomputed exact landmark
   resistances, still without the walk engine;
3. everything else reaches the engine — directly (:meth:`ResistanceService.query`)
   or as one planned batch (:meth:`ResistanceService.query_many`), which runs
   on an attached :class:`repro.net.pool.SharedWorkerPool` when the network
   server provides one.

Every engine-produced answer flows back into the cache through the engine's
result hook, so the cache warms no matter which path executed the query.  All
answers are ordinary :class:`~repro.core.result.EstimateResult` objects;
layer-served ones carry ``method="cache"``/``"sketch"`` with zeroed work
counters and name their origin in ``details["source"]``.

With an ``artifact_dir`` the service starts warm: the spectral preprocessing
and the sketch are restored from disk (fingerprint-checked, see
:mod:`repro.service.artifacts`) and the eigen-decomposition is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.core.engine import QueryEngine
from repro.core.registry import REFRESH_POLICIES, QueryBudget, QueryContext
from repro.core.result import EstimateResult
from repro.exceptions import EngineUnavailableError
from repro.fault import FAULTS, CircuitBreaker
from repro.graph.delta import EdgeDelta, GraphStore, expand_neighborhood
from repro.obs import Observability, Sample
from repro.service import artifacts as artifacts_io
from repro.service.cache import ResistanceCache, canonical_pair
from repro.service.planner import (
    PlannerConfig,
    QueryPlanner,
    RefinementExecutor,
    ServiceSignals,
)
from repro.sampling import kernels as walk_kernels
from repro.sampling.kernels import KERNEL_BACKENDS
from repro.service.sketch import LandmarkSketchStore
from repro.utils.rng import RngLike
from repro.utils.timing import Timer
from repro.utils.validation import check_node_pair, check_positive, check_query_pairs


@dataclass
class ServiceConfig:
    """Tunables of one :class:`ResistanceService`.

    ``landmark_seed`` (not the engine's rng) drives random landmark selection
    so that building the sketch never advances the engine's random stream —
    a warm start therefore reproduces a cold engine's values bit-for-bit.
    """

    method: str = "geer"
    delta: float = 0.01
    num_batches: int = 5
    use_cache: bool = True
    cache_size: int = 65536
    use_sketch: bool = True
    num_landmarks: int = 8
    landmark_strategy: str = "degree"
    landmark_seed: int = 0
    sketch_max_nodes: int = 50_000
    bucketing: str = "degree"
    #: Worker count for in-process engine batches (query_many without an
    #: attached worker pool).  1 = sequential session-stream execution;
    #: >1 = thread execution with per-query derived streams (see
    #: QueryPlan.execute).
    workers: int = 1
    #: Refresh policy for the spectral solve after apply_update: "eager",
    #: "on-next-read" (default) or "budgeted" (eager only below
    #: QueryBudget.spectral_refresh_nodes).
    spectral_refresh: str = "on-next-read"
    #: Refresh policy for the landmark sketch after apply_update: "eager"
    #: rebuilds during the update, "on-next-read" (default) rebuilds when the
    #: next query needs it, "budgeted" rebuilds on read only after
    #: sketch_refresh_budget updates accumulated (serving without the sketch
    #: until then).
    sketch_refresh: str = "on-next-read"
    sketch_refresh_budget: int = 4
    #: How far cache invalidation spreads from a delta's endpoints: 0 = only
    #: pairs touching a delta endpoint, k = pairs within k CSR hops of one.
    invalidation_hops: int = 1
    #: Circuit breaker over the pooled engine tier: consecutive pool
    #: failures before the tier is declared down ...
    breaker_failure_threshold: int = 3
    #: ... and how long it stays down before a half-open probe is let through.
    breaker_reset_seconds: float = 30.0
    #: Query routing: "static" keeps the fixed cache → sketch → engine
    #: pipeline; "adaptive" routes each query through the cost-based
    #: :class:`~repro.service.planner.QueryPlanner` (adds the exact-solve
    #: tier and, under deadlines, anytime sketch envelopes with background
    #: refinement).  Contract 8: the planner may change latency, never
    #: answers — every tier it picks meets the requested ε.
    planner: str = "static"
    planner_config: Optional[PlannerConfig] = None
    #: Walk-kernel backend for every engine the service builds ("auto",
    #: "numpy" or "numba"); threaded into QueryBudget.kernel_backend.  A
    #: non-"auto" value overrides whatever an explicit budget carries.
    #: Bit-identical across backends (Contract 9), so this only moves
    #: latency, never answers.
    kernel_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for name in ("spectral_refresh", "sketch_refresh"):
            value = getattr(self, name)
            if value not in REFRESH_POLICIES:
                raise ValueError(
                    f"{name} must be one of {REFRESH_POLICIES}, got {value!r}"
                )
        if self.planner not in ("static", "adaptive"):
            raise ValueError(
                f"planner must be 'static' or 'adaptive', got {self.planner!r}"
            )
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )


@dataclass
class ServiceStats:
    """Per-layer request accounting for one :class:`ResistanceService`."""

    requests: int = 0
    cache_hits: int = 0
    sketch_hits: int = 0
    engine_queries: int = 0
    #: Adaptive-planner tiers: direct Laplacian solves and partial
    #: sketch-envelope answers served under deadline pressure.
    exact_answers: int = 0
    anytime_answers: int = 0
    updates: int = 0
    invalidated_cache_entries: int = 0
    sketch_rebuilds: int = 0

    @property
    def offloaded(self) -> int:
        """Requests answered without touching the walk engine."""
        return (
            self.cache_hits + self.sketch_hits
            + self.exact_answers + self.anytime_answers
        )

    def summary(self) -> dict[str, object]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "sketch_hits": self.sketch_hits,
            "engine_queries": self.engine_queries,
            "exact_answers": self.exact_answers,
            "anytime_answers": self.anytime_answers,
            "updates": self.updates,
            "invalidated_cache_entries": self.invalidated_cache_entries,
            "sketch_rebuilds": self.sketch_rebuilds,
            "offload_rate": (
                round(self.offloaded / self.requests, 4) if self.requests else 0.0
            ),
        }


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`ResistanceService.apply_update` call did.

    ``sketch_action`` is ``"rebuilt"``, ``"marked-stale"`` or ``"none"``;
    ``surviving_cache_entries`` counts the warm answers the localized
    invalidation kept alive.
    """

    epoch: int
    changes: int
    touched_nodes: int
    invalidated_cache_entries: int
    surviving_cache_entries: int
    sketch_action: str
    elapsed_seconds: float

    def summary(self) -> dict[str, object]:
        return {
            "epoch": self.epoch,
            "changes": self.changes,
            "touched_nodes": self.touched_nodes,
            "invalidated_cache_entries": self.invalidated_cache_entries,
            "surviving_cache_entries": self.surviving_cache_entries,
            "sketch_action": self.sketch_action,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
        }


class ResistanceService:
    """Serve ε-approximate PER queries on one graph through layered shortcuts.

    Parameters
    ----------
    graph:
        The graph to serve (connected, non-bipartite, undirected).
    config:
        A :class:`ServiceConfig`; defaults are serving-friendly (cache and
        sketch on, GEER as the engine method).
    rng:
        Seed/generator for the engine session (all randomised queries).
    budget:
        Optional :class:`~repro.core.registry.QueryBudget` for the engine.
    artifact_dir:
        When given and the directory holds fresh artifacts, the service starts
        *warm*: spectral preprocessing and the sketch are loaded instead of
        computed.  :meth:`save_artifacts` writes back to the same directory by
        default.
    validate:
        Forwarded to the context (connectivity/non-bipartiteness check).
    obs:
        An :class:`repro.obs.Observability` bundle.  By default the service
        creates one with metrics **enabled** and tracing disabled
        (:meth:`Observability.serving`); pass an explicit bundle to share a
        registry across services or to enable per-request tracing.
    """

    def __init__(
        self,
        graph=None,
        *,
        config: Optional[ServiceConfig] = None,
        rng: RngLike = None,
        budget: Optional[QueryBudget] = None,
        artifact_dir=None,
        validate: bool = True,
        context: Optional[QueryContext] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.artifact_dir = artifact_dir
        self.stats = ServiceStats()
        self.warm_started = False
        self.obs = obs if obs is not None else Observability.serving()
        metrics = self.obs.metrics
        self._tier_answers = metrics.counter(
            "repro_tier_answers_total",
            "Answers served, by serving tier (cache/sketch/engine).",
            labels=("tier",),
        )
        self._tier_latency = metrics.histogram(
            "repro_tier_latency_seconds",
            "Wall-clock latency of single-query answers, by serving tier.",
            labels=("tier",),
        )
        self._update_latency = metrics.histogram(
            "repro_update_latency_seconds",
            "End-to-end apply_update latency (drain, patch, invalidate).",
        )
        metrics.register_collector(self._metrics_collector)

        # Thread the configured kernel backend into the budget every engine
        # under this service is built from.  An explicit non-"auto" config
        # wins over the budget's value; otherwise the budget's own choice
        # (possibly from a shm handle) is preserved.
        if context is None:
            if budget is None:
                budget = QueryBudget(kernel_backend=self.config.kernel_backend)
            elif self.config.kernel_backend != "auto":
                budget = budget.copy()
                budget.kernel_backend = self.config.kernel_backend
        elif self.config.kernel_backend != "auto":
            context.budget.kernel_backend = self.config.kernel_backend

        sketch: Optional[LandmarkSketchStore] = None
        store: Optional[GraphStore] = None
        if context is None:
            if graph is None:
                raise ValueError("provide a graph or an existing QueryContext")
            if artifact_dir is not None and artifacts_io.has_artifacts(artifact_dir):
                context, sketch, store = artifacts_io.load_bundle(
                    graph,
                    artifact_dir,
                    rng=rng,
                    budget=budget,
                    validate=validate,
                    with_sketch=self.config.use_sketch,
                    with_store=True,
                )
                # The manifest records the builder's δ/τ, but neither affects
                # the persisted spectral state — the caller's config wins.
                context.delta = check_positive(self.config.delta, "delta")
                context.num_batches = int(self.config.num_batches)
                self.warm_started = True
            else:
                context = QueryContext(
                    graph,
                    delta=self.config.delta,
                    num_batches=self.config.num_batches,
                    rng=rng,
                    budget=budget,
                    validate=validate,
                )
        self.engine = QueryEngine(context=context, obs=self.obs)
        self.cache = (
            ResistanceCache(self.config.cache_size) if self.config.use_cache else None
        )
        if (
            sketch is None
            and self.config.use_sketch
            and self.graph.num_nodes <= self.config.sketch_max_nodes
        ):
            sketch = LandmarkSketchStore.build(
                self.graph,
                num_landmarks=self.config.num_landmarks,
                strategy=self.config.landmark_strategy,
                rng=self.config.landmark_seed,
            )
        self.sketch = sketch
        self._updates_since_sketch = 0
        # Optional external batch executor (duck-typed so this module never
        # imports repro.net): anything with execute_plan(plan) -> BatchResult,
        # e.g. repro.net.pool.SharedWorkerPool.  See attach_worker_pool.
        self._worker_pool: Optional[Any] = None
        # Trips when the pooled engine tier keeps failing past its respawn
        # budget; while open, engine batches raise EngineUnavailableError
        # fast and the network layer degrades to sketch-envelope answers.
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_seconds=self.config.breaker_reset_seconds,
        )
        # Optional external queue-depth probe for the planner's admission
        # control (the network server points it at its pending counter).
        self.load_probe: Optional[Any] = None
        self.planner: Optional[QueryPlanner] = None
        self._refiner: Optional[RefinementExecutor] = None
        if self.config.planner == "adaptive":
            planner_config = self.config.planner_config or PlannerConfig()
            self.planner = QueryPlanner(
                ServiceSignals(self), config=planner_config, obs=self.obs
            )
            if planner_config.refine_in_background:
                self._refiner = RefinementExecutor(
                    self, planner=self.planner, seed=planner_config.refinement_seed
                )
        # The epoch-versioned graph holder: tracks the delta log and lineage
        # chain (persisted by save_artifacts for replay loading).  A warm
        # start adopts the persisted lineage — base fingerprint and full log
        # — so repeated update→save cycles keep extending one replayable
        # history; otherwise a fresh store starts a lineage here (its base
        # fingerprint is hashed lazily, on first update or save).
        if store is None:
            store = GraphStore(
                context.graph, epoch=context.epoch, lineage=context.known_lineage
            )
        self.store = store
        self.engine.add_result_hook(self._on_engine_result)

    # ------------------------------------------------------------------ #
    # shared state
    # ------------------------------------------------------------------ #
    @property
    def graph(self):
        return self.engine.graph

    def warm_up(self) -> "ResistanceService":
        """Force every preprocessing artefact (the λ eigen-solve) eagerly."""
        self.engine.lambda_max_abs
        return self

    def _on_engine_result(self, result: EstimateResult) -> None:
        # Every engine-produced answer — single query or planned batch — is
        # counted here (so duplicate pairs a batch executed once are *not*
        # counted twice) and offered to the cache.  Results whose sampling
        # was cut off by a budget cap carry no ε guarantee and must never be
        # served as one.
        self.stats.engine_queries += 1
        self._tier_answers.labels(tier="engine").inc()
        if self.cache is not None and not result.budget_exhausted:
            self.cache.put(
                result.s,
                result.t,
                result.epsilon,
                result.value,
                result.method,
                epoch=self.engine.epoch,
            )
        if self.planner is not None:
            # Online calibration: every engine answer teaches the cost model
            # its observed seconds for this (method, degree-bucket, ε).
            self.planner.observe_engine(
                result.method, result.s, result.t, result.epsilon,
                result.elapsed_seconds,
            )

    # ------------------------------------------------------------------ #
    # serving layers
    # ------------------------------------------------------------------ #
    def _cache_answer(
        self, s: int, t: int, epsilon: float
    ) -> Optional[EstimateResult]:
        """A cache-tier answer for ``(s, t)`` at ε, or None on a miss."""
        if self.cache is None:
            return None
        with self.obs.tracer.span("tier:cache", s=s, t=t) as span:
            entry = self.cache.get(s, t, epsilon)
            if span is not None:
                span.attributes["hit"] = entry is not None
        if entry is None:
            return None
        self.stats.cache_hits += 1
        self._tier_answers.labels(tier="cache").inc()
        return EstimateResult(
            value=entry.value,
            method="cache",
            s=s,
            t=t,
            epsilon=epsilon,
            details={
                "source": "cache",
                "cached_epsilon": entry.epsilon,
                "cached_method": entry.method,
            },
        )

    def _sketch_answer(
        self, s: int, t: int, epsilon: float
    ) -> Optional[EstimateResult]:
        """A sketch-tier answer (envelope tight enough for ε), or None."""
        sketch = self._ready_sketch()
        if sketch is None:
            return None
        with self.obs.tracer.span("tier:sketch", s=s, t=t) as span:
            answer = sketch.query(s, t, epsilon)
            if span is not None:
                span.attributes["hit"] = answer is not None
        if answer is None:
            return None
        self.stats.sketch_hits += 1
        self._tier_answers.labels(tier="sketch").inc()
        if self.cache is not None:
            self.cache.put(
                s,
                t,
                answer.half_width,
                answer.midpoint,
                "sketch",
                epoch=self.engine.epoch,
            )
        return EstimateResult(
            value=answer.midpoint,
            method="sketch",
            s=s,
            t=t,
            epsilon=epsilon,
            details={
                "source": "sketch",
                "lower": answer.lower,
                "upper": answer.upper,
                "half_width": answer.half_width,
            },
        )

    def _layered_answer(
        self, s: int, t: int, epsilon: float
    ) -> Optional[EstimateResult]:
        """Try the cache then the sketch; None when the engine must run."""
        result = self._cache_answer(s, t, epsilon)
        if result is not None:
            return result
        return self._sketch_answer(s, t, epsilon)

    # ------------------------------------------------------------------ #
    # adaptive planning (config.planner == "adaptive")
    # ------------------------------------------------------------------ #
    def _exact_answer(self, s: int, t: int, epsilon: float) -> EstimateResult:
        """The exact tier: one Laplacian solve, cached at ε=0 (dominates all)."""
        timer = Timer()
        with timer, self.obs.tracer.span("tier:exact", s=s, t=t):
            value = float(self.engine.exact(s, t))
        self.stats.exact_answers += 1
        self._tier_answers.labels(tier="exact").inc()
        if self.cache is not None:
            self.cache.put(s, t, 0.0, value, "exact-solve", epoch=self.epoch)
        return EstimateResult(
            value=value,
            method="exact-solve",
            s=s,
            t=t,
            epsilon=epsilon,
            elapsed_seconds=timer.elapsed,
            details={"source": "exact"},
        )

    def _anytime_answer(
        self, s: int, t: int, epsilon: float, *, refine: bool
    ) -> Optional[EstimateResult]:
        """The anytime tier: serve the envelope now, refine in background.

        The midpoint goes out immediately — marked ``partial`` and guaranteed
        only at the envelope's ``half_width``, not the requested ε — and the
        same value seeds the cache at that half-width, creating the entry the
        background refinement later tightens via
        :meth:`~repro.service.cache.ResistanceCache.refine`.
        """
        answer = self.sketch_bounds(s, t)
        if answer is None:
            return None
        self.stats.anytime_answers += 1
        self._tier_answers.labels(tier="anytime").inc()
        if self.cache is not None:
            self.cache.put(
                s, t, answer.half_width, answer.midpoint, "sketch",
                epoch=self.epoch,
            )
        refining = False
        if refine and self._refiner is not None:
            refining = self._refiner.submit(s, t, epsilon, self.epoch)
        return EstimateResult(
            value=answer.midpoint,
            method="sketch-bound",
            s=s,
            t=t,
            epsilon=epsilon,
            details={
                "source": "sketch",
                "partial": True,
                "lower": answer.lower,
                "upper": answer.upper,
                "half_width": answer.half_width,
                "refining": refining,
            },
        )

    def _execute_decision(
        self,
        decision,
        s: int,
        t: int,
        epsilon: float,
        method: str,
        kwargs: dict[str, Any],
    ) -> EstimateResult:
        """Serve one query through the planner's chosen tier.

        A planned lookup tier that cannot deliver after all (entry raced
        away between the planning probe and the read, sketch rebuilt looser)
        falls through to the engine — correctness never depends on a
        prediction being right, only latency does (Contract 8).
        """
        planner = self.planner
        tier = decision.tier
        if tier == "cache":
            result = self._cache_answer(s, t, epsilon)
            if result is not None:
                result.details["plan"] = tier
                return result
            planner.record_fallback(tier)
        elif tier == "sketch":
            result = self._sketch_answer(s, t, epsilon)
            if result is not None:
                result.details["plan"] = tier
                return result
            planner.record_fallback(tier)
        elif tier == "anytime":
            result = self._anytime_answer(s, t, epsilon, refine=decision.refine)
            if result is not None:
                result.details["plan"] = tier
                return result
            planner.record_fallback(tier)
        elif tier == "exact":
            result = self._exact_answer(s, t, epsilon)
            result.details["plan"] = tier
            return result
        result = self.engine.query(s, t, epsilon, method=method, **kwargs)
        result.details.setdefault("source", "engine")
        result.details.setdefault("plan", tier)
        return result

    def _planned_answer(
        self,
        s: int,
        t: int,
        epsilon: float,
        method: str,
        deadline_seconds: Optional[float],
        kwargs: dict[str, Any],
    ) -> EstimateResult:
        decision = self.planner.decide(
            s, t, epsilon, method=method, deadline_seconds=deadline_seconds
        )
        return self._execute_decision(decision, s, t, epsilon, method, kwargs)

    def _planned_layer_answer(
        self, s: int, t: int, epsilon: float, method: str
    ) -> Optional[EstimateResult]:
        """Batch-path planning: resolve non-engine tiers, None joins the plan.

        Without a deadline the planner never picks ``anytime``, so the
        possible short-circuits are cache, sketch and exact.
        """
        decision = self.planner.decide(s, t, epsilon, method=method)
        if decision.tier == "engine":
            return None
        return self._execute_decision(decision, s, t, epsilon, method, {})

    def _complete_refinement(
        self, result: EstimateResult, epoch: int, *, seconds: float = 0.0
    ) -> bool:
        """Land one background refinement; True iff the cache accepted it.

        Dropped (never resurrected) when the graph epoch moved past the
        pinned one, the cache entry is gone, or the refined answer carries no
        ε guarantee (budget-exhausted sampling).
        """
        planner = self.planner
        if (
            self.cache is None
            or result.budget_exhausted
            or self.epoch != epoch
        ):
            planner.stats.refinements_dropped += 1
            return False
        accepted = self.cache.refine(
            result.s,
            result.t,
            result.epsilon,
            result.value,
            result.method,
            epoch=epoch,
            current_epoch=self.epoch,
        )
        if accepted:
            planner.stats.refinements_completed += 1
            planner.observe_engine(
                result.method, result.s, result.t, result.epsilon,
                seconds or result.elapsed_seconds,
            )
        else:
            planner.stats.refinements_dropped += 1
        return accepted

    def _ready_sketch(self) -> Optional[LandmarkSketchStore]:
        """The sketch if it may answer queries now, refreshing per policy.

        A fresh sketch is returned as-is.  A stale one (the graph moved on)
        is rebuilt here under ``sketch_refresh="on-next-read"``, or under
        ``"budgeted"`` once enough updates accumulated — otherwise queries
        simply skip the sketch layer (a stale sketch never answers).
        """
        sketch = self.sketch
        if sketch is None or not sketch.stale:
            return sketch
        policy = self.config.sketch_refresh
        if policy == "on-next-read" or (
            policy == "budgeted"
            and self._updates_since_sketch >= self.config.sketch_refresh_budget
        ):
            return self._refresh_sketch()
        return None

    def _refresh_sketch(self) -> Optional[LandmarkSketchStore]:
        """Rebuild the landmark sketch for the current graph epoch."""
        if self.graph.num_nodes <= self.config.sketch_max_nodes:
            self.sketch = LandmarkSketchStore.build(
                self.graph,
                num_landmarks=self.config.num_landmarks,
                strategy=self.config.landmark_strategy,
                rng=self.config.landmark_seed,
            )
            self.stats.sketch_rebuilds += 1
        else:
            self.sketch = None
        self._updates_since_sketch = 0
        return self.sketch

    # ------------------------------------------------------------------ #
    # dynamic graphs
    # ------------------------------------------------------------------ #
    def apply_update(self, delta: EdgeDelta) -> UpdateReport:
        """Absorb an edge delta end to end while keeping warm state warm.

        The pipeline, in order:

        1. in-flight anytime refinements are drained (they read the live
           context);
        2. the :class:`~repro.graph.delta.GraphStore` applies the delta (CSR
           row splicing) and extends the delta log / lineage chain;
        3. the engine's context absorbs it — cheap artefacts patched in
           place, the spectral solve refreshed per ``spectral_refresh``;
        4. the cache drops **only** entries incident to the delta's
           ``invalidation_hops``-neighborhood (union of pre- and post-delta
           adjacency); everything else keeps serving;
        5. the sketch is rebuilt or marked stale per ``sketch_refresh``.

        Returns an :class:`UpdateReport`; subsequent queries return exactly
        what a cold service on the post-delta graph would (delta ≡ rebuild).
        """
        timer = Timer()
        with timer, self.obs.tracer.span(
            "service:update", changes=delta.num_changes
        ):
            if self._refiner is not None:
                # In-flight anytime refinements read the live context; wait
                # them out before patching it.  Anything they land is still
                # pinned to the pre-update epoch and survives only if the
                # localized invalidation below leaves the entry alone.
                self._refiner.drain()
            old_graph = self.graph
            # The context validates (and only then mutates) first; the store
            # commits after, so a rejected delta — disconnecting removal,
            # conflicting insert — leaves no trace in the epoch, the delta
            # log or the lineage.  Sharing the context's lineage beforehand
            # means the base graph is hashed at most once between the two.
            context = self.engine.context
            if context.known_lineage is None:
                context.adopt_lineage(self.store.lineage)
            new_graph = delta.apply_to(old_graph)
            epoch = self.engine.apply_update(
                delta, refresh=self.config.spectral_refresh, graph=new_graph
            )
            self.store.apply(delta, graph=new_graph)
            touched = delta.touched_nodes
            dropped = 0
            if self.cache is not None and len(touched):
                # Resistances move most where the delta lands; spread the
                # eviction over both the old and new adjacency (removed edges
                # only exist in the former, inserted ones only in the latter).
                hops = self.config.invalidation_hops
                region = np.union1d(
                    expand_neighborhood(old_graph, touched, hops),
                    expand_neighborhood(new_graph, touched, hops),
                )
                dropped = self.cache.invalidate_nodes(region)
            sketch_action = "none"
            if self.sketch is not None:
                self._updates_since_sketch += 1
                if self.config.sketch_refresh == "eager":
                    self._refresh_sketch()
                    sketch_action = "rebuilt"
                else:
                    self.sketch.mark_stale()
                    sketch_action = "marked-stale"
            self.stats.updates += 1
            self.stats.invalidated_cache_entries += dropped
        self._update_latency.observe(timer.elapsed)
        return UpdateReport(
            epoch=epoch,
            changes=delta.num_changes,
            touched_nodes=len(touched),
            invalidated_cache_entries=dropped,
            surviving_cache_entries=len(self.cache) if self.cache is not None else 0,
            sketch_action=sketch_action,
            elapsed_seconds=timer.elapsed,
        )

    @property
    def epoch(self) -> int:
        """The graph epoch this service currently serves."""
        return self.engine.epoch

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        s: int,
        t: int,
        epsilon: float,
        *,
        method: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        **kwargs: Any,
    ) -> EstimateResult:
        """Answer one ε-approximate PER query through the serving layers.

        The result's ``details["source"]`` names the layer that answered:
        ``"cache"``, ``"sketch"`` and ``"exact"`` answers carry zero walk
        work.  Under the adaptive planner, ``deadline_seconds`` bounds the
        remaining latency budget: when no ε-meeting tier fits it and the
        sketch has bounds, a ``partial`` envelope answer is served and the
        full-ε value is refined in the background
        (``details["refining"]``).  The static pipeline ignores deadlines.
        """
        epsilon = check_positive(epsilon, "epsilon")
        s, t = check_node_pair(s, t, self.graph.num_nodes)
        self.stats.requests += 1
        timer = Timer()
        with timer, self.obs.tracer.span("service:query", s=s, t=t, epsilon=epsilon):
            if self.planner is not None:
                result = self._planned_answer(
                    s, t, epsilon, method or self.config.method,
                    deadline_seconds, kwargs,
                )
            else:
                result = self._layered_answer(s, t, epsilon)
                if result is None:
                    result = self.engine.query(
                        s, t, epsilon, method=method or self.config.method, **kwargs
                    )
                    result.details.setdefault("source", "engine")
        source = result.details.get("source", "engine")
        self._tier_latency.labels(tier=source).observe(timer.elapsed)
        if self.planner is not None and source in ("cache", "sketch", "exact"):
            # Engine latencies are observed by the result hook; the flat
            # tiers calibrate here from the end-to-end serve time.
            self.planner.observe_flat(
                "sketch" if source == "sketch" else source, timer.elapsed
            )
        return result

    def query_many(
        self,
        pairs: Iterable[Sequence[int]],
        epsilon: float,
        *,
        method: Optional[str] = None,
    ) -> list[EstimateResult]:
        """Answer a batch: layer hits short-circuit, the rest run as one plan.

        Duplicate pairs (including reversed duplicates — ``r`` is symmetric)
        among the layer misses execute once and share their result.
        """
        epsilon = check_positive(epsilon, "epsilon")
        validated = check_query_pairs(pairs, self.graph.num_nodes)
        self.stats.requests += len(validated)
        results: list[Optional[EstimateResult]] = [None] * len(validated)
        missed: list[tuple[int, int]] = []
        missed_indices: dict[tuple[int, int], list[int]] = {}
        for index, (s, t) in enumerate(validated):
            if self.planner is not None:
                served = self._planned_layer_answer(
                    s, t, epsilon, method or self.config.method
                )
            else:
                served = self._layered_answer(s, t, epsilon)
            if served is not None:
                results[index] = served
                continue
            key = canonical_pair(s, t)
            if key not in missed_indices:
                missed_indices[key] = []
                missed.append(key)
            missed_indices[key].append(index)
        if missed:
            batch = self._execute_engine_batch(missed, epsilon, method)
            for key, result in zip(missed, batch):
                result.details.setdefault("source", "engine")
                for index in missed_indices[key]:
                    results[index] = result
        return list(results)  # type: ignore[arg-type]

    def _execute_engine_batch(
        self,
        pairs: Sequence[tuple[int, int]],
        epsilon: float,
        method: Optional[str],
    ):
        """Run the layer misses of a batch: worker pool if attached, else engine.

        The pool path produces the same values as ``workers=N`` in-process
        execution (the own-stream contract), and adopting its results fires
        the engine hooks so the cache warms exactly as usual.
        """
        method = method or self.config.method
        pool = self._worker_pool
        if pool is not None:
            # Breaker discipline: open → fail fast before planning; a pool
            # that crashed past its respawn budget counts toward tripping;
            # any completed batch (including recovered ones) closes it.
            self.breaker.allow()
            plan = self.engine.plan(
                pairs, epsilon, method=method, bucketing=self.config.bucketing
            )
            try:
                batch = pool.execute_plan(plan)
            except EngineUnavailableError:
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            return self.engine.adopt_results(batch)
        return self.engine.query_many(
            pairs, epsilon, method=method,
            bucketing=self.config.bucketing, workers=self.config.workers,
        )

    def attach_worker_pool(self, pool: Any) -> None:
        """Route batch misses through an external plan executor.

        ``pool`` needs one method — ``execute_plan(plan) -> BatchResult`` —
        and is typically a :class:`repro.net.pool.SharedWorkerPool` whose
        workers attach to this service's published shared-memory segments.
        The service does not own the pool's lifecycle (the network server
        that wired it does).
        """
        self._worker_pool = pool

    def detach_worker_pool(self) -> None:
        """Return batch misses to in-process engine execution."""
        self._worker_pool = None

    def sketch_bounds(self, s: int, t: int):
        """The sketch's triangle-inequality envelope for ``(s, t)``, or None.

        Unlike the layered path this ignores ε — the envelope is returned
        however loose it is.  It is what the network server degrades to when
        a request's deadline expires before the engine ran: the bounds are
        always valid for the current epoch (a stale sketch is refreshed per
        policy first, and returns None when it cannot be).
        """
        sketch = self._ready_sketch()
        if sketch is None:
            return None
        return sketch.bounds(s, t)

    def close(self) -> None:
        """Stop background machinery (the refinement executor); idempotent."""
        if self._refiner is not None:
            self._refiner.shutdown()

    def exact(self, s: int, t: int) -> float:
        """Ground-truth ``r(s, t)`` via the engine's Laplacian solver."""
        return self.engine.exact(s, t)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save_artifacts(self, directory=None):
        """Persist preprocessing (λ, spectral info, sketch, delta log) for warm restarts.

        The delta log and lineage recorded from :attr:`store` are what allow a
        later process holding only the base graph to replay to this epoch and
        still skip the cold solve (see :mod:`repro.service.artifacts`).
        A sketch currently marked stale is refreshed first — stale landmark
        resistances must never be persisted as valid.
        """
        target = directory if directory is not None else self.artifact_dir
        if target is None:
            raise ValueError("no artifact directory given (argument or artifact_dir)")
        if self.sketch is not None and self.sketch.stale:
            self._refresh_sketch()
        return artifacts_io.save_artifacts(
            self.engine.context, target, sketch=self.sketch, store=self.store
        )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def _metrics_collector(self):
        """Scrape-time samples bridging the Stats dataclasses into /metrics.

        Registered on the service's metrics registry at construction; only
        runs when the exposition is rendered, so the per-request hot path
        never double-counts into both a dataclass and a counter.
        """
        samples = [
            Sample("repro_epoch", "gauge", "Graph epoch currently served.", {}, float(self.epoch)),
            Sample("repro_updates_total", "counter", "Edge deltas absorbed end to end.", {}, float(self.stats.updates)),
            Sample(
                "repro_kernel_backend",
                "gauge",
                "Walk-kernel backend in use (1 for the active backend label).",
                {"backend": walk_kernels.active_backend_name(self.engine.budget.kernel_backend)},
                1.0,
            ),
        ]
        stats = self.stats
        for field in (
            "requests",
            "cache_hits",
            "sketch_hits",
            "engine_queries",
            "exact_answers",
            "anytime_answers",
            "invalidated_cache_entries",
            "sketch_rebuilds",
        ):
            samples.append(
                Sample(
                    f"repro_service_{field}_total",
                    "counter",
                    f"ServiceStats.{field} for this service.",
                    {},
                    float(getattr(stats, field)),
                )
            )
        if self.planner is not None:
            samples.extend(self.planner.metrics_samples())
        if self.cache is not None:
            cache = self.cache.stats
            for field in ("hits", "misses", "insertions", "refinements", "dropped_refinements", "evictions", "invalidations"):
                samples.append(
                    Sample(
                        f"repro_cache_{field}_total",
                        "counter",
                        f"CacheStats.{field} of the answer cache.",
                        {},
                        float(getattr(cache, field)),
                    )
                )
            samples.append(
                Sample("repro_cache_entries", "gauge", "Live answer-cache entries.", {}, float(len(self.cache)))
            )
        if self.sketch is not None:
            sk = self.sketch.stats
            for field in ("lookups", "hits", "exact_hits"):
                samples.append(
                    Sample(
                        f"repro_sketch_{field}_total",
                        "counter",
                        f"SketchStats.{field} of the landmark sketch store.",
                        {},
                        float(getattr(sk, field)),
                    )
                )
            samples.append(
                Sample("repro_sketch_stale", "gauge", "1 when the sketch is stale for the current epoch.", {}, float(bool(self.sketch.stale)))
            )
        session = self.engine.stats
        samples.append(
            Sample("repro_session_queries_total", "counter", "Estimates recorded by the engine session.", {}, float(session.num_queries))
        )
        samples.append(
            Sample("repro_session_elapsed_seconds_total", "counter", "Cumulative in-estimate wall-clock seconds.", {}, float(session.elapsed_seconds))
        )
        breaker = self.breaker.summary()
        samples.append(
            Sample("repro_breaker_open", "gauge", "1 while the engine-tier circuit breaker is not closed.", {}, float(breaker["state"] != "closed"))
        )
        for field in ("trips", "probes", "recoveries", "rejections"):
            samples.append(
                Sample(
                    f"repro_breaker_{field}_total",
                    "counter",
                    f"CircuitBreaker.{field} of the engine-tier breaker.",
                    {},
                    float(breaker[field]),
                )
            )
        return samples

    def summary(self) -> dict[str, dict[str, object]]:
        """Per-layer counters: service routing, cache, sketch, planner, engine."""
        summary: dict[str, dict[str, object]] = {"service": self.stats.summary()}
        if self.cache is not None:
            summary["cache"] = self.cache.stats.summary()
        if self.sketch is not None:
            summary["sketch"] = self.sketch.stats.summary()
        if self.planner is not None:
            summary["planner"] = self.planner.summary()
        summary["session"] = self.engine.stats.summary()
        requested = self.engine.budget.kernel_backend
        status = walk_kernels.backend_status()
        summary["kernel"] = {
            "requested": requested,
            "active": walk_kernels.active_backend_name(requested),
            "numba_available": status["numba"]["available"],
            "numba_error": status["numba"]["error"],
        }
        summary["fault"] = {
            "breaker": self.breaker.summary(),
            "failpoints": FAULTS.summary(),
        }
        return summary

    def __repr__(self) -> str:
        layers = [
            name
            for name, active in (
                ("cache", self.cache is not None),
                ("sketch", self.sketch is not None),
                ("planner", self.planner is not None),
            )
            if active
        ]
        return (
            f"{type(self).__name__}(graph={self.graph!r}, method={self.config.method!r}, "
            f"layers=[{', '.join(layers)}], requests={self.stats.requests}, "
            f"warm_started={self.warm_started})"
        )


__all__ = ["ServiceConfig", "ServiceStats", "UpdateReport", "ResistanceService"]
