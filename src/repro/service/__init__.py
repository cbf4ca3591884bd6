"""The serving layer above the unified query engine.

Four building blocks and one facade turn the per-graph query session
(:class:`repro.QueryEngine`) into something that can sit behind traffic:

* :mod:`repro.service.cache` — ε-aware LRU answer cache
  (:class:`ResistanceCache`): a cached value answers every query with a looser
  tolerance, with zero sampling work.
* :mod:`repro.service.sketch` — exact landmark resistance vectors
  (:class:`LandmarkSketchStore`) serving triangle-inequality bounds and
  O(k) approximate answers without the walk engine.
* :mod:`repro.service.artifacts` — persistent preprocessing artifacts with a
  graph fingerprint for staleness detection, so warm process starts skip the
  ARPACK eigen-solve.
* :mod:`repro.service.planner` — the cost-based adaptive router
  (:class:`QueryPlanner`): per-query tier decisions from live signals with
  online-calibrated latency models, plus anytime sketch answers refined in
  the background (:class:`RefinementExecutor`).
* :mod:`repro.service.server` — :class:`ResistanceService`, wiring
  cache → sketch → engine with per-layer statistics (statically, or per-query
  through the planner with ``ServiceConfig(planner="adaptive")``), exposed on
  the CLI as ``repro-er serve`` / ``repro-er warm``.  Batches
  (:meth:`ResistanceService.query_many`) run their layer misses as one
  :class:`~repro.core.batch.QueryPlan`, on the attached worker pool when the
  network server provides one.
"""

from repro.service.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    DELTA_LOG_NAME,
    StaleArtifactError,
    graph_fingerprint,
    has_artifacts,
    load_bundle,
    load_context,
    load_delta_log,
    load_sketch,
    read_delta_log,
    save_artifacts,
)
from repro.service.cache import CacheEntry, CacheStats, ResistanceCache, canonical_pair
from repro.service.planner import (
    CostModel,
    PlanDecision,
    PlannerConfig,
    PlannerStats,
    QueryPlanner,
    RefinementExecutor,
    ServiceSignals,
)
from repro.service.sketch import LandmarkSketchStore, SketchAnswer, SketchStats
from repro.service.server import (
    ResistanceService,
    ServiceConfig,
    ServiceStats,
    UpdateReport,
)

__all__ = [
    # cache
    "canonical_pair",
    "CacheEntry",
    "CacheStats",
    "ResistanceCache",
    # sketch
    "LandmarkSketchStore",
    "SketchAnswer",
    "SketchStats",
    # artifacts
    "ARTIFACT_FORMAT_VERSION",
    "DELTA_LOG_NAME",
    "ArtifactError",
    "StaleArtifactError",
    "graph_fingerprint",
    "has_artifacts",
    "load_bundle",
    "load_context",
    "load_delta_log",
    "load_sketch",
    "read_delta_log",
    "save_artifacts",
    # planner
    "CostModel",
    "PlanDecision",
    "PlannerConfig",
    "PlannerStats",
    "QueryPlanner",
    "RefinementExecutor",
    "ServiceSignals",
    # facade
    "ResistanceService",
    "ServiceConfig",
    "ServiceStats",
    "UpdateReport",
]
