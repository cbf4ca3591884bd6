"""The unified query session API.

A :class:`QueryEngine` is a per-graph *query session*: it owns one
:class:`~repro.core.registry.QueryContext` (spectral radius, transition
matrix, walk engine, solvers, sketches — every preprocessing artefact the
paper treats as one-off) and answers queries through the method registry, so
every method — the paper's GEER/AMC/SMM *and* all eight baselines — is
reachable through the same two calls:

>>> from repro import QueryEngine, barabasi_albert_graph
>>> graph = barabasi_albert_graph(500, 5, rng=7)
>>> engine = QueryEngine(graph, rng=7)
>>> engine.query(0, 42, epsilon=0.1).value            # doctest: +SKIP
0.2471...
>>> batch = engine.query_many([(0, 42), (3, 99)], epsilon=0.1)
>>> len(batch) == 2 and batch.num_buckets >= 1
True

``query`` answers one pair; ``plan``/``query_many`` group a pair set by
degree bucket and execute it with shared walk-length planning (see
:mod:`repro.core.batch`).  Session-level counters track the cumulative work
issued through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import scipy.sparse as sp

from repro.core.batch import BatchResult, QueryPlan
from repro.core.registry import (
    QueryBudget,
    QueryContext,
    UnknownMethodError,
    available_methods,
    method_table,
    resolve_method,
)
from repro.core.result import EstimateResult
from repro.graph.graph import Graph
from repro.obs import Observability
from repro.linalg.eigen import SpectralInfo
from repro.utils.rng import RngLike
from repro.utils.validation import check_node_pair, check_positive


@dataclass
class SessionStats:
    """Cumulative work issued through one :class:`QueryEngine` session."""

    num_queries: int = 0
    total_steps: int = 0
    spmv_operations: int = 0
    elapsed_seconds: float = 0.0

    def record(self, result: EstimateResult) -> None:
        self.num_queries += 1
        self.total_steps += result.total_steps
        self.spmv_operations += result.spmv_operations
        self.elapsed_seconds += result.elapsed_seconds

    def summary(self) -> dict[str, object]:
        """One table row of session-level counters (printed by the CLI)."""
        return {
            "queries": self.num_queries,
            "walk_steps": self.total_steps,
            "spmv_operations": self.spmv_operations,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "steps_per_query": (
                round(self.total_steps / self.num_queries, 1) if self.num_queries else 0.0
            ),
        }


class QueryEngine:
    """Answer ε-approximate PER queries on one graph through the method registry.

    Parameters
    ----------
    graph:
        A connected, non-bipartite, undirected graph.
    delta:
        Failure probability δ shared by all randomised queries (paper default
        0.01).
    num_batches:
        τ, the maximum number of adaptive batches in AMC/GEER (paper default 5).
    lambda_max_abs:
        Pre-computed ``λ = max(|λ₂|, |λ_n|)``.  When omitted it is computed on
        first use via ARPACK (the paper's preprocessing step) and cached.
    rng:
        Seed or generator driving all randomised queries in this session.
    validate:
        When true (default), the graph is checked for connectivity and
        non-bipartiteness up front.
    budget:
        Optional :class:`~repro.core.registry.QueryBudget` capping the
        baselines' sampling budgets (default: the faithful, unbounded paper
        budgets).
    context:
        An existing :class:`QueryContext` to adopt instead of building one
        (used by the experiment harness to share preprocessing).
    obs:
        Optional :class:`repro.obs.Observability` bundle.  When given with an
        existing ``context`` it is installed on the context so all layers
        share one registry/tracer; the default is the disabled ``NULL_OBS``.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        *,
        delta: float = 0.01,
        num_batches: int = 5,
        lambda_max_abs: Optional[float] = None,
        rng: RngLike = None,
        validate: bool = True,
        budget: Optional[QueryBudget] = None,
        context: Optional[QueryContext] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if context is not None:
            self._context = context
            if obs is not None:
                self._context.obs = obs
                # A lazily-built engine picks obs up from the context; one
                # built before this point must be re-pointed explicitly.
                engine = self._context._cells.get("engine")
                if engine is not None:
                    engine.obs = obs
        else:
            if graph is None:
                raise ValueError("provide a graph or an existing QueryContext")
            self._context = QueryContext(
                graph,
                delta=delta,
                num_batches=num_batches,
                lambda_max_abs=lambda_max_abs,
                rng=rng,
                budget=budget,
                validate=validate,
                obs=obs,
            )
        self.stats = SessionStats()
        self._result_hooks: list[Callable[[EstimateResult], None]] = []

    @property
    def obs(self) -> Observability:
        """The observability bundle shared with the context (never ``None``)."""
        return self._context.obs

    # ------------------------------------------------------------------ #
    # shared state
    # ------------------------------------------------------------------ #
    @property
    def context(self) -> QueryContext:
        return self._context

    @property
    def graph(self) -> Graph:
        return self._context.graph

    @property
    def delta(self) -> float:
        return self._context.delta

    @property
    def num_batches(self) -> int:
        return self._context.num_batches

    @property
    def budget(self) -> QueryBudget:
        return self._context.budget

    @property
    def epoch(self) -> int:
        """The graph epoch this session currently serves (see :meth:`apply_update`)."""
        return self._context.epoch

    @property
    def lineage(self) -> str:
        """Fingerprint-chain digest of the session's current graph epoch."""
        return self._context.lineage

    @property
    def lambda_max_abs(self) -> float:
        """``λ = max(|λ₂|, |λ_n|)``, computed lazily and cached."""
        return self._context.lambda_max_abs

    @property
    def spectral_info(self) -> SpectralInfo:
        return self._context.spectral_info

    @property
    def transition_matrix(self) -> sp.csr_matrix:
        return self._context.transition

    def walk_length(self, s: int, t: int, epsilon: float, *, refined: bool = True) -> int:
        """The maximum walk length ℓ used for pair ``(s, t)`` at error ``epsilon``."""
        return self._context.walk_length(s, t, epsilon, refined=refined)

    # ------------------------------------------------------------------ #
    # result hooks
    # ------------------------------------------------------------------ #
    def add_result_hook(self, hook: Callable[[EstimateResult], None]) -> None:
        """Register a callable invoked with every result this engine records.

        Hooks see single-pair and batch results alike, which is what lets a
        serving layer (:class:`repro.service.ResistanceService`) observe every
        engine-produced answer — e.g. to populate an answer cache — no matter
        which execution path produced it.  Hooks run synchronously in
        registration order; a raising hook propagates to the caller.
        """
        self._result_hooks.append(hook)

    def remove_result_hook(self, hook: Callable[[EstimateResult], None]) -> None:
        """Deregister a hook added with :meth:`add_result_hook` (no-op if absent)."""
        try:
            self._result_hooks.remove(hook)
        except ValueError:
            pass

    def _record(self, result: EstimateResult) -> None:
        self.stats.record(result)
        # The single funnel every estimate passes through (direct queries,
        # batches, pool-adopted results) — so this is where
        # per-method counters and latency histograms are observed.
        self._context.obs.observe_result(result)
        for hook in self._result_hooks:
            hook(result)

    # ------------------------------------------------------------------ #
    # registry access
    # ------------------------------------------------------------------ #
    @staticmethod
    def available_methods() -> tuple[str, ...]:
        """Names of every method this engine can dispatch to."""
        return available_methods()

    @staticmethod
    def describe_methods() -> list[dict[str, object]]:
        """One metadata row per registered method."""
        return method_table()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        s: int,
        t: int,
        epsilon: float,
        *,
        method: str = "geer",
        **kwargs: Any,
    ) -> EstimateResult:
        """Answer a single ε-approximate PER query with any registered method.

        ``kwargs`` are forwarded to the method implementation (e.g.
        ``force_smm_iterations`` for GEER, ``max_total_steps`` for the Monte
        Carlo methods, ``num_iterations`` for SMM).
        """
        try:
            spec = resolve_method(method)
        except UnknownMethodError as exc:
            raise ValueError(str(exc)) from exc
        epsilon = check_positive(epsilon, "epsilon")
        s, t = check_node_pair(s, t, self._context.graph.num_nodes)
        with self._context.obs.tracer.span(
            "engine:query", method=method, s=s, t=t
        ):
            result = spec(self._context, s, t, epsilon, **kwargs)
        self._record(result)
        return result

    def plan(
        self,
        pairs: Iterable[Sequence[int]],
        epsilon: float,
        *,
        method: str = "geer",
        bucketing: str = "degree",
    ) -> QueryPlan:
        """Build a degree-bucketed execution plan for a set of queries."""
        try:
            return QueryPlan(
                self._context, pairs, epsilon, method=method, bucketing=bucketing
            )
        except UnknownMethodError as exc:
            raise ValueError(str(exc)) from exc

    def query_many(
        self,
        pairs: Iterable[Sequence[int]],
        epsilon: float,
        *,
        method: str = "geer",
        bucketing: str = "degree",
        workers: int = 1,
        **kwargs: Any,
    ) -> BatchResult:
        """Plan and execute a batch of queries; see :class:`QueryPlan`.

        ``workers > 1`` executes the plan on a thread pool with one
        deterministic derived stream per query (see
        :meth:`QueryPlan.execute` for the two determinism contracts).
        """
        batch = self.plan(pairs, epsilon, method=method, bucketing=bucketing).execute(
            workers=workers, **kwargs
        )
        return self.adopt_results(batch)

    def adopt_results(self, batch: BatchResult) -> BatchResult:
        """Record an externally executed batch into this session.

        External executors — e.g. :class:`repro.net.pool.SharedWorkerPool`
        running a plan on attached shared-memory contexts — produce results
        this session never saw.  Adopting them updates the session counters
        and fires the result hooks (so serving-layer caches stay warm), then
        returns the batch unchanged.
        """
        for result in batch:
            self._record(result)
        return batch

    def apply_update(self, delta, *, refresh: str = "on-next-read", graph=None) -> int:
        """Absorb an :class:`~repro.graph.delta.EdgeDelta` into this session.

        Delegates to :meth:`QueryContext.apply_delta`: cheap artefacts are
        patched at the CSR-row level, expensive ones follow ``refresh``, and
        the session's epoch advances by one.  Plans built before the update
        raise :class:`~repro.exceptions.StaleEpochError` when executed; new
        queries see the post-delta graph and return exactly what a cold
        session on that graph would (the delta ≡ rebuild contract).
        """
        return self._context.apply_delta(delta, refresh=refresh, graph=graph)

    def export_preprocessing(self) -> dict[str, float]:
        """Scalar preprocessing state of this session's context, for persistence.

        See :meth:`repro.core.registry.QueryContext.export_preprocessing` and
        :mod:`repro.service.artifacts` (which adds the graph fingerprint and
        the on-disk format around this dict).
        """
        return self._context.export_preprocessing()

    def exact(self, s: int, t: int) -> float:
        """Ground-truth ``r(s, t)`` via a preconditioned Laplacian solve."""
        s, t = check_node_pair(s, t, self._context.graph.num_nodes)
        return self._context.solver.effective_resistance(s, t)

    def __repr__(self) -> str:
        lam = (
            f"{self._context._lambda:.4f}"
            if self._context._lambda is not None
            else "<lazy>"
        )
        return (
            f"{type(self).__name__}(graph={self.graph!r}, delta={self.delta}, "
            f"tau={self.num_batches}, lambda={lam}, queries={self.stats.num_queries})"
        )


__all__ = ["QueryEngine", "SessionStats"]
