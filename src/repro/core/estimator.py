"""Backward-compatible façade over the unified :class:`QueryEngine`.

:class:`EffectiveResistanceEstimator` is the library's historical entry point.
It is now a thin subclass of :class:`~repro.core.engine.QueryEngine`: the
per-graph preprocessing lives in the shared
:class:`~repro.core.registry.QueryContext` and ``estimate`` dispatches through
the method registry, so *every* registered method — not just the original
``{"geer", "amc", "smm"}`` — is accepted, while all previously valid calls
keep their exact semantics (same validation, same rng stream, same kwargs).

Example
-------
>>> from repro import EffectiveResistanceEstimator, barabasi_albert_graph
>>> graph = barabasi_albert_graph(500, 5, rng=7)
>>> estimator = EffectiveResistanceEstimator(graph, rng=7)
>>> result = estimator.estimate(0, 42, epsilon=0.1)           # GEER by default
>>> abs(result.value - estimator.exact(0, 42)) <= 0.1
True

New code should prefer :class:`~repro.core.engine.QueryEngine` directly — the
session/batch API (``query`` / ``plan`` / ``query_many``) is inherited here
too, so an existing estimator instance can already execute vectorized batches.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.engine import QueryEngine
from repro.core.result import EstimateResult
from repro.graph.graph import Graph
from repro.linalg.eigen import SpectralInfo
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive, check_query_pairs


class EffectiveResistanceEstimator(QueryEngine):
    """Answer ε-approximate pairwise effective resistance queries on one graph.

    Parameters
    ----------
    graph:
        A connected, non-bipartite, undirected graph.
    delta:
        Failure probability δ shared by all randomised queries (paper default 0.01).
    num_batches:
        τ, the maximum number of adaptive batches in AMC/GEER (paper default 5).
    lambda_max_abs:
        Pre-computed ``λ = max(|λ₂|, |λ_n|)``.  When omitted it is computed on
        first use via ARPACK (the paper's preprocessing step).
    rng:
        Seed or generator for all random walks issued by this estimator.
    validate:
        When true (default), the graph is checked for connectivity and
        non-bipartiteness up front.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        delta: float = 0.01,
        num_batches: int = 5,
        lambda_max_abs: Optional[float] = None,
        rng: RngLike = None,
        validate: bool = True,
    ) -> None:
        super().__init__(
            graph,
            delta=delta,
            num_batches=num_batches,
            lambda_max_abs=lambda_max_abs,
            rng=rng,
            validate=validate,
        )

    # ------------------------------------------------------------------ #
    # legacy internals (kept for callers poking at the original attributes)
    # ------------------------------------------------------------------ #
    @property
    def _graph(self) -> Graph:
        return self._context.graph

    @property
    def _lambda(self) -> Optional[float]:
        return self._context._lambda

    @property
    def _spectral(self) -> Optional[SpectralInfo]:
        return self._context._spectral

    @property
    def _engine(self):
        return self._context.engine

    @property
    def _transition(self):
        return self._context.transition

    @property
    def _rng(self):
        return self._context.rng

    @property
    def _delta(self) -> float:
        return self._context.delta

    @property
    def _num_batches(self) -> int:
        return self._context.num_batches

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        s: int,
        t: int,
        epsilon: float,
        *,
        method: str = "geer",
        **kwargs,
    ) -> EstimateResult:
        """Answer a single ε-approximate PER query.

        Parameters
        ----------
        method:
            Any registered method name (see
            :func:`repro.core.registry.available_methods`): ``"geer"``
            (default, Algorithm 3), ``"amc"`` (Algorithm 1 with one-hot
            inputs), ``"smm"`` (Algorithm 2 run for the full ℓ iterations —
            deterministic), or any baseline (``"exact"``, ``"mc"``, ``"mc2"``,
            ``"tp"``, ``"tpc"``, ``"rp"``, ``"hay"``, ``"ground-truth"``).
        kwargs:
            Forwarded to the underlying query function (e.g.
            ``force_smm_iterations`` for GEER, ``max_total_steps`` for the
            Monte Carlo methods).
        """
        return self.query(s, t, epsilon, method=method, **kwargs)

    def estimate_many(
        self,
        pairs: Iterable[Sequence[int]],
        epsilon: float,
        *,
        method: str = "geer",
        workers: int = 1,
        **kwargs,
    ) -> list[EstimateResult]:
        """Answer a batch of PER queries, reusing all preprocessing artefacts.

        Every pair is validated up front (malformed entries — floats, strings,
        out-of-range ids, including numpy scalar variants — raise a
        :class:`ValueError` naming the offending pair) before any sampling
        starts.  Returns per-pair results in input order; prefer
        :meth:`query_many` for the planned/vectorized execution path with
        aggregate diagnostics.

        ``workers > 1`` routes the batch through the planned execution path on
        a thread pool, with one deterministic derived stream per query (the
        *own-stream* contract of :meth:`~repro.core.batch.QueryPlan.execute`);
        ``workers=1`` keeps the historical per-pair loop on the session
        stream, bit-for-bit.
        """
        # Validate ε up front (not per pair) so every entry point — query,
        # query_many, estimate_many, the service — rejects ε <= 0 / NaN the
        # same way, even on an empty batch.
        epsilon = check_positive(epsilon, "epsilon")
        if workers != 1:
            return list(
                self.query_many(pairs, epsilon, method=method, workers=workers, **kwargs)
            )
        validated = check_query_pairs(pairs, self.graph.num_nodes)
        return [
            self.estimate(s, t, epsilon, method=method, **kwargs)
            for s, t in validated
        ]

    def __repr__(self) -> str:
        lam = (
            f"{self._context._lambda:.4f}"
            if self._context._lambda is not None
            else "<lazy>"
        )
        return (
            f"EffectiveResistanceEstimator(graph={self.graph!r}, delta={self.delta}, "
            f"tau={self.num_batches}, lambda={lam})"
        )


__all__ = ["EffectiveResistanceEstimator"]
