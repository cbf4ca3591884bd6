"""Vectorized batch execution of PER queries.

``estimate_many`` used to be a naive per-pair Python loop that re-derived the
maximum walk length ℓ for every call even though Eq. (6) only depends on
``(ε, λ, d(s), d(t))``.  A :class:`QueryPlan` instead *plans* a pair set
before executing it:

1. every pair is validated up front (malformed pairs fail fast, before any
   sampling happens);
2. pairs are grouped into **degree buckets** and the walk length is computed
   once per bucket — at most one Eq. (5)/(6) evaluation per distinct degree
   signature instead of one per pair;
3. all queries share one :class:`~repro.core.registry.QueryContext`, so the
   spectral radius λ, the transition matrix and the walk engine are reused;
4. for SMM the plan executes whole buckets **vectorized**: the propagation
   vectors of every pair in a bucket are stacked into one dense ``n × 2k``
   matrix and advanced with a single sparse multiply per iteration, turning
   ``2k`` SpMVs into one SpMM.

Execution comes in two modes with two distinct determinism contracts
(documented in DESIGN.md):

* ``workers=1`` (default): randomised methods execute in input order against
  the context's shared generator, so a plan produces *exactly* the same
  values as a per-pair loop over ``estimate`` under the same seed — batching
  changes the bookkeeping, never the estimates.
* ``workers>1``: queries fan out over a thread pool.  Each query runs
  against its **own deterministic random stream**, derived from the session
  generator and the query's position via :func:`~repro.utils.rng.derive_seed`,
  so a parallel batch is reproducible for a fixed seed — and identical across
  worker counts — but deliberately does *not* replay the sequential stream
  (interleaving a single generator across workers would make results
  scheduling-dependent).

Process parallelism lives in one place, :class:`repro.net.pool.SharedWorkerPool`:
it runs the same task list (:meth:`QueryPlan.parallel_tasks`) and the same
SMM chunks (:meth:`QueryPlan.smm_chunks`) on persistent workers attached to
shared memory, so its results are hex-equal to the thread executor's.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.registry import MethodSpec, QueryContext, resolve_method
from repro.core.result import EstimateResult
from repro.exceptions import StaleEpochError
from repro.utils.rng import derive_seeds
from repro.utils.timing import Timer
from repro.utils.validation import check_positive, check_query_pairs


@dataclass(frozen=True)
class WalkBucket:
    """One group of pairs sharing a single walk-length computation.

    Attributes
    ----------
    key:
        The bucket signature — a sorted degree pair for exact bucketing, a
        sorted ``floor(log2(degree))`` pair for coarse bucketing, or a
        sentinel for methods without a walk-length parameter.
    walk_length:
        The maximum walk length shared by every pair in the bucket (``None``
        for methods that do not take one).
    indices:
        Positions of the bucket's pairs in the plan's input order.
    """

    key: tuple
    walk_length: Optional[int]
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class BatchResult:
    """Aggregate outcome of one :meth:`QueryPlan.execute` call.

    Per-pair results (in input order) plus plan-level diagnostics: how many
    degree buckets the pair set collapsed into, how many walk-length
    computations were actually performed, and the total sampling work.
    """

    method: str
    epsilon: float
    results: list[EstimateResult]
    buckets: list[WalkBucket]
    walk_length_computations: int
    elapsed_seconds: float
    bucketing: str
    workers: int = 1
    executor: str = "serial"

    # -- sequence protocol ------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[EstimateResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> EstimateResult:
        return self.results[index]

    # -- aggregates -------------------------------------------------------- #
    @property
    def values(self) -> np.ndarray:
        """The estimates, in input order."""
        return np.array([r.value for r in self.results], dtype=np.float64)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(r.s, r.t) for r in self.results]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def total_steps(self) -> int:
        """Total random-walk steps across every query in the batch."""
        return sum(r.total_steps for r in self.results)

    @property
    def num_walks(self) -> int:
        return sum(r.num_walks for r in self.results)

    @property
    def spmv_operations(self) -> int:
        return sum(r.spmv_operations for r in self.results)

    @property
    def work(self) -> int:
        """Machine-independent cost proxy: walk steps plus SpMV edge traversals."""
        return sum(r.work for r in self.results)

    @property
    def budget_exhausted(self) -> bool:
        """True when any query in the batch hit an explicit budget cap."""
        return any(r.budget_exhausted for r in self.results)

    def summary(self) -> dict[str, object]:
        """One table row summarising the batch (used by the CLI and benches)."""
        return {
            "method": self.method,
            "epsilon": self.epsilon,
            "pairs": len(self.results),
            "buckets": self.num_buckets,
            "walk_length_computations": self.walk_length_computations,
            "total_steps": self.total_steps,
            "spmv_operations": self.spmv_operations,
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
            "executor": self.executor,
        }


class QueryPlan:
    """A validated, degree-bucketed execution plan for a set of PER queries.

    Parameters
    ----------
    context:
        The shared :class:`~repro.core.registry.QueryContext`.
    pairs:
        Iterable of ``(s, t)`` node pairs.  Validated eagerly: malformed
        entries (floats, strings, out-of-range ids — including numpy scalar
        variants) raise :class:`ValueError` naming the offending pair.
    epsilon:
        The additive error target shared by every query in the plan.
    method:
        Any name from :func:`~repro.core.registry.available_methods`.
    bucketing:
        ``"degree"`` (default) buckets by the exact sorted degree pair — the
        shared walk length equals the per-pair Eq. (6) value, so results are
        identical to per-pair execution.  On weighted graphs the (float)
        weighted degrees are almost surely distinct, so exact bucketing
        degenerates towards one bucket per pair — harmless (the length
        formula is closed-form) but no dedup; pick ``"log2"`` there when
        planning cost matters more than exact per-pair lengths.  ``"log2"``
        buckets by ``floor(log2(degree))`` and uses each bucket's smallest
        possible degrees, giving fewer (conservative, never shorter)
        walk-length computations on heavy-tailed degree distributions.
    """

    def __init__(
        self,
        context: QueryContext,
        pairs: Iterable[Sequence[int]],
        epsilon: float,
        *,
        method: str = "geer",
        bucketing: str = "degree",
    ) -> None:
        if bucketing not in ("degree", "log2"):
            raise ValueError(f"bucketing must be 'degree' or 'log2', got {bucketing!r}")
        self.context = context
        # Plans pin the context's graph epoch at build time: walk lengths and
        # bucket degrees are derived from that graph, so executing after an
        # apply_delta would silently mix versions — execute() raises instead.
        self.epoch = context.epoch
        self.epsilon = check_positive(epsilon, "epsilon")
        self.spec: MethodSpec = resolve_method(method)
        self.bucketing = bucketing
        self._pairs = check_query_pairs(pairs, context.graph.num_nodes)
        if self.spec.kind == "edge":
            for index, (s, t) in enumerate(self._pairs):
                if not context.graph.has_edge(s, t):
                    raise ValueError(
                        f"method {self.spec.name!r} only supports edge queries; "
                        f"pair #{index} ({s}, {t}) is not an edge"
                    )
        self._buckets, self._lengths, self.walk_length_computations = self._build_buckets()

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def _bucket_key_and_degrees(self, s: int, t: int) -> tuple[tuple, float, float]:
        # Weighted degrees are what Eq. (6) depends on; on unweighted graphs
        # they equal the integer degrees, so the buckets are unchanged.
        degrees = self.context.weighted_degrees
        d_lo, d_hi = sorted((float(degrees[s]), float(degrees[t])))
        if self.bucketing == "degree":
            return (d_lo, d_hi), d_lo, d_hi
        b_lo, b_hi = int(math.floor(math.log2(d_lo))), int(math.floor(math.log2(d_hi)))
        # The smallest degrees the bucket can contain give the longest (and
        # therefore safe-for-every-member) walk length.
        return (b_lo, b_hi), float(2.0**b_lo), float(2.0**b_hi)

    def _build_buckets(self) -> tuple[list[WalkBucket], list[Optional[int]], int]:
        spec = self.spec
        lengths: list[Optional[int]] = [None] * len(self._pairs)
        if spec.walk_length_kind is None:
            bucket = WalkBucket(
                key=("all",), walk_length=None, indices=tuple(range(len(self._pairs)))
            )
            return [bucket], lengths, 0

        if spec.walk_length_kind == "peng":
            # Eq. (5) is degree-independent: the whole pair set is one bucket.
            length = spec.plan_walk_length(self.context, self.epsilon, 1, 1)
            bucket = WalkBucket(
                key=("peng",), walk_length=length, indices=tuple(range(len(self._pairs)))
            )
            lengths = [length] * len(self._pairs)
            return [bucket], lengths, 1

        grouped: dict[tuple, list[int]] = {}
        bucket_degrees: dict[tuple, tuple[float, float]] = {}
        for index, (s, t) in enumerate(self._pairs):
            key, d_lo, d_hi = self._bucket_key_and_degrees(s, t)
            grouped.setdefault(key, []).append(index)
            bucket_degrees.setdefault(key, (d_lo, d_hi))
        buckets: list[WalkBucket] = []
        for key, indices in grouped.items():
            d_lo, d_hi = bucket_degrees[key]
            length = spec.plan_walk_length(self.context, self.epsilon, d_lo, d_hi)
            for index in indices:
                lengths[index] = length
            buckets.append(
                WalkBucket(key=key, walk_length=length, indices=tuple(indices))
            )
        return buckets, lengths, len(buckets)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def pair_cost_units(self, index: int) -> float:
        """Sampling-cost proxy (``ℓ/ε²``) for one planned pair.

        Zero for methods without a planned walk length (deterministic
        solvers): their cost is not sampling-bound and the planner models
        them separately.
        """
        length = self._lengths[index]
        if length is None:
            return 0.0
        return float(length) / (self.epsilon * self.epsilon)

    def cost_units(self) -> float:
        """Total sampling-cost proxy of the plan, summed over its pairs.

        This is what the adaptive planner charges a batch before executing
        it: walk lengths already reflect Eq. (6) per bucket, and the ``1/ε²``
        factor accounts for the sample count, so two plans' ``cost_units``
        compare the way their wall-clock sampling times do.
        """
        return sum(self.pair_cost_units(i) for i in range(len(self._pairs)))

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return list(self._pairs)

    @property
    def buckets(self) -> list[WalkBucket]:
        return list(self._buckets)

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return len(self._pairs)

    def describe(self) -> list[dict[str, object]]:
        """One row per bucket (key, walk length, size) for logging/CLI output."""
        return [
            {
                "bucket": str(bucket.key),
                "walk_length": bucket.walk_length,
                "pairs": len(bucket),
            }
            for bucket in self._buckets
        ]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        *,
        vectorize: bool = True,
        max_batch_columns: int = 256,
        workers: int = 1,
        **kwargs: Any,
    ) -> BatchResult:
        """Run every query in the plan and return an aggregate result.

        With ``workers=1`` (default) randomised methods execute in input order
        against the context's shared generator (bit-for-bit reproducible
        against a per-pair loop under the same seed); the precomputed bucket
        walk length is injected through the method's ``walk_length_param``.
        SMM executes bucket-wise with multi-column propagation when
        ``vectorize`` is true (deterministic, so ordering is irrelevant);
        extra ``kwargs`` fall back to the scalar path.

        With ``workers>1`` queries fan out over a thread pool.  Every query
        gets a private random stream derived deterministically from the
        session generator and its input position, so a parallel batch is
        reproducible for a fixed seed — and produces the same values for any
        worker count, and on :class:`repro.net.pool.SharedWorkerPool` — but
        follows a different stream than sequential execution (the
        *own-stream* contract; see DESIGN.md).
        """
        if self.context.epoch != self.epoch:
            raise StaleEpochError(
                f"plan was built at graph epoch {self.epoch} but the context "
                f"is now at epoch {self.context.epoch}; re-plan after apply_delta"
            )
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        timer = Timer()
        obs = self.context.obs
        results: list[Optional[EstimateResult]] = [None] * len(self._pairs)
        vectorized_smm = vectorize and self.spec.name == "smm" and not kwargs
        if workers == 1:
            executor_used = "serial"
            with timer, obs.tracer.span(
                "plan:execute",
                method=self.spec.name,
                pairs=len(self._pairs),
                buckets=len(self._buckets),
                executor=executor_used,
            ):
                if vectorized_smm:
                    for indices, pairs, length in self.smm_chunks(max_batch_columns):
                        chunk_results = _run_smm_chunk(
                            self.context, pairs, length, self.epsilon
                        )
                        for index, result in zip(indices, chunk_results):
                            results[index] = result
                else:
                    param = self.spec.walk_length_param
                    for index, (s, t) in enumerate(self._pairs):
                        call_kwargs = dict(kwargs)
                        length = self._lengths[index]
                        if param is not None and length is not None and param not in call_kwargs:
                            call_kwargs[param] = length
                        results[index] = self.spec(
                            self.context, s, t, self.epsilon, **call_kwargs
                        )
        else:
            executor_used = "thread"
            with timer, obs.tracer.span(
                "plan:execute",
                method=self.spec.name,
                pairs=len(self._pairs),
                buckets=len(self._buckets),
                executor=executor_used,
                workers=workers,
            ):
                self._execute_parallel(
                    results,
                    workers=workers,
                    vectorized_smm=vectorized_smm,
                    max_batch_columns=max_batch_columns,
                    kwargs=kwargs,
                )
        if obs.metrics.enabled:
            obs.metrics.counter(
                "repro_plan_executions_total",
                "QueryPlan batch executions, by executor kind.",
                labels=("executor",),
            ).labels(executor=executor_used).inc()
            obs.metrics.counter(
                "repro_plan_pairs_total",
                "Query pairs executed through QueryPlan batches.",
            ).inc(len(self._pairs))
            obs.metrics.histogram(
                "repro_plan_latency_seconds",
                "Wall-clock latency of whole QueryPlan batch executions.",
            ).observe(timer.elapsed)
        return BatchResult(
            method=self.spec.name,
            epsilon=self.epsilon,
            results=list(results),  # type: ignore[arg-type]
            buckets=list(self._buckets),
            walk_length_computations=self.walk_length_computations,
            elapsed_seconds=timer.elapsed,
            bucketing=self.bucketing,
            workers=workers,
            executor=executor_used,
        )

    # ------------------------------------------------------------------ #
    # parallel execution
    # ------------------------------------------------------------------ #
    def parallel_tasks(
        self, kwargs: Optional[dict[str, Any]] = None
    ) -> list[tuple[int, int, int, Optional[int], Optional[int], dict[str, Any]]]:
        """One ``(index, s, t, walk_length, seed, kwargs)`` tuple per query.

        The task list of every parallel executor — the thread pool behind
        ``execute(workers=N)`` and :class:`repro.net.pool.SharedWorkerPool`,
        which run each task with :func:`_task_kwargs` — so both stay
        bit-identical for every N.  Seeds are derived from the session
        generator and the query index, so they depend on the seed and the
        input order only — never on worker count, scheduling or which
        executor runs them.  Deriving the base consumes one draw from the
        session stream (documented in DESIGN.md).
        """
        kwargs = dict(kwargs or {})
        seeded = self.spec.parallel_seed is not None
        if seeded and ("engine" in kwargs or "rng" in kwargs):
            raise ValueError(
                "cannot combine workers > 1 with an explicit engine/rng kwarg: "
                "parallel queries each need a private random stream"
            )
        # Deterministic methods consume nothing from the session stream — only
        # seeded methods pay the one base draw.
        if seeded:
            base_seed = int(self.context.rng.integers(0, 2**62))
            seeds = derive_seeds(
                base_seed, [(index, s, t) for index, (s, t) in enumerate(self._pairs)]
            )
        else:
            seeds = [None] * len(self._pairs)
        param = self.spec.walk_length_param
        tasks = []
        for index, (s, t) in enumerate(self._pairs):
            length = self._lengths[index] if param is not None else None
            tasks.append((index, s, t, length, seeds[index], kwargs))
        return tasks

    def smm_chunks(
        self, max_batch_columns: int
    ) -> list[tuple[tuple[int, ...], list[tuple[int, int]], int]]:
        """The vectorized-SMM work units: ``(indices, pairs, walk_length)``.

        Each pair occupies two propagation columns (s* and t*), so a chunk
        holds at most ``max_batch_columns // 2`` pairs of one bucket.  Serial,
        thread and pool execution all run exactly these chunks; SMM is
        deterministic, so the completion order is irrelevant.
        """
        pairs_per_chunk = max(1, int(max_batch_columns) // 2)
        chunks = []
        for bucket in self._buckets:
            for lo in range(0, len(bucket.indices), pairs_per_chunk):
                indices = bucket.indices[lo : lo + pairs_per_chunk]
                chunks.append(
                    (indices, [self._pairs[i] for i in indices], int(bucket.walk_length or 0))
                )
        return chunks

    def _execute_parallel(
        self,
        results: list[Optional[EstimateResult]],
        *,
        workers: int,
        vectorized_smm: bool,
        max_batch_columns: int,
        kwargs: dict[str, Any],
    ) -> None:
        # Build every shared artefact up front so pool threads only read the
        # context.
        context = self.context
        context.prepare_for(self.spec, self.epsilon)
        if vectorized_smm:
            # SMM parallelises at the chunk level: the multi-column SpMM path
            # is kept, chunks are the unit of work.
            chunks = self.smm_chunks(max_batch_columns)
            jobs = [
                (_run_smm_chunk, (context, pairs, length, self.epsilon))
                for (_, pairs, length) in chunks
            ]

            def assign(position: int, chunk_results) -> None:
                for index, result in zip(chunks[position][0], chunk_results):
                    results[index] = result

        else:
            tasks = self.parallel_tasks(kwargs)

            def run(task: tuple) -> EstimateResult:
                _index, s, t, _length, _seed, _kwargs = task
                return self.spec(
                    context, s, t, self.epsilon,
                    **_task_kwargs(self.spec, context, task),
                )

            jobs = [(run, (task,)) for task in tasks]

            def assign(position: int, result) -> None:
                results[tasks[position][0]] = result

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, *args) for fn, args in jobs]
            self._collect(futures)
            for position, future in enumerate(futures):
                assign(position, future.result())

    @staticmethod
    def _collect(futures: Sequence[Any]) -> None:
        """Wait for all futures; cancel the rest as soon as one fails."""
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        failed = next((f for f in done if f.exception() is not None), None)
        if failed is not None:
            for future in pending:
                future.cancel()
            raise failed.exception()
        if pending:  # pragma: no cover - FIRST_EXCEPTION without failure waits for all
            wait(pending)


def _task_kwargs(
    spec: MethodSpec,
    context: QueryContext,
    task: tuple[int, int, int, Optional[int], Optional[int], dict[str, Any]],
) -> dict[str, Any]:
    """Per-query kwargs: planned walk length plus the private random stream."""
    _index, _s, _t, length, seed, kwargs = task
    call_kwargs = dict(kwargs)
    param = spec.walk_length_param
    if param is not None and length is not None and param not in call_kwargs:
        call_kwargs[param] = length
    call_kwargs.update(spec.private_stream(context, seed))
    return call_kwargs


def _run_smm_chunk(
    context: QueryContext,
    pairs: Sequence[tuple[int, int]],
    num_iterations: int,
    epsilon: float,
) -> list[EstimateResult]:
    """Run SMM for one chunk of same-bucket pairs with multi-column propagation.

    The one-hot start vectors of all ``k`` pairs are stacked into a dense
    ``n × 2k`` matrix and advanced jointly: each iteration is a single
    SpMM ``P @ X`` instead of ``2k`` separate SpMVs.  The per-pair Eq. (17)
    cost accounting (degree mass of each propagation vector's support) is
    preserved.
    """
    graph = context.graph
    transition = context.transition
    degrees = context.degrees_float
    weighted_degrees = context.weighted_degrees
    n = graph.num_nodes
    k = len(pairs)
    timer = Timer()
    with timer:
        s_idx = np.array([s for s, _ in pairs], dtype=np.int64)
        t_idx = np.array([t for _, t in pairs], dtype=np.int64)
        d_s = weighted_degrees[s_idx]
        d_t = weighted_degrees[t_idx]
        s_cols = 2 * np.arange(k)
        t_cols = s_cols + 1

        state = np.zeros((n, 2 * k), dtype=np.float64)
        state[s_idx, s_cols] = 1.0
        state[t_idx, t_cols] = 1.0

        def current_terms(matrix: np.ndarray) -> np.ndarray:
            return (
                matrix[s_idx, s_cols] / d_s
                + matrix[t_idx, t_cols] / d_t
                - matrix[t_idx, s_cols] / d_s
                - matrix[s_idx, t_cols] / d_t
            )

        estimates = current_terms(state)
        spmv_operations = np.zeros(k, dtype=np.int64)
        for _ in range(num_iterations):
            # Eq. (17) cost of this iteration: degree mass of each column's support.
            column_mass = (state != 0).T.astype(np.float64) @ degrees
            spmv_operations += (column_mass[s_cols] + column_mass[t_cols]).astype(np.int64)
            state = transition @ state
            estimates += current_terms(state)
    per_pair_seconds = timer.elapsed / max(k, 1)
    return [
        EstimateResult(
            value=float(estimates[i]),
            method="smm",
            s=int(s_idx[i]),
            t=int(t_idx[i]),
            epsilon=epsilon,
            walk_length=num_iterations,
            smm_iterations=num_iterations,
            spmv_operations=int(spmv_operations[i]),
            elapsed_seconds=per_pair_seconds,
            details={"vectorized": True, "batch_columns": 2 * k},
        )
        for i in range(k)
    ]


__all__ = ["WalkBucket", "BatchResult", "QueryPlan"]
