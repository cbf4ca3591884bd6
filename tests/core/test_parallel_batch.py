"""Tests of parallel QueryPlan execution (workers > 1) and its contracts.

Two determinism contracts (DESIGN.md):

* ``workers=1`` replays the per-pair session stream bit-for-bit (covered
  extensively in test_batch.py; re-asserted here as the baseline);
* ``workers>1`` uses one derived stream per query, so results are identical
  for a fixed seed across reruns, worker counts and the thread/pool
  executors — but are an independent (equally valid) sample from the
  sequential run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.core.estimator import EffectiveResistanceEstimator
from repro.core.registry import QueryContext
from repro.experiments.queries import random_query_set
from repro.graph.generators import barabasi_albert_graph
from repro.utils.rng import derive_seed


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(300, 5, rng=11)


@pytest.fixture(scope="module")
def pairs(graph):
    return list(random_query_set(graph, 24, rng=3))


EPSILON = 0.4


class TestSequentialBaseline:
    def test_workers_one_matches_per_pair_loop(self, graph, pairs):
        batched = QueryEngine(graph, rng=7).query_many(pairs, EPSILON, method="geer")
        looped = QueryEngine(graph, rng=7)
        expected = [looped.query(s, t, EPSILON, method="geer").value for s, t in pairs]
        assert np.array_equal(batched.values, expected)
        assert batched.workers == 1
        assert batched.executor == "serial"


class TestParallelDeterminism:
    def test_task_seeds_are_derive_seed_of_one_session_draw(self, graph, pairs):
        engine = QueryEngine(graph, rng=7)
        plan = engine.plan(pairs, EPSILON, method="geer")
        session = np.random.Generator(np.random.PCG64())
        session.bit_generator.state = engine.context.rng.bit_generator.state
        base_seed = int(session.integers(0, 2**62))
        tasks = plan.parallel_tasks()
        assert [task[4] for task in tasks] == [
            derive_seed(base_seed, index, s, t) for index, (s, t) in enumerate(pairs)
        ]
        assert engine.context.rng.bit_generator.state == session.bit_generator.state

    @pytest.mark.parametrize("method", ["geer", "amc", "mc"])
    def test_fixed_seed_reproducible(self, graph, pairs, method):
        first = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method=method, workers=2
        )
        second = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method=method, workers=2
        )
        assert np.array_equal(first.values, second.values)
        assert first.workers == 2
        assert first.executor == "thread"

    @pytest.mark.parametrize("method", ["geer", "amc"])
    def test_independent_of_worker_count(self, graph, pairs, method):
        two = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method=method, workers=2
        )
        four = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method=method, workers=4
        )
        assert np.array_equal(two.values, four.values)

    def test_process_pool_matches_threads(self, graph, pairs):
        from repro.net.pool import SharedWorkerPool
        from repro.net.shm import install_shared_context, shm_available

        if not shm_available():
            pytest.skip("multiprocessing shared memory unavailable")
        threads = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method="geer", workers=2
        )
        engine = QueryEngine(graph, rng=7)
        shared = install_shared_context(engine.context)
        try:
            with SharedWorkerPool(shared, workers=2) as pool:
                processes = pool.execute_plan(engine.plan(pairs, EPSILON))
        finally:
            shared.retire()
        assert np.array_equal(threads.values, processes.values)
        assert processes.executor == "shm-pool"

    def test_parallel_estimates_stay_within_epsilon(self, graph, pairs):
        engine = QueryEngine(graph, rng=7)
        batch = engine.query_many(
            pairs, EPSILON, method="geer", workers=3
        )
        for result in batch:
            truth = engine.exact(result.s, result.t)
            assert abs(result.value - truth) <= EPSILON + 1e-9


class TestDeterministicMethodsInParallel:
    @pytest.mark.parametrize("max_batch_columns", [256, 4])
    def test_smm_parallel_equals_serial(self, graph, pairs, max_batch_columns):
        serial = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method="smm", max_batch_columns=max_batch_columns
        )
        parallel = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method="smm", workers=3,
            max_batch_columns=max_batch_columns,
        )
        assert [r.value.hex() for r in serial] == [r.value.hex() for r in parallel]
        assert [r.spmv_operations for r in serial] == [
            r.spmv_operations for r in parallel
        ]
        # the vectorized multi-column path is kept: chunk tasks, not per-pair
        assert all(r.details.get("vectorized") for r in parallel)
        assert max(r.details["batch_columns"] for r in parallel) <= max_batch_columns
        # some bucket is larger than one 4-column chunk, so it really splits
        assert max(len(bucket) for bucket in parallel.buckets) > 2

    def test_ground_truth_parallel_equals_serial(self, graph, pairs):
        serial = QueryEngine(graph, rng=7).query_many(
            pairs[:6], EPSILON, method="ground-truth"
        )
        parallel = QueryEngine(graph, rng=7).query_many(
            pairs[:6], EPSILON, method="ground-truth", workers=2
        )
        assert np.allclose(serial.values, parallel.values, atol=0)

    def test_deterministic_parallel_batch_leaves_session_stream_untouched(
        self, graph, pairs
    ):
        # Methods without a parallel_seed consume nothing from the session
        # stream, so a randomised query after the parallel batch must match a
        # session that never ran it.
        s, t = pairs[0]
        engine = QueryEngine(graph, rng=7)
        engine.query_many(
            pairs[:5], EPSILON, method="ground-truth", workers=2
        )
        after_parallel = engine.query(s, t, EPSILON, method="geer").value
        baseline = QueryEngine(graph, rng=7).query(s, t, EPSILON, method="geer").value
        assert after_parallel == baseline

    def test_rp_runs_on_threads(self, graph, pairs):
        engine = QueryEngine(graph, rng=7)
        threaded = engine.query_many(pairs[:6], 0.8, method="rp", workers=2)
        repeat = QueryEngine(graph, rng=7).query_many(
            pairs[:6], 0.8, method="rp", workers=3
        )
        assert np.array_equal(threaded.values, repeat.values)
        assert threaded.executor == "thread"


class TestValidationAndPlumbing:
    def test_invalid_workers_rejected(self, graph, pairs):
        with pytest.raises(ValueError, match="workers"):
            QueryEngine(graph, rng=7).query_many(pairs, EPSILON, workers=0)

    def test_explicit_engine_kwarg_conflicts_with_parallel(self, graph, pairs):
        engine = QueryEngine(graph, rng=7)
        with pytest.raises(ValueError, match="private random stream"):
            engine.query_many(
                pairs, EPSILON, method="amc", workers=2,
                engine=engine.context.engine,
            )

    def test_session_stats_and_hooks_see_parallel_results(self, graph, pairs):
        engine = QueryEngine(graph, rng=7)
        seen = []
        engine.add_result_hook(seen.append)
        batch = engine.query_many(
            pairs, EPSILON, method="geer", workers=2
        )
        assert engine.stats.num_queries == len(pairs)
        assert len(seen) == len(pairs)
        assert engine.stats.total_steps == sum(r.total_steps for r in batch)

    def test_estimate_many_workers_routes_through_plan(self, graph, pairs):
        estimator = EffectiveResistanceEstimator(graph, rng=7)
        results = estimator.estimate_many(pairs, EPSILON, method="geer", workers=2)
        reference = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method="geer", workers=2
        )
        assert np.array_equal([r.value for r in results], reference.values)

    def test_parallel_batch_summary_reports_workers(self, graph, pairs):
        batch = QueryEngine(graph, rng=7).query_many(
            pairs, EPSILON, method="geer", workers=2
        )
        summary = batch.summary()
        assert summary["workers"] == 2
        assert summary["executor"] == "thread"
