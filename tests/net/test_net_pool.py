"""SharedWorkerPool: no-pickling dispatch, bit-identity, epoch flips."""

from __future__ import annotations

import pytest

from repro.core.engine import QueryEngine
from repro.exceptions import StaleEpochError
from repro.graph.delta import EdgeDelta
from repro.graph.generators import barabasi_albert_graph
from repro.net.pool import SharedWorkerPool
from repro.net.shm import install_shared_context, shm_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing shared memory unavailable"
)

# The last three pairs share the degree signature (4, 6): one 3-pair SMM
# bucket, which a 4-column cap splits into 2-pair chunks.
PAIRS = [(0, 40), (3, 99), (17, 71), (5, 60), (2, 88), (50, 110), (112, 54), (65, 119)]
EPSILON = 0.2


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(120, 4, rng=5)


def _fresh_shared_engine(graph, seed=42):
    engine = QueryEngine(graph, rng=seed)
    shared = install_shared_context(engine.context)
    assert shared is not None
    return engine, shared


def _pool_for(engine, shared, workers=2, max_batch_columns=256):
    context = engine.context
    return SharedWorkerPool(
        shared,
        workers=workers,
        delta=context.delta,
        num_batches=context.num_batches,
        budget=context.budget,
        max_batch_columns=max_batch_columns,
    )


@pytest.mark.parametrize(
    "method,max_batch_columns",
    [
        pytest.param("geer", 256, id="geer"),
        pytest.param("smm", 256, id="smm"),
        # 4 columns = 2-pair SMM chunks, so multi-pair buckets split
        pytest.param("smm", 4, id="smm-cols4"),
    ],
)
def test_pool_matches_thread_executor(graph, method, max_batch_columns):
    thread_engine = QueryEngine(graph, rng=42)
    thread_batch = thread_engine.plan(PAIRS, EPSILON, method=method).execute(
        workers=2, max_batch_columns=max_batch_columns
    )
    engine, shared = _fresh_shared_engine(graph)
    try:
        with _pool_for(engine, shared, max_batch_columns=max_batch_columns) as pool:
            pool.warm()
            batch = pool.execute_plan(engine.plan(PAIRS, EPSILON, method=method))
        assert batch.executor == "shm-pool"
        assert max(r.details.get("batch_columns", 0) for r in batch) <= max_batch_columns
        assert [r.value.hex() for r in thread_batch] == [r.value.hex() for r in batch]
        assert [r.spmv_operations for r in thread_batch] == [
            r.spmv_operations for r in batch
        ]
    finally:
        shared.retire()


def test_pool_results_identical_across_worker_counts(graph):
    values = []
    for workers in (1, 3):
        engine, shared = _fresh_shared_engine(graph)
        try:
            with _pool_for(engine, shared, workers=workers) as pool:
                batch = pool.execute_plan(engine.plan(PAIRS, EPSILON))
            values.append([result.value.hex() for result in batch])
        finally:
            shared.retire()
    assert values[0] == values[1]


def test_pool_falls_back_without_handle(graph):
    """No published segments -> transparent thread-executor fallback."""
    engine = QueryEngine(graph, rng=42)
    assert engine.context.shared_handle is None
    with SharedWorkerPool(workers=2) as pool:
        batch = pool.execute_plan(engine.plan(PAIRS, EPSILON))
    assert batch.executor == "thread"
    reference = QueryEngine(graph, rng=42).plan(PAIRS, EPSILON).execute(workers=2)
    for ours, theirs in zip(reference, batch):
        assert ours.value.hex() == theirs.value.hex()


def test_pool_rp_method_stays_in_process(graph):
    """RP consumes the session stream, so it must not cross processes."""
    engine, shared = _fresh_shared_engine(graph)
    try:
        with _pool_for(engine, shared) as pool:
            batch = pool.execute_plan(engine.plan(PAIRS[:2], 0.5, method="rp"))
        assert batch.executor == "thread"
    finally:
        shared.retire()


def test_pool_epoch_flip_after_update(graph):
    engine, shared = _fresh_shared_engine(graph)
    with _pool_for(engine, shared) as pool:
        first = pool.execute_plan(engine.plan(PAIRS, EPSILON))
        assert len(first) == len(PAIRS)

        stale_plan = engine.plan(PAIRS, EPSILON)
        engine.apply_update(EdgeDelta(inserts=((0, 100),)))
        with pytest.raises(StaleEpochError):
            pool.execute_plan(stale_plan)

        second_shared = install_shared_context(engine.context)
        assert second_shared is not None
        pool.flip(second_shared)
        shared.retire()
        assert pool.current_epoch == engine.epoch

        second = pool.execute_plan(engine.plan(PAIRS, EPSILON))
        assert second.executor == "shm-pool"

        # post-flip results equal a cold session on the updated graph
        cold = QueryEngine(engine.graph, rng=0)
        assert len(second) == len(PAIRS)
        assert cold.graph.num_edges == engine.graph.num_edges
        second_shared.retire()


def test_pool_pins_epoch_during_dispatch(graph):
    """Retiring the served epoch mid-flight must not unlink under the batch."""
    engine, shared = _fresh_shared_engine(graph)
    with _pool_for(engine, shared) as pool:
        pool.warm()
        batch = pool.execute_plan(engine.plan(PAIRS, EPSILON))
        assert len(batch) == len(PAIRS)
        # after dispatch returned there are no outstanding pins
        assert shared.pins == 0
    shared.retire()
    assert shared.unlinked
