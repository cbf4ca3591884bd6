"""Batch execution — looped ``estimate`` vs. a degree-bucketed ``QueryPlan``.

Quantifies what the unified batch layer buys on a 2k-node Barabási–Albert
graph with a 200-pair mixed-degree query set:

* **geer**: the plan precomputes each refined walk length once per degree
  bucket and shares every preprocessing artefact, while the loop re-derives
  the length per pair.  Values are identical under the same seed — the plan
  changes the bookkeeping, not the estimates.
* **smm**: the plan additionally runs whole buckets vectorized (one SpMM per
  iteration instead of ``2k`` SpMVs).  The per-pair path pushes over the
  frontier without building scipy objects (DESIGN.md Contract 10), so the two
  arms now run about level; the table records the measured ratio.

Results are persisted under ``benchmarks/results/`` like every other bench.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import save_table
from repro.core.engine import QueryEngine
from repro.experiments.queries import random_query_set
from repro.experiments.reporting import format_table
from repro.graph.generators import barabasi_albert_graph

NUM_NODES = 2000
NUM_PAIRS = 200
EPSILON = 0.1
SEED = 17


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(NUM_NODES, 8, rng=SEED)


@pytest.fixture(scope="module")
def pairs(graph):
    return list(random_query_set(graph, NUM_PAIRS, rng=SEED))


def _timed(fn):
    start = time.perf_counter()
    values = fn()
    return np.asarray(values, dtype=np.float64), time.perf_counter() - start


@pytest.mark.parametrize("method", ["geer", "smm"])
def test_batch_vs_looped_queries(benchmark, graph, pairs, method):
    # Warm the shared preprocessing (λ eigen-solve, transition matrix) outside
    # the timed region for both arms, mirroring the paper's setup where
    # preprocessing is a one-off step.
    loop_engine = QueryEngine(graph, rng=SEED)
    loop_engine.lambda_max_abs
    plan_engine = QueryEngine(graph, rng=SEED)
    plan_engine.lambda_max_abs

    loop_values, loop_seconds = _timed(
        lambda: [loop_engine.query(s, t, EPSILON, method=method).value for s, t in pairs]
    )

    def run_plan():
        return plan_engine.query_many(pairs, EPSILON, method=method)

    batch = benchmark.pedantic(run_plan, rounds=1, iterations=1)
    plan_seconds = batch.elapsed_seconds

    if method == "geer":
        assert np.array_equal(loop_values, batch.values), "plan changed the estimates"
    else:
        np.testing.assert_allclose(batch.values, loop_values, atol=1e-9)

    rows = [
        {
            "method": method,
            "pairs": len(pairs),
            "degree buckets": batch.num_buckets,
            "walk-length computations (loop)": len(pairs),
            "walk-length computations (plan)": batch.walk_length_computations,
            "loop seconds": round(loop_seconds, 4),
            "plan seconds": round(plan_seconds, 4),
            "speedup": round(loop_seconds / max(plan_seconds, 1e-9), 2),
        }
    ]
    save_table(
        f"batch_queries_{method}",
        format_table(rows, title=f"looped estimate vs QueryPlan ({method})"),
    )
