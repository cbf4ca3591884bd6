"""Serving layer — cold vs warm-artifact startup, cached vs uncached throughput.

Quantifies what :class:`repro.service.ResistanceService` buys on a BA graph:

* **startup**: a cold start pays the ARPACK eigen-solve plus the landmark
  sketch build; a warm start loads both from the artifact directory written by
  the cold run and must skip the eigen-solve entirely.
* **throughput**: the first pass over a mixed query set runs the engine (minus
  sketch hits); replaying the same stream is answered from the ε-aware cache
  with zero walk steps.

Results are persisted in machine-readable form at
``benchmarks/results/BENCH_service_cache.json`` (same schema conventions as
``BENCH_updates.json`` / ``BENCH_kernels.json``).  Set ``REPRO_BENCH_QUICK=1``
(as CI does) for a smaller, faster workload; the JSON records which mode
produced the numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import QUICK, write_record
from repro.experiments.queries import random_query_set
from repro.graph.generators import barabasi_albert_graph
from repro.service.server import ResistanceService, ServiceConfig


NUM_NODES = 600 if QUICK else 2000
NUM_PAIRS = 60 if QUICK else 150
REPLAY_ROUNDS = 3 if QUICK else 5
EPSILON = 0.1
SEED = 23


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(NUM_NODES, 8, rng=SEED)


@pytest.fixture(scope="module")
def pairs(graph):
    return list(random_query_set(graph, NUM_PAIRS, rng=SEED))


def _startup(graph, artifact_dir=None) -> tuple[ResistanceService, float]:
    start = time.perf_counter()
    service = ResistanceService(
        graph,
        config=ServiceConfig(num_landmarks=8),
        rng=SEED,
        artifact_dir=artifact_dir,
    )
    service.warm_up()  # forces the λ eigen-solve on cold starts
    return service, time.perf_counter() - start


def test_service_cold_vs_warm_and_cached_throughput(graph, pairs, tmp_path_factory):
    artifact_dir = tmp_path_factory.mktemp("service-artifacts")

    cold_service, cold_startup = _startup(graph)
    cold_service.save_artifacts(artifact_dir)

    warm_service, warm_startup = _startup(graph, artifact_dir=artifact_dir)
    assert warm_service.warm_started, "warm start did not pick up the artifacts"

    # Pass 1: uncached — layer misses run the engine (sketch absorbs a share).
    start = time.perf_counter()
    first = [warm_service.query(s, t, EPSILON) for s, t in pairs]
    uncached_seconds = time.perf_counter() - start
    steps_after_first = warm_service.engine.stats.total_steps

    # Pass 2: the same stream again, min-of-N — every answer must come from
    # the cache with zero additional walk steps.
    cached_seconds = float("inf")
    second = first
    for _ in range(REPLAY_ROUNDS):
        start = time.perf_counter()
        second = [warm_service.query(s, t, EPSILON) for s, t in pairs]
        cached_seconds = min(cached_seconds, time.perf_counter() - start)
    cached_seconds = max(cached_seconds, 1e-9)

    assert warm_service.engine.stats.total_steps == steps_after_first
    assert all(r.method == "cache" for r in second)
    np.testing.assert_allclose(
        [r.value for r in second], [r.value for r in first], atol=1e-12
    )

    summary = warm_service.summary()
    record = {
        "graph": {
            "family": "barabasi-albert",
            "num_nodes": NUM_NODES,
            "attach": 8,
            "weighted": False,
        },
        "epsilon": EPSILON,
        "pairs": len(pairs),
        "replay_rounds": REPLAY_ROUNDS,
        "startup": {
            "cold_seconds": round(cold_startup, 4),
            "warm_seconds": round(warm_startup, 4),
            "speedup": round(cold_startup / max(warm_startup, 1e-9), 2),
        },
        "throughput": {
            "uncached_pass_seconds": round(uncached_seconds, 4),
            "cached_pass_seconds": round(cached_seconds, 6),
            "speedup": round(uncached_seconds / cached_seconds, 1),
            "uncached_qps": round(len(pairs) / uncached_seconds, 1),
            "cached_qps": round(len(pairs) / cached_seconds, 1),
        },
        "layers": {
            "sketch_hits_pass1": summary["sketch"]["hits"],
            "cache_hit_rate": summary["cache"]["hit_rate"],
        },
    }
    write_record("service_cache", record)
